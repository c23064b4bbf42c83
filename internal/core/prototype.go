package core

import (
	"fmt"

	"smappic/internal/axi"
	"smappic/internal/bridge"
	"smappic/internal/cache"
	"smappic/internal/dev"
	"smappic/internal/fault"
	"smappic/internal/interrupt"
	"smappic/internal/mem"
	"smappic/internal/noc"
	"smappic/internal/pcie"
	"smappic/internal/riscv"
	"smappic/internal/shell"
	"smappic/internal/sim"
)

// Device is a memory-mapped peripheral reachable through uncacheable
// accesses. All virtual devices and accelerators implement it.
type Device interface {
	Name() string
	Read(off uint64, size int) uint64
	Write(off uint64, size int, v uint64)
}

// strided rescales MMIO byte offsets to a device's register indices.
type strided struct {
	d     Device
	shift uint
}

func (s strided) Name() string { return s.d.Name() }
func (s strided) Read(off uint64, size int) uint64 {
	return s.d.Read(off>>s.shift, size)
}
func (s strided) Write(off uint64, size int, v uint64) {
	s.d.Write(off>>s.shift, size, v)
}

// devRegion is one entry of a node's MMIO decode table.
type devRegion struct {
	base    uint64
	size    uint64
	dev     Device
	latency sim.Time
}

// Tile is one tile of a node: private cache stack, LLC slice, and
// optionally a core or an accelerator device.
type Tile struct {
	ID     cache.GID
	Priv   *cache.Private
	LLC    *cache.Slice
	Core   *riscv.Core
	Depack *interrupt.Depacketizer
	Accel  Device // per-tile MMIO device (GNG, MAPLE, ...)

	node *Node
	proc *sim.Process
}

// Node is one chip/die of the target system: a BYOC instance.
type Node struct {
	ID    int
	FPGA  int
	Mesh  *noc.Mesh
	Tiles []*Tile

	Bridge *bridge.Bridge
	MemCtl *mem.Controller
	DRAM   *mem.DRAM

	CLINT *interrupt.CLINT
	PLIC  *interrupt.PLIC
	UART0 *dev.UART // console, 115200 baud
	UART1 *dev.UART // data, ~1 Mbit/s ("overclocked", paper §3.4.1)
	SD    *dev.SDCard
	Pack  *interrupt.Packetizer

	proto   *Prototype
	eng     *sim.Engine // the node's shard engine (the global one when serial)
	stats   *sim.Stats  // the shard's registry (the global one when serial)
	name    string
	devices []devRegion
}

// Name returns the node's hierarchical stats/trace prefix ("node3").
func (n *Node) Name() string { return n.name }

// Prototype is a built SMAPPIC system.
type Prototype struct {
	Cfg Config
	// Eng is the single simulation engine of a serial build; nil under
	// sharded execution (Cfg.Parallel > 1), where each FPGA owns an engine
	// and Group coordinates them. Use Now/Run/RunUntilHalted, which dispatch
	// on the mode, instead of touching Eng directly.
	Eng *sim.Engine
	// Group is the bounded-lag shard synchronizer of a sharded build; nil
	// when serial.
	Group *sim.Group
	// Stats is the registry reports read. Serial builds write it directly;
	// sharded builds keep one registry per shard and fold them into Stats at
	// report time.
	Stats   *sim.Stats
	Backing *mem.Backing
	Map     *AddrMap
	Fabric  *pcie.Fabric
	Shells  []*shell.Shell
	Nodes   []*Node
	RNG     *sim.RNG

	engs       []*sim.Engine // per shard; the one global engine when serial
	shardStats []*sim.Stats  // per shard; all Stats when serial
	nodeShard  []int         // node id -> shard index (all 0 when serial)
	icPorts    []*icPort     // node id -> its bridge's interconnect port
	net        sim.CrossNet  // cross-shard delivery (SerialNet when serial)
	// Tracer, when installed with EnableTrace, records protocol and MMIO
	// events (nil-safe: tracing is free when disabled).
	Tracer *sim.Tracer
	// Sampler, when installed with EnableSampler, snapshots selected
	// counters at a fixed cycle interval.
	Sampler *sim.Sampler
	// Injector resolves fault sites against Cfg.Faults; nil when no plan is
	// configured (injection disabled, zero cost).
	Injector *fault.Injector
	// Watchdog is the forward-progress monitor armed by EnableWatchdog (or
	// by Build when Cfg.WatchdogInterval is set).
	Watchdog *sim.Watchdog
	// GroupWatchdog is the sharded-run forward-progress monitor installed by
	// Build when Cfg.WatchdogInterval is set on a parallel build. It piggy-
	// backs on window barriers instead of scheduling events, so arming it
	// does not perturb the simulated event stream.
	GroupWatchdog *GroupWatchdog
	// StallDiagnosis is filled when the watchdog detects a wedged run: no
	// event executed for a full interval while transactions were in flight.
	StallDiagnosis string
	// WorkloadTag names the software loaded into the prototype (set by the
	// workload layer); snapshots record it so restore can refuse to replay a
	// cursor against a different program.
	WorkloadTag string
}

// EnableTrace installs an event tracer retaining the last capacity events
// and propagates it to subsystems that emit their own tracks (bridges).
// Serial-only: the trace ring is a single time-ordered buffer.
func (p *Prototype) EnableTrace(capacity int) *sim.Tracer {
	p.mustSerial("EnableTrace")
	p.Tracer = sim.NewTracer(p.Eng, capacity)
	for _, n := range p.Nodes {
		n.Bridge.SetTracer(p.Tracer)
	}
	return p.Tracer
}

// Build constructs a prototype from the configuration. It corresponds to
// the FPGA image generation step: after Build the system is "programmed"
// and ready to load software.
func Build(cfg Config) (*Prototype, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	parallel := cfg.Parallel > 1
	perNode := parallel && cfg.Granularity() == "node"
	shards := 1
	if parallel {
		shards = cfg.FPGAs
		if perNode {
			shards = cfg.TotalNodes()
		}
	}
	p := &Prototype{
		Cfg:        cfg,
		Backing:    mem.NewBacking(),
		Map:        NewAddrMap(cfg.TotalNodes(), cfg.TilesPerNode, cfg.UnifiedMemory),
		RNG:        sim.NewRNG(cfg.Seed),
		engs:       make([]*sim.Engine, shards),
		shardStats: make([]*sim.Stats, shards),
		nodeShard:  make([]int, cfg.TotalNodes()),
		icPorts:    make([]*icPort, cfg.TotalNodes()),
	}
	for n := range p.nodeShard {
		switch {
		case perNode:
			p.nodeShard[n] = n
		case parallel:
			p.nodeShard[n] = n / cfg.NodesPerFPGA
		}
	}
	if parallel {
		// One engine and registry per shard (an FPGA, or a node under
		// per-node granularity); shards never touch each other's. p.Stats
		// stays empty until report time, when the shard registries are
		// folded into it.
		p.Stats = &sim.Stats{}
		for i := range p.engs {
			p.engs[i] = sim.NewEngine()
			p.shardStats[i] = &sim.Stats{}
		}
		// Clusters group one FPGA's shard engines under the inner (intra-
		// FPGA interconnect) lookahead; the outer level synchronizes FPGAs
		// at the PCIe lookahead. Per-FPGA granularity degenerates to
		// singleton clusters — the flat, one-level behavior.
		clusters := make([][]*sim.Engine, cfg.FPGAs)
		for f := range clusters {
			if perNode {
				clusters[f] = p.engs[f*cfg.NodesPerFPGA : (f+1)*cfg.NodesPerFPGA]
			} else {
				clusters[f] = p.engs[f : f+1]
			}
		}
		p.Group = sim.NewHierGroup(cfg.PCIe.MinCrossing(), icLatency, clusters, p.nodeShard)
		p.Group.SetAdaptive(cfg.AdaptiveCap())
		p.Group.SetMinLatencyFunc(p.minCrossingOf)
		p.net = p.Group
		if cfg.SyncMetrics {
			p.Group.EnableSyncStats(p.shardStats)
		}
	} else {
		p.Eng = sim.NewEngine()
		p.Stats = &sim.Stats{}
		p.engs[0] = p.Eng
		p.shardStats[0] = p.Stats
		// The serial reference enforces the same per-edge model-latency
		// floors the sharded lookaheads depend on (PCIe crossing between
		// FPGAs, interconnect crossing inside one), so an undercutting model
		// is caught in whichever mode runs first.
		net := sim.NewSerialNet(p.Eng)
		net.SetMinLatencyFunc(p.minCrossingOf)
		p.net = net
	}
	p.Injector = fault.NewInjector(p.engs[0], cfg.Faults)
	p.Fabric = pcie.New(p.engs[0], cfg.PCIe, p.shardStats[0])
	p.Fabric.SetInjector(p.Injector)
	// The fabric addresses endpoints by FPGA id; the CrossNet underneath
	// speaks node ids (so intra-FPGA hops can cross shards too). pcieView
	// translates: FPGA f rides its slot-0 node's endpoint.
	p.Fabric.SetCrossNet(pcieView{net: p.net, nodes: cfg.NodesPerFPGA})
	if parallel {
		for f := 0; f < cfg.FPGAs; f++ {
			s := p.nodeShard[f*cfg.NodesPerFPGA]
			p.Fabric.ShardEndpoint(f, p.engs[s], p.shardStats[s])
		}
	}
	if cfg.WatchdogInterval > 0 {
		if parallel {
			p.EnableGroupWatchdog(cfg.WatchdogInterval)
		} else {
			p.EnableWatchdog(cfg.WatchdogInterval)
		}
	}

	w, h := cfg.MeshDims()

	// Per-FPGA: shell on the slot-0 node's engine, with that node's
	// interconnect master as the inbound custom logic — PCIe-delivered
	// transactions cross the intra-FPGA interconnect to their slot like
	// locally issued ones.
	for f := 0; f < cfg.FPGAs; f++ {
		out := f * cfg.NodesPerFPGA
		s := p.nodeShard[out]
		sh := shell.New(p.engs[s], p.Fabric, f, p.shardStats[s])
		p.Shells = append(p.Shells, sh)
		sh.SetCustomLogic(&icMaster{p: p, node: out, eng: p.engs[s]})
	}

	// Nodes.
	for nID := 0; nID < cfg.TotalNodes(); nID++ {
		f := nID / cfg.NodesPerFPGA
		eng, stats := p.engs[p.nodeShard[nID]], p.shardStats[p.nodeShard[nID]]
		name := fmt.Sprintf("node%d", nID)
		n := &Node{ID: nID, FPGA: f, proto: p, eng: eng, stats: stats, name: name}
		// Router/link delays calibrated so a 12-tile node reproduces the
		// paper's ~100-cycle intra-node round trip (Fig. 7).
		n.Mesh = noc.New(eng, name+".mesh", noc.Params{
			RouterDelay: 3, LinkDelay: 2, Width: w, Height: h,
		}, stats)

		// Memory path: DRAM channel behind the NoC-AXI4 controller. The
		// controller sees node-local offsets; translate by the region base
		// for the (timing-only) channel.
		n.DRAM = mem.NewDRAM(eng, name+".dram", cfg.DRAMLatency, cfg.DRAMBytesPerCycle, nil, 0, stats)
		n.DRAM.SetInjector(p.Injector)
		n.MemCtl = mem.NewController(eng, n.Mesh, name+".memctl", n.DRAM, stats)

		// Interrupt fabric: global hart numbering node*C + tile.
		n.Pack = interrupt.NewPacketizer(func(hart int, c *interrupt.Change) {
			p.sendInterrupt(n, hart, c)
		})
		n.CLINT = interrupt.NewCLINT(eng, cfg.TotalTiles(), n.Pack)
		n.PLIC = interrupt.NewPLIC(cfg.TotalTiles(), 4, n.Pack)

		// Virtual devices.
		n.UART0 = dev.NewUART(eng, name+".uart0", stats)
		n.UART1 = dev.NewUART(eng, name+".uart1", stats)
		n.UART1.CyclesPerByte = dev.FastBaudCycles
		n.UART0.IRQ = func(level bool) { n.PLIC.SetLevel(1, level) }
		n.UART1.IRQ = func(level bool) { n.PLIC.SetLevel(2, level) }
		n.SD = dev.NewSDCard(eng, p.Backing, p.Map.SDCardBase(nID), NodeDRAMSize/2, stats, name+".sd")

		n.devices = []devRegion{
			// UART registers are exposed at stride 8 on the core side
			// (64-bit friendly), matching OpenPiton's chipset bridge.
			{DevUART0, 0x1000, strided{n.UART0, 3}, 2},
			{DevUART1, 0x1000, strided{n.UART1, 3}, 2},
			{DevSD, 0x1000, n.SD, 2},
			{DevCLINT, 0x10000, n.CLINT, 2},
			{DevPLIC, 0x400_0000, n.PLIC, 2},
		}

		// Tiles.
		for tID := 0; tID < cfg.TilesPerNode; tID++ {
			gid := cache.GID{Node: nID, Tile: tID}
			tname := fmt.Sprintf("%s.tile%d", name, tID)
			t := &Tile{ID: gid, node: n}
			t.Priv = cache.NewPrivate(eng, gid, cfg.Cache, nodeConn{n}, p.homeFunc(nID), stats, tname+".bpc")
			t.LLC = cache.NewSlice(eng, gid, cfg.Cache, nodeConn{n}, stats, tname+".llc")
			t.Depack = interrupt.NewDepacketizer(func(k interrupt.Kind, level bool) {
				if t.Core != nil {
					t.Core.SetIRQ(int(k), level)
				}
			})
			switch cfg.Core {
			case CoreAriane:
				t.Core = riscv.New(&corePort{tile: t}, p.hartID(gid), ResetPC, stats, tname+".core")
			case CorePicoRV32:
				t.Core = riscv.NewWithProfile(&corePort{tile: t}, p.hartID(gid), ResetPC, riscv.PicoRV32, stats, tname+".core")
			}
			n.Tiles = append(n.Tiles, t)
			n.Mesh.AttachTile(tID, p.tileHandler(t))
		}
		n.Mesh.AttachChipset(p.chipsetHandler(n))

		// Inter-node bridge, behind its interconnect window's arbitration
		// port.
		n.Bridge = bridge.New(eng, n.Mesh, nID, cfg.Bridge, stats, name+".bridge")
		n.Bridge.SetInjector(p.Injector)
		p.icPorts[nID] = &icPort{
			node:   nID,
			eng:    eng,
			target: n.Bridge.Inbound(),
			writes: stats.LazyCounter(name + ".ic.writes"),
			reads:  stats.LazyCounter(name + ".ic.reads"),
		}

		p.Nodes = append(p.Nodes, n)
	}

	// Wire bridge outbound paths: same-FPGA destinations cross the intra-
	// FPGA interconnect; remote destinations leave through the shell to
	// PCIe (hopping to the shell-owning slot-0 node first).
	for _, n := range p.Nodes {
		n.Bridge.ConnectOut(&icMaster{p: p, node: n.ID, eng: n.eng},
			func(dst int) axi.Addr { return p.bridgeAddr(n.FPGA, dst) })
	}
	return p, nil
}

// minCrossingOf is the per-edge model-latency floor between two CrossNet
// endpoints (node ids): zero for an endpoint's own engine-local sends, the
// interconnect crossing between co-located nodes, the PCIe crossing across
// FPGAs (and for anything involving the host endpoint).
func (p *Prototype) minCrossingOf(src, dst int) sim.Time {
	if src < 0 || dst < 0 {
		return p.Cfg.PCIe.MinCrossing()
	}
	if src == dst {
		return 0
	}
	if src/p.Cfg.NodesPerFPGA == dst/p.Cfg.NodesPerFPGA {
		return icLatency
	}
	return p.Cfg.PCIe.MinCrossing()
}

// bridgeWindow returns the CL-inbound window of a node's bridge within its
// FPGA (local addressing).
const bridgeWindowSize = 1 << 24

func bridgeWindow(slot int) axi.Addr {
	return axi.Addr(0x1000_0000 + uint64(slot)*bridgeWindowSize)
}

// bridgeAddr computes the AXI address for reaching dstNode's bridge from an
// FPGA: local window if co-located, PCIe window of the peer FPGA otherwise.
func (p *Prototype) bridgeAddr(srcFPGA, dstNode int) axi.Addr {
	dstFPGA := dstNode / p.Cfg.NodesPerFPGA
	slot := dstNode % p.Cfg.NodesPerFPGA
	if dstFPGA == srcFPGA {
		return bridgeWindow(slot)
	}
	base, _ := p.Fabric.Window(dstFPGA)
	return base + bridgeWindow(slot)
}

// hartID returns the global hart number of a tile.
func (p *Prototype) hartID(g cache.GID) int {
	return g.Node*p.Cfg.TilesPerNode + g.Tile
}

// hartLoc inverts hartID.
func (p *Prototype) hartLoc(hart int) cache.GID {
	return cache.GID{Node: hart / p.Cfg.TilesPerNode, Tile: hart % p.Cfg.TilesPerNode}
}

// homeFunc builds the homing function for a node's caches: home node from
// the DRAM region (default), or globally line-interleaved for the ablation
// configuration; home slice by line interleave either way.
func (p *Prototype) homeFunc(nodeID int) cache.HomeFunc {
	if p.Cfg.GlobalInterleaveHoming && p.Cfg.UnifiedMemory {
		nodes := uint64(p.Cfg.TotalNodes())
		tiles := uint64(p.Cfg.TilesPerNode)
		return func(line uint64) cache.GID {
			idx := line >> 6
			return cache.GID{
				Node: int(idx % nodes),
				Tile: int(idx / nodes % tiles),
			}
		}
	}
	return func(line uint64) cache.GID {
		return cache.GID{
			Node: p.Map.HomeNode(line, nodeID),
			Tile: p.Map.HomeTile(line),
		}
	}
}

// Tile returns the tile at a global location.
func (p *Prototype) Tile(g cache.GID) *Tile { return p.Nodes[g.Node].Tiles[g.Tile] }

// TileByHart returns the tile hosting a hart.
func (p *Prototype) TileByHart(hart int) *Tile { return p.Tile(p.hartLoc(hart)) }

// Seconds converts cycles to wall-clock seconds at the prototype frequency.
func (p *Prototype) Seconds(cycles sim.Time) float64 {
	return float64(cycles) / (float64(p.Cfg.ClockMHz) * 1e6)
}

// Now returns the current simulation time: the single engine's clock when
// serial, the globally latest executed event when sharded (the two agree —
// see internal/sim/parallel.go).
func (p *Prototype) Now() sim.Time {
	if p.Group != nil {
		return p.Group.Now()
	}
	return p.Eng.Now()
}

// ShardOfNode returns the shard index that simulates a node: 0 when
// serial, the node's FPGA under per-FPGA granularity, the node itself
// under per-node granularity.
func (p *Prototype) ShardOfNode(node int) int { return p.nodeShard[node] }

// EngineForNode returns the engine that simulates a node: its shard's
// engine, or the global engine when serial. Under per-node granularity
// distinct co-located nodes get distinct engines.
func (p *Prototype) EngineForNode(node int) *sim.Engine {
	return p.engs[p.nodeShard[node]]
}

// Net returns the cross-shard delivery network. Serial and sharded builds
// both have one, so code that crosses shards (the PCIe fabric, thread
// migration) is written once against it.
func (p *Prototype) Net() sim.CrossNet { return p.net }

// StatsForNode returns the registry new instruments on a node (e.g. an
// accelerator placed on one of its tiles) must register with: the node's
// shard registry when sharded, the global one when serial. Instruments
// registered on Stats directly would be dropped by a sharded build's
// report-time merge.
func (p *Prototype) StatsForNode(node int) *sim.Stats {
	return p.shardStats[p.nodeShard[node]]
}

// ShardRegistries returns the per-shard stats registries in shard order
// (one registry, the global one, when serial). Observers that rebuild the
// merged report must fold all of them, whatever the granularity.
func (p *Prototype) ShardRegistries() []*sim.Stats { return p.shardStats }

// Lookahead returns the minimum cross-FPGA latency in cycles — the outer
// bound every PCIe-class CrossNet send must respect, in either mode
// (serial runs must obey it too or they would diverge from sharded ones).
func (p *Prototype) Lookahead() sim.Time { return p.Cfg.PCIe.MinCrossing() }

// InnerLookahead returns the minimum intra-FPGA cross-shard latency in
// cycles: the interconnect crossing between co-located nodes, and the
// inner window bound of per-node sharded runs. Like Lookahead it is a
// property of the model, not the execution mode.
func (p *Prototype) InnerLookahead() sim.Time { return icLatency }

// MustSerial panics when a serial-only feature is used on a sharded build;
// exported for the software layers (kernel, workload) that add their own
// serial-only features, such as state capture.
func (p *Prototype) MustSerial(what string) { p.mustSerial(what) }

// mustSerial panics when a serial-only feature is used on a sharded build.
func (p *Prototype) mustSerial(what string) {
	if p.Eng == nil {
		panic(fmt.Sprintf("core: %s is serial-only; rebuild without Parallel", what))
	}
}

// Close releases the goroutines of every simulation process (hart, kernel
// thread, workload driver) still parked when the prototype is abandoned — a
// run cut short by a cycle limit, a timeout, a cancellation or a stall —
// which would otherwise stay blocked forever, each pinning the whole
// prototype. Nothing may run on the prototype afterwards; its state and
// statistics stay readable. Safe to call more than once.
func (p *Prototype) Close() {
	for _, e := range p.engs {
		e.Close()
	}
}

// Run drains the simulation (until all activity quiesces).
func (p *Prototype) Run() sim.Time { return p.run(nil, 0, nil) }

// RunObserved drains the simulation like Run while invoking publish at
// non-perturbing boundaries: every `every` cycles from the calling goroutine
// between events when serial, and at every window barrier when sharded (via
// Group.OnBarrier, which it installs for the duration of the call, chaining
// any hook already present). publish must only read state — it runs while
// the simulation is provably quiescent, so a snapshot taken inside it cannot
// perturb event order, and the run's outputs are byte-identical to an
// unobserved one.
func (p *Prototype) RunObserved(every sim.Time, publish func()) sim.Time {
	return p.run(nil, every, publish)
}

// RunUntil advances simulation to the deadline. Serial-only: sharded
// execution advances in lookahead windows, not to arbitrary deadlines.
func (p *Prototype) RunUntil(t sim.Time) sim.Time {
	p.mustSerial("RunUntil")
	return p.Eng.RunUntil(t)
}

// RunUntilHalted executes until every core halts, the event queue drains,
// or the cycle limit passes, and returns the final time. Sharded execution
// checks the halt condition at window barriers (the only points where core
// state is coherent to inspect), so it may overshoot the limit by up to one
// window.
func (p *Prototype) RunUntilHalted(limit sim.Time) sim.Time {
	return p.run(p.haltedOrPast(limit), 0, nil)
}

// RunUntilHaltedObserved is RunUntilHalted with the observation contract of
// RunObserved: publish runs between events every `every` cycles when serial,
// and at window barriers when sharded.
func (p *Prototype) RunUntilHaltedObserved(limit, every sim.Time, publish func()) sim.Time {
	return p.run(p.haltedOrPast(limit), every, publish)
}

// haltedOrPast is RunUntilHalted's stop predicate. It only reads core and
// clock state, as a stop predicate must.
func (p *Prototype) haltedOrPast(limit sim.Time) func() bool {
	return func() bool { return p.AllHalted() || p.Now() >= limit }
}

// run is the one run loop behind Run*: advance until the simulation drains
// or stop (nil: never) holds, calling publish (nil: none) from this
// goroutine at the observation boundaries RunObserved documents. Serial,
// stop and the publish interval are evaluated between events inside
// Engine.Advance; sharded, they are evaluated at window barriers.
func (p *Prototype) run(stop func() bool, every sim.Time, publish func()) sim.Time {
	if p.Group != nil {
		if publish != nil {
			prev := p.Group.OnBarrier
			p.Group.OnBarrier = func() {
				if prev != nil {
					prev()
				}
				publish()
			}
			defer func() { p.Group.OnBarrier = prev }()
		}
		if stop == nil {
			t := p.Group.Run()
			p.GroupWatchdog.drained()
			return t
		}
		for !stop() {
			if !p.Group.StepWindow() {
				p.GroupWatchdog.drained()
				break
			}
		}
		return p.Group.Now()
	}
	if publish == nil {
		p.Eng.Advance(sim.TimeMax, 0, stop)
		return p.Eng.Now()
	}
	if stop == nil {
		stop = func() bool { return false }
	}
	if every <= 0 {
		every = 100_000
	}
	for !stop() {
		next := p.Eng.Now() + every
		due := func() bool { return p.Eng.Now() >= next || stop() }
		if !p.Eng.Advance(sim.TimeMax, 0, due) {
			break
		}
		if p.Eng.Now() >= next {
			publish()
		}
	}
	return p.Eng.Now()
}

// Start boots every RISC-V core (no-op for CoreNone prototypes). Cores
// begin fetching at ResetPC.
func (p *Prototype) Start() {
	for _, n := range p.Nodes {
		for _, t := range n.Tiles {
			if t.Core == nil || t.Accel != nil {
				continue
			}
			t := t
			t.proc = sim.Go(n.eng, fmt.Sprintf("hart%d", p.hartID(t.ID)), func(pr *sim.Process) {
				t.Core.Run(pr, 0)
			})
		}
	}
}

// AllHalted reports whether every started core has halted.
func (p *Prototype) AllHalted() bool {
	for _, n := range p.Nodes {
		for _, t := range n.Tiles {
			if t.Core != nil && t.Accel == nil && !t.Core.Halted() {
				return false
			}
		}
	}
	return true
}
