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

// Device is a memory-mapped peripheral of a node's device window, reachable
// through uncacheable accesses.
type Device interface {
	Name() string
	Read(off uint64, size int) uint64
	Write(off uint64, size int, v uint64)
}

// Accelerator is a tile's MMIO device. A load reads the register at a byte
// offset; a store is acknowledged and changes nothing, since no accelerator
// modelled here has writable state.
type Accelerator interface {
	Read(off uint64, size int) uint64
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
	Accel  Accelerator // per-tile accelerator (the GNG)

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
	UART0 *dev.UART // console, 115200 baud
	UART1 *dev.UART // data, ~1 Mbit/s ("overclocked", paper §3.4.1)
	Pack  *interrupt.Packetizer
	// Tracer, when installed with EnableTrace, is the node's ring of
	// protocol, MMIO and bridge events (nil-safe: tracing is free when
	// disabled).
	Tracer *sim.Tracer

	proto   *Prototype
	eng     *sim.Engine // the node's shard engine
	name    string
	devices []devRegion
}

// Name returns the node's hierarchical stats/trace prefix ("node3").
func (n *Node) Name() string { return n.name }

// Prototype is a built SMAPPIC system.
type Prototype struct {
	Cfg Config
	// Group is the bounded-lag synchronizer every build runs under: one
	// engine per shard, one shard when Cfg.Parallel <= 1. Use
	// Now/Run/RunUntil/RunUntilHalted rather than stepping it directly.
	Group *sim.Group
	// Eng is the engine of a one-shard build and nil otherwise: a handle for
	// tests and probes that start a process on the only engine. Models and
	// the kernel use EngineForNode.
	Eng *sim.Engine
	// Stats is the fold of the node registries, the one reports read. It is
	// refreshed when RunUntil returns and by every report (Report,
	// MetricsJSON), not by the latency probe (MeasureLatency); instruments
	// belong on a node's registry (StatsForNode), never here.
	Stats   *sim.Stats
	Backing *mem.Backing
	Map     *AddrMap
	Fabric  *pcie.Fabric
	Shells  []*shell.Shell
	Nodes   []*Node
	RNG     *sim.RNG

	engs      []*sim.Engine // per shard
	nodeStats []*sim.Stats  // node id -> the node's registry
	nodeShard []int         // node id -> shard index
	icPorts   []*icPort     // node id -> its bridge's interconnect port
	// Sampler, when installed with EnableSampler, snapshots selected
	// counters at a fixed cycle interval.
	Sampler *sim.Sampler
	// Injector resolves fault sites against Cfg.Faults; nil when no plan is
	// configured (injection disabled, zero cost).
	Injector *fault.Injector
	// StallDiagnosis is filled when the run drains wedged: the event queues
	// emptied while transactions were still in flight (see drained).
	StallDiagnosis string
	// WorkloadTag names the software loaded into the prototype (set by the
	// workload layer); snapshots record it so a restore can refuse a
	// snapshot of different software.
	WorkloadTag string
}

// EnableTrace gives every node a trace ring on its own engine, so a node's
// events are recorded in the same order under every sharding. capacity is
// the total number of events retained, split evenly: each ring keeps the
// node's last capacity/TotalNodes events.
func (p *Prototype) EnableTrace(capacity int) {
	for _, n := range p.Nodes {
		n.Tracer = sim.NewTracer(n.eng, max(1, capacity/len(p.Nodes)))
		n.Bridge.SetTracer(n.Tracer)
	}
}

// Build constructs a prototype from the configuration. It corresponds to
// the FPGA image generation step: after Build the system is "programmed"
// and ready to load software.
func Build(cfg Config) (*Prototype, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Execution policy, read here and nowhere else: how many nodes share a
	// shard engine and how many shard engines share a cluster (an FPGA's
	// worth of engines under the inner lookahead). Serial is the one-shard
	// case of the same machinery — one engine, one cluster, every endpoint
	// on it.
	nodesPerShard, shardsPerCluster := cfg.TotalNodes(), 1
	if cfg.Parallel > 1 {
		nodesPerShard = cfg.NodesPerFPGA
		if cfg.Granularity() == "node" {
			nodesPerShard, shardsPerCluster = 1, cfg.NodesPerFPGA
		}
	}
	shards := cfg.TotalNodes() / nodesPerShard
	p := &Prototype{
		Cfg:       cfg,
		Stats:     &sim.Stats{},
		Backing:   mem.NewBacking(),
		Map:       NewAddrMap(cfg.TotalNodes(), cfg.TilesPerNode, cfg.UnifiedMemory),
		RNG:       sim.NewRNG(cfg.Seed),
		engs:      make([]*sim.Engine, shards),
		nodeStats: make([]*sim.Stats, cfg.TotalNodes()),
		nodeShard: make([]int, cfg.TotalNodes()),
		icPorts:   make([]*icPort, cfg.TotalNodes()),
	}
	// One registry per node whatever the sharding, so a node's instruments
	// live in the same place in every build; one engine per shard.
	for n := range p.nodeShard {
		p.nodeShard[n] = n / nodesPerShard
		p.nodeStats[n] = &sim.Stats{}
	}
	for i := range p.engs {
		p.engs[i] = sim.NewEngine()
	}
	if shards == 1 {
		p.Eng = p.engs[0]
	}
	// Clusters group one FPGA's shard engines under the inner (intra-FPGA
	// interconnect) lookahead; the outer level synchronizes clusters at the
	// PCIe lookahead. Singleton clusters skip the inner level.
	clusters := make([][]*sim.Engine, shards/shardsPerCluster)
	for c := range clusters {
		clusters[c] = p.engs[c*shardsPerCluster : (c+1)*shardsPerCluster]
	}
	p.Group = sim.NewHierGroup(pcie.MinCrossing, icLatency, clusters, p.nodeShard)
	p.Group.SetAdaptive(sim.DefaultAdaptiveCap)
	// Per-edge model-latency floors (PCIe crossing between FPGAs, interconnect
	// crossing inside one) are enforced whatever the shard count, so an
	// undercutting model is caught even where no window depends on it.
	p.Group.SetMinLatencyFunc(p.minCrossingOf)
	p.Injector = fault.NewInjector(cfg.Faults)
	// The fabric addresses endpoints by FPGA id; the CrossNet underneath
	// speaks node ids (so intra-FPGA hops can cross shards too). pcieView
	// translates: FPGA f rides its slot-0 node's endpoint.
	p.Fabric = pcie.New(pcieView{net: p.Group, nodes: cfg.NodesPerFPGA}, p.Injector)

	w, h := cfg.MeshDims()

	// Per-FPGA: fabric endpoint and shell on the slot-0 node's engine and
	// registry, with that node's interconnect master as the inbound custom
	// logic — PCIe-delivered transactions cross the intra-FPGA interconnect
	// to their slot like locally issued ones. The host port stays unbound:
	// nothing here sends from it, and a request routed to it fails.
	for f := 0; f < cfg.FPGAs; f++ {
		out := f * cfg.NodesPerFPGA
		eng := p.EngineForNode(out)
		p.Fabric.Bind(f, eng, p.nodeStats[out])
		sh := shell.New(eng, p.Fabric, f, p.nodeStats[out])
		p.Shells = append(p.Shells, sh)
		sh.SetCustomLogic(&icMaster{p: p, node: out, eng: eng})
	}

	// Nodes.
	for nID := 0; nID < cfg.TotalNodes(); nID++ {
		f := nID / cfg.NodesPerFPGA
		eng, stats := p.EngineForNode(nID), p.nodeStats[nID]
		name := fmt.Sprintf("node%d", nID)
		n := &Node{ID: nID, FPGA: f, proto: p, eng: eng, name: name}
		n.Mesh = noc.New(eng, name+".mesh", noc.DefaultParams(w, h), stats)

		// Memory path: the (timing-only) DRAM channel behind the NoC-AXI4
		// controller, which sees node-local offsets.
		n.DRAM = mem.NewDRAM(eng, name+".dram", stats)
		n.DRAM.SetInjector(p.Injector)
		n.MemCtl = mem.NewController(eng, n.Mesh, name+".memctl", n.DRAM, stats)

		// Interrupt fabric: global hart numbering node*C + tile.
		n.Pack = interrupt.NewPacketizer(cfg.TotalTiles(), func(hart int, c *interrupt.Change) {
			p.sendInterrupt(n, hart, c)
		})
		n.CLINT = interrupt.NewCLINT(eng, cfg.TotalTiles(), n.Pack)

		// Virtual devices.
		n.UART0 = dev.NewUART(eng, name+".uart0", stats)
		n.UART1 = dev.NewUART(eng, name+".uart1", stats)
		n.UART1.CyclesPerByte = dev.FastBaudCycles

		n.devices = []devRegion{
			// UART registers are exposed at stride 8 on the core side
			// (64-bit friendly), matching OpenPiton's chipset bridge.
			{DevUART0, 0x1000, strided{n.UART0, 3}, 2},
			{DevUART1, 0x1000, strided{n.UART1, 3}, 2},
			{DevCLINT, 0x10000, n.CLINT, 2},
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
			port := corePort{newPort(t, p)}
			switch cfg.Core {
			case CoreAriane:
				t.Core = riscv.New(port, p.hartID(gid), ResetPC)
			case CorePicoRV32:
				t.Core = riscv.NewWithProfile(port, p.hartID(gid), ResetPC, riscv.PicoRV32)
			}
			n.Tiles = append(n.Tiles, t)
			n.Mesh.AttachTile(tID, p.tileHandler(t))
		}
		n.Mesh.AttachChipset(p.chipsetHandler(n))

		// Inter-node bridge, behind its interconnect window's arbitration
		// port.
		n.Bridge = bridge.New(eng, n.Mesh, nID, cfg.TotalNodes(), cfg.Bridge, stats, name+".bridge")
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
		return pcie.MinCrossing
	}
	if src == dst {
		return 0
	}
	if src/p.Cfg.NodesPerFPGA == dst/p.Cfg.NodesPerFPGA {
		return icLatency
	}
	return pcie.MinCrossing
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

// Seconds converts cycles to wall-clock seconds at the prototype frequency.
func (p *Prototype) Seconds(cycles sim.Time) float64 {
	return float64(cycles) / (ClockMHz * 1e6)
}

// Now returns the current simulation time: the globally latest executed
// event (a one-shard build's engine clock).
func (p *Prototype) Now() sim.Time { return p.Group.Now() }

// EngineForNode returns the engine that simulates a node: its shard's
// engine. Under per-node granularity distinct co-located nodes get distinct
// engines.
func (p *Prototype) EngineForNode(node int) *sim.Engine {
	return p.engs[p.nodeShard[node]]
}

// Net returns the cross-shard delivery network, so code that crosses
// shards (the PCIe fabric, thread migration) is written once against it.
func (p *Prototype) Net() sim.CrossNet { return p.Group }

// StatsForNode returns a node's registry: the one new instruments on the
// node (e.g. an accelerator placed on one of its tiles) must register with.
// Instruments registered on Stats directly are dropped by the next fold.
func (p *Prototype) StatsForNode(node int) *sim.Stats { return p.nodeStats[node] }

// Close releases the goroutines of every simulation process (hart, kernel
// thread, workload driver) still parked when the prototype is abandoned — a
// run cut short by a cycle limit, a timeout, a cancellation or a stall —
// and the synchronizer's host workers, which would otherwise stay blocked
// forever, each pinning the whole prototype. Nothing may run on the
// prototype afterwards; its state and statistics stay readable. Safe to
// call more than once.
func (p *Prototype) Close() {
	p.Group.Close()
	for _, e := range p.engs {
		e.Close()
	}
}

// Run drains the simulation (until all activity quiesces).
func (p *Prototype) Run() sim.Time { return p.RunUntil(nil) }

// RunUntilHalted executes until the event queue drains or the cycle limit
// passes, and returns the final time. Halted harts schedule nothing, so a
// run whose harts all halt drains once their last stores and interrupts
// have landed: it ends at the same cycle under every sharding, where
// stopping at the first window barrier after the last halt would not.
func (p *Prototype) RunUntilHalted(limit sim.Time) sim.Time {
	return p.RunUntil(func() bool { return p.Now() >= limit })
}

// RunUntil is the one run entry: it steps synchronization windows until the
// simulation drains or stop (nil: never) holds, and returns the final time.
// stop is evaluated on the calling goroutine at window barriers — the points
// where every shard is parked and the whole model is coherent to inspect —
// so it may read anything and may have host-side effects (check a context,
// note why it stopped), and a run passes the bound stop encodes by at most
// one window: sim.DefaultAdaptiveCap minimum PCIe crossings. That holds for
// every shard count; a one-shard build has windows too. Observers hook the
// same barriers through Group.OnBarrier (obs.Server.ObservePrototype does),
// and every drain is checked for lost callbacks (drained). Stats is the
// fold of the node registries when it returns.
func (p *Prototype) RunUntil(stop func() bool) sim.Time {
	p.run(stop)
	p.Stats.CopyFrom(p.nodeStats...)
	return p.Now()
}

// run is RunUntil without the fold, for the latency probe: two drains per
// measured pair, where a fold each would cost the Fig. 7 matrix far more
// than its simulation.
func (p *Prototype) run(stop func() bool) {
	for stop == nil || !stop() {
		if !p.Group.StepWindow() {
			p.drained()
			return
		}
	}
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
