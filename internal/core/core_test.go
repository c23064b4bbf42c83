package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"smappic/internal/cache"
	"smappic/internal/rvasm"
	"smappic/internal/sim"
)

func TestParseShape(t *testing.T) {
	a, b, c, err := ParseShape("4x1x12")
	if err != nil || a != 4 || b != 1 || c != 12 {
		t.Fatalf("ParseShape = %d,%d,%d,%v", a, b, c, err)
	}
	for _, bad := range []string{"", "4x1", "0x1x2", "axbxc"} {
		if _, _, _, err := ParseShape(bad); err == nil {
			t.Errorf("ParseShape(%q) should fail", bad)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		a, b, c int
		ok      bool
	}{
		{1, 1, 12, true},
		{4, 1, 12, true},
		{1, 4, 2, true},
		{4, 4, 2, true},
		{5, 1, 2, false},  // > 4 FPGAs on one low-latency switch
		{1, 5, 2, false},  // > 4 DRAM channels
		{1, 1, 13, false}, // > 12 tiles per VU9P
	}
	for _, tc := range cases {
		cfg := DefaultConfig(tc.a, tc.b, tc.c)
		err := cfg.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("Validate(%dx%dx%d) err=%v, want ok=%v", tc.a, tc.b, tc.c, err, tc.ok)
		}
	}
}

func TestMeshDims(t *testing.T) {
	cases := map[int][2]int{12: {4, 3}, 2: {2, 1}, 6: {3, 2}, 9: {3, 3}, 5: {5, 1}}
	for tiles, want := range cases {
		cfg := DefaultConfig(1, 1, tiles)
		w, h := cfg.MeshDims()
		if w != want[0] || h != want[1] {
			t.Errorf("MeshDims(%d) = %dx%d, want %dx%d", tiles, w, h, want[0], want[1])
		}
	}
}

func TestAddrMapHoming(t *testing.T) {
	m := NewAddrMap(4, 12, true)
	if got := m.HomeNode(m.NodeDRAMBase(2)+0x1234, 0); got != 2 {
		t.Errorf("HomeNode = %d, want 2", got)
	}
	// Line interleaving across 12 slices.
	a := m.NodeDRAMBase(0)
	seen := map[int]bool{}
	for i := uint64(0); i < 12; i++ {
		seen[m.HomeTile(a+i*64)] = true
	}
	if len(seen) != 12 {
		t.Errorf("lines interleave over %d slices, want 12", len(seen))
	}
	// Non-unified: home stays on the caller's node.
	mu := NewAddrMap(4, 12, false)
	if got := mu.HomeNode(m.NodeDRAMBase(2), 1); got != 1 {
		t.Errorf("non-unified HomeNode = %d, want caller's 1", got)
	}
}

func TestAddrMapDevice(t *testing.T) {
	m := NewAddrMap(4, 4, true)
	addr := DevBase + 2*DevNodeSize + DevAccel + 3<<16 + 0x8
	if !m.IsUncached(addr) {
		t.Fatal("device address not uncached")
	}
	if m.DevNode(addr) != 2 {
		t.Fatalf("DevNode = %d", m.DevNode(addr))
	}
	tile, off, ok := m.AccelTile(m.DevOffset(addr))
	if !ok || tile != 3 || off != 8 {
		t.Fatalf("AccelTile = %d,%#x,%v", tile, off, ok)
	}
	if _, _, ok := m.AccelTile(DevCLINT); ok {
		t.Error("CLINT offset misdecoded as accelerator")
	}
}

// buildQuiet builds a prototype for tests.
func buildQuiet(t *testing.T, cfg Config) *Prototype {
	t.Helper()
	p, err := Build(cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p
}

func TestBootHelloWorldOverUART(t *testing.T) {
	cfg := DefaultConfig(1, 1, 2)
	p := buildQuiet(t, cfg)
	host := p.Host()

	prog := rvasm.MustAssemble(ResetPC, `
		csrr t0, mhartid
		bnez t0, halt          # only hart 0 prints
		la   s0, msg
		li   s1, 0xF000001000  # UART0 THR
	putc:	lbu  t1, 0(s0)
		beqz t1, halt
		sd   t1, 0(s1)
	wait:	ld   t2, 40(s1)        # LSR at reg 5 (byte regs, stride 8 here)
		andi t2, t2, 0x20
		beqz t2, wait
		addi s0, s0, 1
		j    putc
	halt:	li a0, 0
		ebreak
	msg:	.asciz "Hello SMAPPIC\n"
	`)
	host.LoadProgram(0, prog)
	p.Start()
	p.Run()
	if !p.AllHalted() {
		t.Fatal("cores did not halt")
	}
	if got := host.Console(0); got != "Hello SMAPPIC\n" {
		t.Fatalf("console = %q", got)
	}
}

func TestMultiHartsSeeDistinctIDs(t *testing.T) {
	cfg := DefaultConfig(1, 1, 4)
	p := buildQuiet(t, cfg)
	host := p.Host()
	// Each hart writes its ID into a distinct slot, then halts.
	prog := rvasm.MustAssemble(ResetPC, `
		csrr t0, mhartid
		slli t1, t0, 3
		la   t2, slots
		add  t2, t2, t1
		sd   t0, 0(t2)
		mv   a0, t0
		ebreak
		.align 3
	slots:	.space 64
	`)
	host.LoadProgram(0, prog)
	p.Start()
	p.Run()
	slots := prog.Entry("slots")
	for h := 0; h < 4; h++ {
		if got := p.Backing.ReadU64(slots + uint64(h*8)); got != uint64(h) {
			t.Errorf("slot %d = %d", h, got)
		}
	}
}

func TestCrossNodeSharedMemory(t *testing.T) {
	// 2 FPGAs, 1 node each, unified memory: hart 0 (node 0) writes a flag
	// in node 1's memory; hart on node 1 spins on it.
	cfg := DefaultConfig(2, 1, 1)
	p := buildQuiet(t, cfg)
	host := p.Host()

	flagAddr := p.Map.NodeDRAMBase(1) + 0x2000
	writer := rvasm.MustAssemble(ResetPC, `
		csrr t0, mhartid
		bnez t0, reader
		li   t1, 0xC0002000   # flag in node 1's DRAM region
		li   t2, 7
		li   t3, 4000
	delay:	addi t3, t3, -1        # let the reader start spinning
		bnez t3, delay
		sd   t2, 0(t1)
		li   a0, 1
		ebreak
	reader:	li   t1, 0xC0002000
	spin:	ld   t2, 0(t1)
		beqz t2, spin
		mv   a0, t2
		ebreak
	`)
	if p.Map.NodeDRAMBase(1) != 0xC000_0000 {
		t.Fatalf("node1 DRAM base = %#x; test constant stale", p.Map.NodeDRAMBase(1))
	}
	host.LoadProgram(0, writer)
	p.Start()
	p.RunUntilHalted(3_000_000)
	if !p.AllHalted() {
		t.Fatal("harts did not halt; cross-node coherence broken")
	}
	if got := p.Backing.ReadU64(flagAddr); got != 7 {
		t.Fatalf("flag = %d", got)
	}
	reader := p.Nodes[1].Tiles[0].Core
	if reader.HaltCode() != 7 {
		t.Fatalf("reader saw %d, want 7", reader.HaltCode())
	}
	if p.Stats.Get("node0.bridge.tx_packets") == 0 {
		t.Error("no inter-node bridge traffic for cross-node access")
	}
}

func TestLatencyProbeIntraNode(t *testing.T) {
	cfg := DefaultConfig(1, 1, 12)
	cfg.Core = CoreNone
	p := buildQuiet(t, cfg)
	lat := p.MeasureLatency(cache.GID{Node: 0, Tile: 0}, cache.GID{Node: 0, Tile: 11}, 1)
	// Paper Fig. 7: intra-node round trip ~100 cycles.
	if lat < 60 || lat > 140 {
		t.Fatalf("intra-node latency = %d, want ~100", lat)
	}
}

func TestLatencyProbeInterNodeRatio(t *testing.T) {
	// The paper's numbers are for 12-tile nodes (Fig. 7's 4x1x12 system).
	cfg := DefaultConfig(2, 1, 12)
	cfg.Core = CoreNone
	p := buildQuiet(t, cfg)
	intra := p.MeasureLatency(cache.GID{Node: 0, Tile: 0}, cache.GID{Node: 0, Tile: 7}, 1)
	inter := p.MeasureLatency(cache.GID{Node: 0, Tile: 0}, cache.GID{Node: 1, Tile: 7}, 2)
	// Paper: inter-node ~2.5x intra-node (250 vs 100 cycles).
	ratio := float64(inter) / float64(intra)
	if ratio < 1.8 || ratio > 3.5 {
		t.Fatalf("inter/intra latency ratio = %.2f (inter=%d intra=%d), want ~2.5", ratio, inter, intra)
	}
	if inter < 200 || inter > 320 {
		t.Fatalf("inter-node latency = %d, want ~250", inter)
	}
}

func TestLatencyMatrixNUMAStructure(t *testing.T) {
	cfg := DefaultConfig(2, 1, 2)
	cfg.Core = CoreNone
	p := buildQuiet(t, cfg)
	m := p.LatencyMatrix()
	intra, inter := p.LatencySummary(m)
	if !(inter > intra*1.8) {
		t.Fatalf("NUMA structure missing: intra=%.0f inter=%.0f", intra, inter)
	}
	txt := FormatHeatmap(m)
	if !strings.Contains(txt, "\n") || len(strings.Split(txt, "\n")) < 5 {
		t.Error("heatmap rendering broken")
	}
}

func TestDeterministicBuildAndRun(t *testing.T) {
	run := func() sim.Time {
		cfg := DefaultConfig(2, 1, 2)
		cfg.Core = CoreNone
		p := buildQuiet(t, cfg)
		p.MeasureLatency(cache.GID{Node: 0, Tile: 0}, cache.GID{Node: 1, Tile: 1}, 1)
		return p.Eng.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("prototype runs diverge: %d vs %d", a, b)
	}
}

func TestWorkloadPortTiming(t *testing.T) {
	cfg := DefaultConfig(1, 1, 2)
	cfg.Core = CoreNone
	p := buildQuiet(t, cfg)
	port := p.PortAt(cache.GID{Node: 0, Tile: 0})
	addr := p.Map.NodeDRAMBase(0) + 0x4000

	var first, second sim.Time
	sim.Go(p.Eng, "wl", func(proc *sim.Process) {
		s := proc.Now()
		port.Load(proc, addr, 8)
		first = proc.Now() - s
		s = proc.Now()
		port.Load(proc, addr, 8)
		second = proc.Now() - s
	})
	p.Run()
	if second >= first {
		t.Fatalf("L1 hit (%d) not faster than cold miss (%d)", second, first)
	}
	if first < 80 {
		t.Fatalf("cold miss = %d cycles, expected to include ~80-cycle DRAM", first)
	}
	if second != 1 {
		t.Fatalf("L1 hit = %d cycles, want 1", second)
	}
}

func TestWorkloadPortDataFlow(t *testing.T) {
	cfg := DefaultConfig(1, 1, 2)
	cfg.Core = CoreNone
	p := buildQuiet(t, cfg)
	a := p.PortAt(cache.GID{Node: 0, Tile: 0})
	b := p.PortAt(cache.GID{Node: 0, Tile: 1})
	addr := p.Map.NodeDRAMBase(0) + 0x8000

	var got uint64
	sim.Go(p.Eng, "wl", func(proc *sim.Process) {
		a.Store(proc, addr, 8, 0xC0FFEE)
		got = b.Load(proc, addr, 8)
	})
	p.Run()
	if got != 0xC0FFEE {
		t.Fatalf("cross-tile read = %#x", got)
	}
}

func TestAmoAtomicityUnderContention(t *testing.T) {
	cfg := DefaultConfig(1, 1, 4)
	cfg.Core = CoreNone
	p := buildQuiet(t, cfg)
	addr := p.Map.NodeDRAMBase(0) + 0xC000
	const perThread = 50
	for i := 0; i < 4; i++ {
		port := p.PortAt(cache.GID{Node: 0, Tile: i})
		sim.Go(p.Eng, "incr", func(proc *sim.Process) {
			for k := 0; k < perThread; k++ {
				port.Amo(proc, addr, 8, func(o uint64) uint64 { return o + 1 })
			}
		})
	}
	p.Run()
	if got := p.Backing.ReadU64(addr); got != 4*perThread {
		t.Fatalf("counter = %d, want %d", got, 4*perThread)
	}
}

func TestIndependentNodesDoNotShareMemory(t *testing.T) {
	cfg := DefaultConfig(1, 4, 2)
	cfg.UnifiedMemory = false
	cfg.Core = CoreNone
	p := buildQuiet(t, cfg)
	// Each node homes every address locally: no bridge traffic even for
	// "remote" region addresses.
	port := p.PortAt(cache.GID{Node: 0, Tile: 0})
	sim.Go(p.Eng, "wl", func(proc *sim.Process) {
		port.Load(proc, p.Map.NodeDRAMBase(0)+0x100, 8)
	})
	p.Run()
	if p.Stats.Get("node0.bridge.tx_packets") != 0 {
		t.Error("independent-node config generated bridge traffic")
	}
}

func TestCLINTTimerInterruptWakesCore(t *testing.T) {
	cfg := DefaultConfig(1, 1, 1)
	p := buildQuiet(t, cfg)
	host := p.Host()
	// Program: set mtimecmp via CLINT, enable MTIE, wfi, expect trap.
	prog := rvasm.MustAssemble(ResetPC, `
		la   t0, handler
		csrw mtvec, t0
		li   t0, 0xF002004000  # CLINT mtimecmp hart0
		li   t1, 3000
		sd   t1, 0(t0)
		li   t0, 128           # MTIE
		csrw mie, t0
		li   t0, 8
		csrs mstatus, t0
	spin:	j spin
	handler:
		li a0, 42
		ebreak
	`)
	host.LoadProgram(0, prog)
	p.Start()
	p.RunUntilHalted(1_000_000)
	c := p.Nodes[0].Tiles[0].Core
	if !c.Halted() || c.HaltCode() != 42 {
		t.Fatalf("timer interrupt not delivered: %s", c)
	}
	if p.Eng.Now() < 3000 {
		t.Fatal("halted before mtimecmp")
	}
}

// runHaltedAtOneAndTwoEngines runs prog until its harts halt on one engine
// and sharded across two, and requires both runs to end with byte-identical
// MetricsJSON (final cycle included). It returns the one-engine run.
func runHaltedAtOneAndTwoEngines(t *testing.T, cfg Config, prog *rvasm.Program) *Prototype {
	t.Helper()
	var serial *Prototype
	var want []byte
	for _, parallel := range []int{1, 2} {
		cfg.Parallel = parallel
		p := buildQuiet(t, cfg)
		t.Cleanup(p.Close)
		p.Host().LoadProgram(0, prog)
		p.Start()
		p.RunUntilHalted(5_000_000)
		got, err := p.MetricsJSON()
		if err != nil {
			t.Fatal(err)
		}
		if serial == nil {
			serial, want = p, got
			continue
		}
		if !bytes.Equal(want, got) {
			t.Errorf("MetricsJSON at %d engines differs from the one-engine run (cycle %d vs %d)",
				parallel, serial.Now(), p.Now())
		}
	}
	return serial
}

func TestSoftwareInterruptAcrossNodes(t *testing.T) {
	// Hart 0 on node 0 sends an IPI to hart 1 on node 1 through its local
	// CLINT window; the interrupt packetizer crosses the bridge. The IPI is
	// hart 0's last act, so the run must not stop while it is in flight.
	p := runHaltedAtOneAndTwoEngines(t, DefaultConfig(2, 1, 1), rvasm.MustAssemble(ResetPC, `
		csrr t0, mhartid
		bnez t0, receiver
		li   t0, 0xF002000004  # CLINT msip hart1 (node 0 window)
		li   t1, 1
		li   t2, 3000
	delay:	addi t2, t2, -1
		bnez t2, delay
		sw   t1, 0(t0)
		li   a0, 1
		ebreak
	receiver:
		la   t0, handler
		csrw mtvec, t0
		li   t0, 8             # MSIE
		csrw mie, t0
		li   t0, 8
		csrs mstatus, t0
	spin:	j spin
	handler:
		li   a0, 99
		ebreak
	`))
	rcv := p.Nodes[1].Tiles[0].Core
	if !rcv.Halted() || rcv.HaltCode() != 99 {
		t.Fatalf("cross-node IPI not delivered: %s", rcv)
	}
}

func TestRemoteStoreBeforeHaltDrains(t *testing.T) {
	// Hart 0's last act is a store to node 1's DRAM, still crossing the
	// bridge when the last hart halts: the run ends when it lands, at the
	// same cycle under every sharding.
	p := runHaltedAtOneAndTwoEngines(t, DefaultConfig(2, 1, 1), rvasm.MustAssemble(ResetPC, `
		csrr t0, mhartid
		bnez t0, done
		li   t0, 0xC0100000    # node 1's DRAM
		li   t1, 0x5A
		li   t2, 3000
	delay:	addi t2, t2, -1
		bnez t2, delay
		sd   t1, 0(t0)
	done:	li   a0, 0
		ebreak
	`))
	if !p.AllHalted() {
		t.Fatal("harts still running")
	}
	if got := p.Backing.ReadU64(0xC0100000); got != 0x5A {
		t.Fatalf("remote store landed %#x, want 0x5a", got)
	}
}

func TestPicoRV32CoreSlowerThanAriane(t *testing.T) {
	run := func(ct CoreType) sim.Time {
		cfg := DefaultConfig(1, 1, 1)
		cfg.Core = ct
		p := buildQuiet(t, cfg)
		host := p.Host()
		host.LoadProgram(0, rvasm.MustAssemble(ResetPC, `
			li t0, 500
		loop:	addi t0, t0, -1
			bnez t0, loop
			li a0, 0
			ebreak
		`))
		p.Start()
		return p.RunUntilHalted(10_000_000)
	}
	ariane := run(CoreAriane)
	pico := run(CorePicoRV32)
	// Both cores pay the same fetch path; the CPI difference shows on top.
	if float64(pico) < float64(ariane)*1.4 {
		t.Fatalf("PicoRV32 (%d) should be clearly slower than Ariane (%d)", pico, ariane)
	}
	c := DefaultConfig(1, 1, 1)
	c.Core = CoreType("z80")
	if err := c.Validate(); err == nil {
		t.Error("bogus core type accepted")
	}
}

func TestGlobalInterleaveHomingSpreadsHomes(t *testing.T) {
	cfg := DefaultConfig(2, 1, 2)
	cfg.Core = CoreNone
	cfg.GlobalInterleaveHoming = true
	p := buildQuiet(t, cfg)
	// With global interleaving, consecutive lines in node 0's DRAM home
	// alternately on node 0 and node 1.
	port := p.PortAt(cache.GID{Node: 0, Tile: 0})
	sim.Go(p.Eng, "wl", func(proc *sim.Process) {
		for i := uint64(0); i < 8; i++ {
			port.Load(proc, p.Map.NodeDRAMBase(0)+0x10000+i*64, 8)
		}
	})
	p.Run()
	if p.Stats.Get("node0.bridge.tx_packets") == 0 {
		t.Fatal("global-interleave homing produced no inter-node traffic for local addresses")
	}
}

func TestTracerRecordsCoherenceAndMMIO(t *testing.T) {
	cfg := DefaultConfig(1, 1, 2)
	cfg.Core = CoreNone
	p := buildQuiet(t, cfg)
	p.EnableTrace(256)
	tr := p.Nodes[0].Tracer
	port := p.PortAt(cache.GID{Node: 0, Tile: 0})
	sim.Go(p.Eng, "wl", func(proc *sim.Process) {
		port.Load(proc, p.Map.NodeDRAMBase(0)+0x7000, 8)
		port.MMIOLoad(proc, DevBase+DevCLINT+0xBFF8, 8) // CLINT mtime
	})
	p.Run()
	var sawCoherence, sawMMIO bool
	for _, ev := range tr.Events() {
		switch ev.Category {
		case "coherence":
			sawCoherence = true
		case "mmio":
			sawMMIO = true
		}
	}
	if !sawCoherence {
		t.Error("no coherence events traced")
	}
	if !sawMMIO {
		t.Error("no MMIO events traced")
	}
	if tr.String() == "" {
		t.Error("trace rendering empty")
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *sim.Tracer
	tr.EmitT("node0", "x", "should not panic")
	tr.Instant("node0", "x", "nor this")
	if tr.Len() != 0 || tr.Events() != nil {
		t.Error("nil tracer misbehaves")
	}
}

func TestMixedTopologySameFPGAFasterThanCross(t *testing.T) {
	// 2 FPGAs x 2 nodes: nodes 0,1 share FPGA 0 (AXI crossbar path);
	// node 2 sits on FPGA 1 (PCIe path). Inter-node latency must be
	// much lower inside the FPGA than across the PCIe fabric.
	cfg := DefaultConfig(2, 2, 2)
	cfg.Core = CoreNone
	p := buildQuiet(t, cfg)
	sameFPGA := p.MeasureLatency(cache.GID{Node: 0, Tile: 0}, cache.GID{Node: 1, Tile: 0}, 1)
	crossFPGA := p.MeasureLatency(cache.GID{Node: 0, Tile: 0}, cache.GID{Node: 2, Tile: 0}, 2)
	if sameFPGA >= crossFPGA {
		t.Fatalf("same-FPGA inter-node (%d) should beat cross-FPGA (%d)", sameFPGA, crossFPGA)
	}
	if crossFPGA-sameFPGA < 80 {
		t.Fatalf("PCIe crossing adds only %d cycles; expected ~125 RTT difference", crossFPGA-sameFPGA)
	}
}

func TestMixedTopologyCoherentAcrossBothPaths(t *testing.T) {
	cfg := DefaultConfig(2, 2, 1)
	cfg.Core = CoreNone
	p := buildQuiet(t, cfg)
	// One writer per node increments a counter homed on node 3 (far FPGA),
	// exercising crossbar and PCIe transport in one protocol.
	addr := p.Map.NodeDRAMBase(3) + 0x9000
	const each = 25
	for n := 0; n < 4; n++ {
		port := p.PortAt(cache.GID{Node: n, Tile: 0})
		sim.Go(p.Eng, "incr", func(proc *sim.Process) {
			for i := 0; i < each; i++ {
				port.Amo(proc, addr, 8, func(o uint64) uint64 { return o + 1 })
			}
		})
	}
	p.Run()
	if got := p.Backing.ReadU64(addr); got != 4*each {
		t.Fatalf("counter = %d, want %d (coherence broken across mixed topology)", got, 4*each)
	}
}

// runTelemetryWorkload builds a 2x1x4 CoreNone prototype with tracing and
// sampling enabled and drives cross-node traffic through it.
func runTelemetryWorkload(t *testing.T) *Prototype {
	t.Helper()
	cfg := DefaultConfig(2, 1, 4)
	cfg.Core = CoreNone
	p := buildQuiet(t, cfg)
	p.EnableTrace(1 << 16)
	p.EnableSampler(100)
	a := p.PortAt(cache.GID{Node: 0, Tile: 0})
	b := p.PortAt(cache.GID{Node: 1, Tile: 0})
	remote := p.Map.NodeDRAMBase(1) + 0x2000
	sim.Go(p.Eng, "wl0", func(proc *sim.Process) {
		for i := uint64(0); i < 32; i++ {
			a.Store(proc, remote+i*64, 8, i)
			a.Load(proc, p.Map.NodeDRAMBase(0)+i*64, 8)
		}
	})
	sim.Go(p.Eng, "wl1", func(proc *sim.Process) {
		for i := uint64(0); i < 32; i++ {
			b.Load(proc, p.Map.NodeDRAMBase(1)+0x8000+i*64, 8)
		}
	})
	p.Run()
	return p
}

func TestMetricsJSONEndToEnd(t *testing.T) {
	p := runTelemetryWorkload(t)
	out, err := p.MetricsJSON()
	if err != nil {
		t.Fatalf("MetricsJSON: %v", err)
	}
	var doc struct {
		Meta struct {
			FPGAs  int    `json:"fpgas"`
			Cycles uint64 `json:"cycles"`
			Seed   uint64 `json:"seed"`
		} `json:"meta"`
		Stats struct {
			Counters   map[string]uint64 `json:"counters"`
			Gauges     map[string]any    `json:"gauges"`
			Histograms map[string]struct {
				Samples uint64 `json:"samples"`
				P50     uint64 `json:"p50"`
				P95     uint64 `json:"p95"`
				P99     uint64 `json:"p99"`
			} `json:"histograms"`
		} `json:"stats"`
		Samples struct {
			Rows [][]uint64 `json:"rows"`
		} `json:"samples"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("invalid metrics JSON: %v", err)
	}
	if doc.Meta.FPGAs != 2 || doc.Meta.Cycles == 0 {
		t.Fatalf("bad meta: %+v", doc.Meta)
	}
	// Per-node merged cache histograms with percentiles.
	for _, node := range []string{"node0", "node1"} {
		h, ok := doc.Stats.Histograms[node+".bpc.miss_latency"]
		if !ok || h.Samples == 0 {
			t.Fatalf("missing merged histogram for %s (have %d histograms)", node, len(doc.Stats.Histograms))
		}
		if h.P50 == 0 || h.P95 < h.P50 || h.P99 < h.P95 {
			t.Fatalf("%s percentiles not ordered: %+v", node, h)
		}
	}
	// Per-link NoC counters were flushed.
	found := false
	for name := range doc.Stats.Counters {
		if strings.Contains(name, ".link") && strings.HasSuffix(name, ".flits") {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no per-link flit counters in metrics JSON")
	}
	if len(doc.Samples.Rows) == 0 {
		t.Fatal("sampler recorded no rows")
	}
}

func TestMetricsAndTraceDeterministic(t *testing.T) {
	render := func() ([]byte, []byte) {
		p := runTelemetryWorkload(t)
		m, err := p.MetricsJSON()
		if err != nil {
			t.Fatalf("MetricsJSON: %v", err)
		}
		var buf bytes.Buffer
		if err := p.WriteTrace(&buf); err != nil {
			t.Fatalf("WriteTrace: %v", err)
		}
		return m, buf.Bytes()
	}
	m1, t1 := render()
	m2, t2 := render()
	if !bytes.Equal(m1, m2) {
		t.Fatal("same-seed metrics JSON differs between runs")
	}
	if !bytes.Equal(t1, t2) {
		t.Fatal("same-seed trace differs between runs")
	}
	// Report (which also flushes telemetry) must be idempotent: a second
	// flush must not double-count the merged histograms or link counters.
	p := runTelemetryWorkload(t)
	r1 := p.Report()
	r2 := p.Report()
	if r1 != r2 {
		t.Fatal("Report is not idempotent")
	}
}

func TestPrototypeTraceHasPerNodeTracks(t *testing.T) {
	p := runTelemetryWorkload(t)
	var buf bytes.Buffer
	if err := p.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			PID  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	procs := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Name == "process_name" {
			procs[ev.Args["name"].(string)] = true
		}
	}
	if !procs["node0"] || !procs["node1"] {
		t.Fatalf("want node0 and node1 process tracks, got %v", procs)
	}
}
