package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"smappic/internal/cache"
	"smappic/internal/noc"
	"smappic/internal/sim"
)

// mallocs counts the heap allocations f makes, whole rather than averaged
// as testing.AllocsPerRun does.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestInterNodeMessageAllocations pins the inter-node
// message path of a real prototype: Node.send wraps the payload in an
// envelope, the source mesh carries it to the bridge, the bridge
// encapsulates it into chunk writes that cross the interconnect (node 0 to
// node 1, same FPGA) or the interconnect, the shell and the PCIe fabric
// (node 0 to node 2), and the destination bridge injects it into its mesh
// toward the tile. Enough messages are sent that the sender runs out of
// credits, so the credit-return reads and the stalled packets' drain run
// inside the measurement too. Once the pools are warm, a message allocates
// its envelope and nothing else, and a credit read its 8-byte answer
// (bridge.returnCredits).
func TestInterNodeMessageAllocations(t *testing.T) {
	for _, tc := range []struct {
		name string
		dst  int
	}{{"same FPGA", 1}, {"cross FPGA", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(2, 2, 2)
			cfg.Core = CoreNone
			p := buildQuiet(t, cfg)
			delivered, sent := 0, 0
			msg := &mmioResp{done: func(uint64) { delivered++ }}
			src := p.Nodes[0]
			// A lost message would leave the sender polling for credits
			// forever; the bound turns that into a short count below.
			var limit sim.Time
			stop := func() bool { return p.Now() >= limit }
			send := func() {
				for i := 0; i < 8; i++ {
					src.send(noc.NoC2, noc.Dest{Port: noc.PortTile, Tile: 0},
						tc.dst, noc.Dest{Port: noc.PortTile, Tile: 1}, 2, msg)
				}
				sent += 8
				limit = p.Now() + 100_000
				p.run(stop)
			}
			creditReads := func() uint64 {
				p.Stats.CopyFrom(p.nodeStats...)
				return p.Stats.Get("node0.bridge.credit_reads")
			}
			// One P and no collector from the warm-up on: a sync.Pool
			// keeps its records per P and a collection empties it, so
			// either would make a warm pool allocate inside the count.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			for i := 0; i < 100; i++ {
				send()
			}
			reads, msgs := creditReads(), sent
			allocs := mallocs(func() {
				for i := 0; i < 50; i++ {
					send()
				}
			})
			reads, msgs = creditReads()-reads, sent-msgs
			if reads == 0 {
				t.Error("the sender never read credits back: the credit path went unmeasured")
			}
			if want := uint64(msgs) + reads; !raceEnabled && allocs != want {
				t.Errorf("%d messages and %d credit reads node 0 -> node %d: %d allocations, want %d",
					msgs, reads, tc.dst, allocs, want)
			}
			if delivered != sent {
				t.Errorf("delivered %d messages, want %d", delivered, sent)
			}
			if p.StallDiagnosis != "" {
				t.Errorf("run drained wedged:\n%s", p.StallDiagnosis)
			}
		})
	}
}

// accessAllocs runs round warm times on one process of p, then measured
// times more inside the count, and returns the allocations of the measured
// rounds together with the growth of each named counter over them. The
// count runs inside the process, on one P with the collector off (as in
// TestInterNodeMessageAllocations), so starting the process stays outside
// it while every event the rounds cause runs inside.
func accessAllocs(p *Prototype, warm, measured int, round func(*sim.Process), counters ...string) (allocs uint64, grew map[string]uint64) {
	read := func() map[string]uint64 {
		m := make(map[string]uint64, len(counters))
		for _, name := range counters {
			for _, st := range p.nodeStats {
				m[name] += st.Get(name)
			}
		}
		return m
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	sim.Go(p.Eng, "pin", func(proc *sim.Process) {
		for i := 0; i < warm; i++ {
			round(proc)
		}
		before := read()
		allocs = mallocs(func() {
			for i := 0; i < measured; i++ {
				round(proc)
			}
		})
		grew = read()
		for name, v := range before {
			grew[name] -= v
		}
	})
	p.Run()
	return allocs, grew
}

// pingPong is a round of two misses on one line: tile a loads it (its copy
// was invalidated, so the load misses and the home downgrades b's M copy),
// then tile b stores to it (b holds it shared, so the store misses and the
// home invalidates a's copy). No line is ever evicted.
func pingPong(p *Prototype, a, b cache.GID, addr uint64) func(*sim.Process) {
	pa, pb := p.PortAt(a), p.PortAt(b)
	return func(proc *sim.Process) {
		pa.Load(proc, addr, 8)
		pb.Store(proc, addr, 8, 1)
	}
}

// An L1 miss homed on the requester's own node allocates nothing once warm:
// the MSHR, the BPC lookup, the request (which comes back as its grant) and
// the home's probe (which comes back as its ack) are all recycled records.
func TestLocalMissAllocatesNothing(t *testing.T) {
	cfg := DefaultConfig(1, 1, 2)
	cfg.Core = CoreNone
	p := buildQuiet(t, cfg)
	a, b := cache.GID{Node: 0, Tile: 0}, cache.GID{Node: 0, Tile: 1}
	allocs, grew := accessAllocs(p, 50, 100, pingPong(p, a, b, p.Map.NodeDRAMBase(0)+0x1000),
		"node0.tile0.bpc.bpc_miss", "node0.tile1.bpc.bpc_miss")
	if grew["node0.tile0.bpc.bpc_miss"] != 100 || grew["node0.tile1.bpc.bpc_miss"] != 100 {
		t.Fatalf("misses %v, want 100 on each tile", grew)
	}
	if !raceEnabled && allocs != 0 {
		t.Errorf("200 local misses: %d allocations, want 0", allocs)
	}
}

// An L1 miss homed on another node allocates its messages' envelopes and
// nothing else: each message crossing the bridge carries one (the inter-node
// message path's one allocation), plus a credit read's answer if the
// sender runs short of credits.
func TestRemoteMissAllocatesOnlyEnvelopes(t *testing.T) {
	cfg := DefaultConfig(2, 2, 2)
	cfg.Core = CoreNone
	p := buildQuiet(t, cfg)
	a, b := cache.GID{Node: 0, Tile: 0}, cache.GID{Node: 0, Tile: 1}
	allocs, grew := accessAllocs(p, 50, 100, pingPong(p, a, b, p.Map.NodeDRAMBase(1)+0x1000),
		"node0.tile0.bpc.bpc_miss", "node0.tile1.bpc.bpc_miss", "node0.bridge.tx_packets",
		"node1.bridge.tx_packets", "node0.bridge.credit_reads", "node1.bridge.credit_reads")
	if grew["node0.tile0.bpc.bpc_miss"] != 100 || grew["node0.tile1.bpc.bpc_miss"] != 100 {
		t.Fatalf("misses %v, want 100 on each tile", grew)
	}
	// Each miss is four crossings: request, probe, probe answer, grant.
	envelopes := grew["node0.bridge.tx_packets"] + grew["node1.bridge.tx_packets"]
	if envelopes != 800 {
		t.Fatalf("%d bridge packets for 200 remote misses, want 800", envelopes)
	}
	want := envelopes + grew["node0.bridge.credit_reads"] + grew["node1.bridge.credit_reads"]
	if !raceEnabled && allocs != want {
		t.Errorf("200 remote misses: %d allocations, want %d (envelopes and credit reads)", allocs, want)
	}
}

// A miss coalesced onto an MSHR already in flight parks as a record in the
// MSHR's waiters and allocates nothing.
func TestCoalescedMissAllocatesNothing(t *testing.T) {
	cfg := DefaultConfig(1, 1, 2)
	cfg.Core = CoreNone
	p := buildQuiet(t, cfg)
	a, b := cache.GID{Node: 0, Tile: 0}, cache.GID{Node: 0, Tile: 1}
	addr := p.Map.NodeDRAMBase(0) + 0x1000
	first := p.Tile(a).Priv
	noop := func() {}
	ping := pingPong(p, a, b, addr)
	round := func(proc *sim.Process) {
		first.Load(addr, noop) // opens the MSHR the port's load joins
		ping(proc)
	}
	allocs, grew := accessAllocs(p, 50, 100, round, "node0.tile0.bpc.mshr_coalesce")
	if grew["node0.tile0.bpc.mshr_coalesce"] != 100 {
		t.Fatalf("coalesced %d accesses, want 100", grew["node0.tile0.bpc.mshr_coalesce"])
	}
	if !raceEnabled && allocs != 0 {
		t.Errorf("100 coalesced misses: %d allocations, want 0", allocs)
	}
}

// An LLC miss filled from DRAM allocates nothing: the slice's memory
// request comes back as its response, and the controller's issue record and
// the DRAM's access record are recycled. Five lines share one LLC set (and
// one BPC set), so every load misses the four-way LLC, and the eviction's
// back-invalidation clears the private copy before the fill lands, so the
// BPC never evicts (a Put is the one message that allocates).
func TestLLCMissFromDRAMAllocatesNothing(t *testing.T) {
	cfg := DefaultConfig(1, 1, 2)
	cfg.Core = CoreNone
	p := buildQuiet(t, cfg)
	port := p.PortAt(cache.GID{Node: 0, Tile: 0})
	stride := uint64(cfg.Cache.LLCSliceSize / cache.Ways) // one LLC set apart, homed on tile 0
	base := p.Map.NodeDRAMBase(0)
	next := 0
	round := func(proc *sim.Process) {
		port.Load(proc, base+uint64(1+next%5)*stride, 8)
		next++
	}
	allocs, grew := accessAllocs(p, 50, 100, round, "node0.tile0.llc.llc_miss", "node0.dram.reads")
	if grew["node0.tile0.llc.llc_miss"] != 100 || grew["node0.dram.reads"] != 100 {
		t.Fatalf("LLC misses and DRAM reads %v, want 100 each", grew)
	}
	if !raceEnabled && allocs != 0 {
		t.Errorf("100 LLC misses: %d allocations, want 0", allocs)
	}
}

// An MMIO load round trip from a Port allocates nothing: the port's one
// request record carries the access to the device and its answer back.
func TestMMIORoundTripAllocatesNothing(t *testing.T) {
	cfg := DefaultConfig(1, 1, 2)
	cfg.Core = CoreNone
	p := buildQuiet(t, cfg)
	port := p.PortAt(cache.GID{Node: 0, Tile: 0})
	var last uint64
	round := func(proc *sim.Process) {
		if v := port.MMIOLoad(proc, DevBase+DevCLINT+0xBFF8, 8); v <= last {
			t.Errorf("mtime read %d after %d", v, last)
		} else {
			last = v
		}
	}
	allocs, _ := accessAllocs(p, 50, 100, round)
	if !raceEnabled && allocs != 0 {
		t.Errorf("100 MMIO loads: %d allocations, want 0", allocs)
	}
}
