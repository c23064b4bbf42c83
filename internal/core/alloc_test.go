package core

import (
	"runtime"
	"runtime/debug"
	"testing"

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
