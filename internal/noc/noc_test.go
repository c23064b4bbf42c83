package noc

import (
	"testing"
	"testing/quick"

	"smappic/internal/sim"
)

func newTestMesh(t *testing.T, w, h int) (*sim.Engine, *Mesh) {
	t.Helper()
	return newTimedMesh(t, DefaultParams(w, h))
}

// newTimedMesh builds a mesh at explicit timing. The mechanics tests below
// run at router/link delay 2/1, the figures their expected latencies are
// worked out in; they test the timing rules, not the prototype's constants.
func newTimedMesh(t *testing.T, p Params) (*sim.Engine, *Mesh) {
	t.Helper()
	eng := sim.NewEngine()
	m := New(eng, "mesh", p, &sim.Stats{})
	return eng, m
}

func TestHopCountManhattan(t *testing.T) {
	_, m := newTestMesh(t, 4, 3)
	cases := []struct {
		src, dst int
		want     int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, 3, 3},  // same row, 3 east
		{0, 11, 5}, // 3 east + 2 south
		{11, 0, 5},
		{5, 6, 1},
	}
	for _, c := range cases {
		got := m.HopCount(Dest{PortTile, c.src}, Dest{PortTile, c.dst})
		if got != c.want {
			t.Errorf("HopCount(%d->%d) = %d, want %d", c.src, c.dst, got, c.want)
		}
	}
}

func TestHopCountExitPorts(t *testing.T) {
	_, m := newTestMesh(t, 4, 3)
	// Tile 5 -> bridge: 5 is at (1,1); to tile 0 is 2 hops, plus exit link.
	if got := m.HopCount(Dest{PortTile, 5}, Dest{Port: PortBridge}); got != 3 {
		t.Errorf("tile5->bridge hops = %d, want 3", got)
	}
	if got := m.HopCount(Dest{Port: PortBridge}, Dest{PortTile, 5}); got != 3 {
		t.Errorf("bridge->tile5 hops = %d, want 3", got)
	}
	if got := m.HopCount(Dest{Port: PortChipset}, Dest{Port: PortBridge}); got != 2 {
		t.Errorf("chipset->bridge hops = %d, want 2", got)
	}
}

func TestDeliveryLatencyMatchesHops(t *testing.T) {
	eng, m := newTimedMesh(t, Params{RouterDelay: 2, LinkDelay: 1, Width: 4, Height: 3})
	var at sim.Time
	m.AttachTile(11, func(p *Packet) { at = eng.Now() })
	m.Send(&Packet{Class: NoC1, Src: Dest{PortTile, 0}, Dst: Dest{PortTile, 11}, Flits: 1})
	eng.Run()
	// 5 hops x (2 router + 1 link) = 15 cycles.
	if at != 15 {
		t.Fatalf("delivery at %d, want 15", at)
	}
}

func TestSamePortDeliveryTakesRouterDelay(t *testing.T) {
	eng, m := newTimedMesh(t, Params{RouterDelay: 2, LinkDelay: 1, Width: 2, Height: 1})
	var at sim.Time
	m.AttachTile(0, func(p *Packet) { at = eng.Now() })
	m.Send(&Packet{Class: NoC2, Src: Dest{PortTile, 0}, Dst: Dest{PortTile, 0}, Flits: 1})
	eng.Run()
	if at != 2 {
		t.Fatalf("self delivery at %d, want 2", at)
	}
}

func TestLinkContentionSerializes(t *testing.T) {
	eng, m := newTimedMesh(t, Params{RouterDelay: 2, LinkDelay: 1, Width: 2, Height: 1})
	var times []sim.Time
	m.AttachTile(1, func(p *Packet) { times = append(times, eng.Now()) })
	// Two 8-flit packets over the same single link, injected the same cycle.
	for i := 0; i < 2; i++ {
		m.Send(&Packet{Class: NoC1, Src: Dest{PortTile, 0}, Dst: Dest{PortTile, 1}, Flits: 8})
	}
	eng.Run()
	if len(times) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(times))
	}
	// First: 3 cycles hop latency. Second: queued behind 8 flits.
	if times[0] != 3 {
		t.Errorf("first delivery at %d, want 3", times[0])
	}
	if times[1] != 11 {
		t.Errorf("second delivery at %d, want 11 (3 + 8 flit serialization)", times[1])
	}
}

func TestClassesAreIndependentNetworks(t *testing.T) {
	eng, m := newTimedMesh(t, Params{RouterDelay: 2, LinkDelay: 1, Width: 2, Height: 1})
	var times []sim.Time
	m.AttachTile(1, func(p *Packet) { times = append(times, eng.Now()) })
	m.Send(&Packet{Class: NoC1, Src: Dest{PortTile, 0}, Dst: Dest{PortTile, 1}, Flits: 8})
	m.Send(&Packet{Class: NoC2, Src: Dest{PortTile, 0}, Dst: Dest{PortTile, 1}, Flits: 8})
	eng.Run()
	if len(times) != 2 || times[0] != 3 || times[1] != 3 {
		t.Fatalf("cross-class interference: deliveries at %v, want [3 3]", times)
	}
}

func TestDeliveryOrderPreservedOnSamePath(t *testing.T) {
	eng, m := newTestMesh(t, 4, 1)
	var order []int
	m.AttachTile(3, func(p *Packet) { order = append(order, p.Payload.(int)) })
	for i := 0; i < 5; i++ {
		m.Send(&Packet{Class: NoC1, Src: Dest{PortTile, 0}, Dst: Dest{PortTile, 3}, Flits: 2, Payload: i})
	}
	eng.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("packets reordered on same path: %v", order)
		}
	}
}

func TestStatsRecorded(t *testing.T) {
	eng := sim.NewEngine()
	var st sim.Stats
	m := New(eng, "n0", DefaultParams(2, 2), &st)
	m.AttachTile(3, func(p *Packet) {})
	m.Send(&Packet{Class: NoC1, Src: Dest{PortTile, 0}, Dst: Dest{PortTile, 3}, Flits: 3})
	eng.Run()
	if st.Get("n0.noc1.packets") != 1 {
		t.Error("packet counter not incremented")
	}
	if st.Get("n0.noc1.flits") != 3 {
		t.Error("flit counter wrong")
	}
	if st.Get("n0.noc1.hop_cycles") == 0 {
		t.Error("hop_cycles not recorded")
	}
}

func TestMissingHandlerPanics(t *testing.T) {
	eng, m := newTestMesh(t, 2, 1)
	m.Send(&Packet{Class: NoC1, Src: Dest{PortTile, 0}, Dst: Dest{PortTile, 1}, Flits: 1})
	defer func() {
		if recover() == nil {
			t.Error("delivery without handler did not panic")
		}
	}()
	eng.Run()
}

func TestZeroFlitPacketPanics(t *testing.T) {
	_, m := newTestMesh(t, 2, 1)
	defer func() {
		if recover() == nil {
			t.Error("zero-flit send did not panic")
		}
	}()
	m.Send(&Packet{Class: NoC1, Src: Dest{PortTile, 0}, Dst: Dest{PortTile, 1}})
}

// Property: hop count is symmetric and satisfies the triangle inequality on
// a mesh with XY routing (XY paths are shortest paths, so both hold).
func TestHopCountProperties(t *testing.T) {
	_, m := newTestMesh(t, 4, 3)
	n := m.Tiles()
	f := func(a, b, c uint8) bool {
		ta, tb, tc := int(a)%n, int(b)%n, int(c)%n
		da, db, dc := Dest{PortTile, ta}, Dest{PortTile, tb}, Dest{PortTile, tc}
		ab := m.HopCount(da, db)
		ba := m.HopCount(db, da)
		ac := m.HopCount(da, dc)
		cb := m.HopCount(dc, db)
		return ab == ba && ab <= ac+cb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: every packet injected is delivered exactly once.
func TestAllPacketsDelivered(t *testing.T) {
	f := func(seed uint64) bool {
		eng := sim.NewEngine()
		m := New(eng, "m", DefaultParams(4, 3), &sim.Stats{})
		rng := sim.NewRNG(seed)
		got := 0
		for i := 0; i < m.Tiles(); i++ {
			m.AttachTile(i, func(p *Packet) { got++ })
		}
		sent := 50
		for i := 0; i < sent; i++ {
			m.Send(&Packet{
				Class: Class(rng.Intn(3)),
				Src:   Dest{PortTile, rng.Intn(m.Tiles())},
				Dst:   Dest{PortTile, rng.Intn(m.Tiles())},
				Flits: 1 + rng.Intn(9),
			})
		}
		eng.Run()
		return got == sent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// A multi-hop NoC traversal must not allocate beyond the packet the caller
// owns: the XY walk visits links without building a route slice, delivery
// rides the mesh's one bound callback through the engine's pooled events,
// and per-link totals accumulate in flat arrays. The test reuses one packet
// so any allocation it sees comes from the mesh or the engine.
func TestSendHopZeroAlloc(t *testing.T) {
	eng, m := newTestMesh(t, 4, 3)
	delivered := 0
	for i := 0; i < m.Tiles(); i++ {
		m.AttachTile(i, func(p *Packet) { delivered++ })
	}
	pkt := &Packet{Class: NoC1, Src: Dest{PortTile, 0}, Dst: Dest{PortTile, 11}, Flits: 3}
	m.Send(pkt)
	eng.Run()
	if avg := testing.AllocsPerRun(500, func() {
		m.Send(pkt)
		eng.Run()
	}); avg != 0 {
		t.Fatalf("NoC hop allocates %.2f/op at steady state, want 0", avg)
	}
	if delivered == 0 {
		t.Fatal("packets never delivered")
	}
}

// A caller's packet is copied into an entry the mesh owns, so a packet built
// on the caller's stack, sent and delivered, allocates nothing once the
// mesh's free list is warm. The handler sees the copy: what the caller does
// with its packet after Send does not reach it, and the mesh recycles its
// entry only after the handler returns.
func TestSendCopiesCallersPacketZeroAlloc(t *testing.T) {
	eng, m := newTestMesh(t, 4, 3)
	type msg struct{ n int }
	payload := &msg{}
	var got []int
	m.AttachTile(11, func(p *Packet) {
		got = append(got[:0], p.Flits, p.Payload.(*msg).n)
		m.Send(&Packet{Class: NoC2, Src: p.Dst, Dst: Dest{PortTile, 5}, Flits: 1, Payload: p.Payload})
		if p.Flits != got[0] || p.Payload != payload {
			t.Errorf("the delivered packet changed during its handler: %+v", *p)
		}
	})
	m.AttachTile(5, func(p *Packet) { payload.n++ })
	send := func() {
		pkt := Packet{Class: NoC1, Src: Dest{PortTile, 0}, Dst: Dest{PortTile, 11}, Flits: 3, Payload: payload}
		m.Send(&pkt)
		pkt.Flits, pkt.Payload = 9, nil // the mesh holds a copy
		eng.Run()
	}
	for i := 0; i < 4; i++ {
		send()
	}
	if len(got) != 2 || got[0] != 3 {
		t.Fatalf("delivered flits %v, want 3 as sent", got)
	}
	if avg := testing.AllocsPerRun(500, send); avg != 0 {
		t.Fatalf("Send+deliver of a caller's packet allocates %.2f/op at steady state, want 0", avg)
	}
	if payload.n != 4+501 {
		t.Errorf("second hop delivered %d times, want %d", payload.n, 4+501)
	}
}
