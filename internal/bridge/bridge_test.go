package bridge

import (
	"reflect"
	"testing"

	"smappic/internal/axi"
	"smappic/internal/ckpt"
	"smappic/internal/fault"
	"smappic/internal/noc"
	"smappic/internal/pcie"
	"smappic/internal/shell"
	"smappic/internal/sim"
)

// pair builds two nodes (one 2x1 mesh each) on two FPGAs connected through
// shells and the PCIe fabric, with a bridge on each node.
type pair struct {
	eng    *sim.Engine
	fab    *pcie.Fabric
	meshes [2]*noc.Mesh
	bs     [2]*Bridge
	stats  *sim.Stats
}

// newPair wires the pair; faults, when non-empty, is the fault plan the
// fabric and both bridges resolve their sites against.
func newPair(t *testing.T, p Params, faults string) *pair {
	t.Helper()
	eng := sim.NewEngine()
	var stats sim.Stats
	inj := fault.NewInjector(fault.MustParse(faults, 5))
	fab := pcie.New(sim.NewSerialNet(eng), inj)
	pr := &pair{eng: eng, fab: fab, stats: &stats}
	var shells [2]*shell.Shell
	for i := 0; i < 2; i++ {
		fab.Bind(i, eng, &stats)
		shells[i] = shell.New(eng, fab, i, &stats)
		pr.meshes[i] = noc.New(eng, "mesh", noc.DefaultParams(2, 1), &stats)
		pr.bs[i] = New(eng, pr.meshes[i], i, 2, p, &stats, "bridge")
		pr.bs[i].SetInjector(inj)
	}
	for i := 0; i < 2; i++ {
		shells[i].SetCustomLogic(pr.bs[i].Inbound())
		out := shells[i].Outbound()
		pr.bs[i].ConnectOut(out, func(dst int) axi.Addr {
			base, _ := fab.Window(dst)
			return base
		})
	}
	return pr
}

// send pushes an envelope from node src tile 0 into the mesh toward the
// bridge port.
func (p *pair) send(src, dst, dstTile, flits int, payload any) {
	p.meshes[src].Send(&noc.Packet{
		Class: noc.NoC1,
		Src:   noc.Dest{Port: noc.PortTile, Tile: 0},
		Dst:   noc.Dest{Port: noc.PortBridge},
		Flits: flits,
		Payload: &Envelope{
			SrcNode: src, DstNode: dst, DstTile: dstTile,
			Class: noc.NoC1, Flits: flits, Payload: payload,
		},
	})
}

func TestCrossFPGADelivery(t *testing.T) {
	p := newPair(t, DefaultParams(), "")
	var got any
	var at sim.Time
	p.meshes[1].AttachTile(1, func(pkt *noc.Packet) { got = pkt.Payload; at = p.eng.Now() })
	p.send(0, 1, 1, 3, "hello")
	p.eng.Run()
	if got != "hello" {
		t.Fatalf("payload = %v, want hello", got)
	}
	// One-way: mesh + bridge 5 + PCIe ~63 + bridge 5 + mesh: ~80-95 cycles.
	if at < 70 || at > 110 {
		t.Fatalf("one-way inter-node latency = %d, want ~80-95", at)
	}
}

func TestMultiChunkPacketArrivesOnce(t *testing.T) {
	p := newPair(t, DefaultParams(), "")
	deliveries := 0
	p.meshes[1].AttachTile(0, func(pkt *noc.Packet) {
		deliveries++
		if pkt.Flits != 9 {
			t.Errorf("flits = %d, want 9", pkt.Flits)
		}
	})
	p.send(0, 1, 0, 9, "data") // 9 flits = 3 AXI writes
	p.eng.Run()
	if deliveries != 1 {
		t.Fatalf("delivered %d times, want 1", deliveries)
	}
	if p.stats.Get("bridge.tx_packets") != 1 {
		t.Error("tx_packets != 1")
	}
}

func TestOrderPreservedSameDestination(t *testing.T) {
	p := newPair(t, DefaultParams(), "")
	var order []int
	p.meshes[1].AttachTile(1, func(pkt *noc.Packet) { order = append(order, pkt.Payload.(int)) })
	for i := 0; i < 10; i++ {
		p.send(0, 1, 1, 3, i)
	}
	p.eng.Run()
	if len(order) != 10 {
		t.Fatalf("delivered %d, want 10", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("reordered: %v", order)
		}
	}
}

func TestCreditExhaustionStallsThenRecovers(t *testing.T) {
	p := DefaultParams()
	p.CreditsPerDst = 9 // room for just one 9-flit packet
	pr := newPair(t, p, "")
	got := 0
	pr.meshes[1].AttachTile(0, func(pkt *noc.Packet) { got++ })
	for i := 0; i < 5; i++ {
		pr.send(0, 1, 0, 9, i)
	}
	pr.eng.Run()
	if got != 5 {
		t.Fatalf("delivered %d, want 5 after credit recovery", got)
	}
	if pr.stats.Get("bridge.credit_stall") == 0 {
		t.Error("expected credit stalls")
	}
	if pr.stats.Get("bridge.credit_reads") == 0 {
		t.Error("expected credit-return reads")
	}
}

func TestCreditsNeverGoNegative(t *testing.T) {
	p := DefaultParams()
	p.CreditsPerDst = 12
	pr := newPair(t, p, "")
	pr.meshes[1].AttachTile(0, func(pkt *noc.Packet) {})
	for i := 0; i < 50; i++ {
		pr.send(0, 1, 0, 3, i)
	}
	pr.eng.Run()
	for dst := range pr.bs[0].peers {
		if c := pr.bs[0].Credits(dst); c < 0 {
			t.Fatalf("credits[%d] = %d, negative", dst, c)
		}
	}
}

func TestBidirectionalTraffic(t *testing.T) {
	pr := newPair(t, DefaultParams(), "")
	a, b := 0, 0
	pr.meshes[0].AttachTile(0, func(pkt *noc.Packet) { a++ })
	pr.meshes[1].AttachTile(0, func(pkt *noc.Packet) { b++ })
	for i := 0; i < 20; i++ {
		pr.send(0, 1, 0, 3, i)
		pr.send(1, 0, 0, 3, i)
	}
	pr.eng.Run()
	if a != 20 || b != 20 {
		t.Fatalf("delivered a=%d b=%d, want 20/20", a, b)
	}
}

func TestShaperSlowsInterNodeLink(t *testing.T) {
	fast := newPair(t, DefaultParams(), "")
	var fastAt sim.Time
	fast.meshes[1].AttachTile(0, func(*noc.Packet) { fastAt = fast.eng.Now() })
	fast.send(0, 1, 0, 3, nil)
	fast.eng.Run()

	p := DefaultParams()
	p.ExtraLatency = 500 // model e.g. a slower Ampere-Altra-class link
	slow := newPair(t, p, "")
	var slowAt sim.Time
	slow.meshes[1].AttachTile(0, func(*noc.Packet) { slowAt = slow.eng.Now() })
	slow.send(0, 1, 0, 3, nil)
	slow.eng.Run()

	if slowAt < fastAt+400 {
		t.Fatalf("shaper ineffective: fast=%d slow=%d", fastAt, slowAt)
	}
}

// nodeSwitch routes an AXI transaction to one of two bridges by the node
// bits of its address, after a fixed traversal latency: the least an
// intra-FPGA interconnect does (core's icMaster is the real one).
type nodeSwitch struct {
	eng *sim.Engine
	in  [2]axi.Target
}

func (x *nodeSwitch) Do(t *axi.Txn, done func(axi.Resp)) {
	x.eng.Schedule(2, func() { x.in[t.Addr>>24&1].Do(t, done) })
}

func TestSameFPGABridgeDelivery(t *testing.T) {
	// Two nodes in one FPGA connected by an address-decoding switch instead
	// of PCIe (the 1x4x2-style configuration).
	eng := sim.NewEngine()
	var stats sim.Stats
	sw := &nodeSwitch{eng: eng}
	var meshes [2]*noc.Mesh
	var bs [2]*Bridge
	for i := 0; i < 2; i++ {
		meshes[i] = noc.New(eng, "mesh", noc.DefaultParams(2, 1), &stats)
		bs[i] = New(eng, meshes[i], i, 2, DefaultParams(), &stats, "bridge")
		sw.in[i] = bs[i].Inbound()
	}
	for i := 0; i < 2; i++ {
		bs[i].ConnectOut(sw, func(dst int) axi.Addr { return axi.Addr(uint64(dst) << 24) })
	}
	var at sim.Time
	meshes[1].AttachTile(1, func(pkt *noc.Packet) { at = eng.Now() })
	meshes[0].Send(&noc.Packet{
		Class: noc.NoC1,
		Src:   noc.Dest{Port: noc.PortTile, Tile: 0},
		Dst:   noc.Dest{Port: noc.PortBridge},
		Flits: 3,
		Payload: &Envelope{
			SrcNode: 0, DstNode: 1, DstTile: 1,
			Class: noc.NoC1, Flits: 3, Payload: "x",
		},
	})
	eng.Run()
	if at == 0 {
		t.Fatal("same-FPGA inter-node packet not delivered")
	}
	// The switched path should be far faster than PCIe (~63 cycles one way).
	if at > 40 {
		t.Fatalf("same-FPGA inter-node latency = %d, want < 40", at)
	}
}

func TestUnconnectedBridgePanics(t *testing.T) {
	eng := sim.NewEngine()
	mesh := noc.New(eng, "mesh", noc.DefaultParams(2, 1), &sim.Stats{})
	New(eng, mesh, 0, 2, DefaultParams(), &sim.Stats{}, "bridge")
	mesh.Send(&noc.Packet{
		Class:   noc.NoC1,
		Src:     noc.Dest{Port: noc.PortTile, Tile: 0},
		Dst:     noc.Dest{Port: noc.PortBridge},
		Flits:   3,
		Payload: &Envelope{DstNode: 1, Flits: 3},
	})
	defer func() {
		if recover() == nil {
			t.Error("unconnected bridge did not panic")
		}
	}()
	eng.Run()
}

// TestLostCreditUpdateCostsOnePoll: a credit read is answered with the
// receiver's running total, so an answer lost at the receive side leaks
// nothing — the sender's next poll reads the total it missed — and nothing
// keeps a drained pair's clock running past its last delivery.
func TestLostCreditUpdateCostsOnePoll(t *testing.T) {
	p := DefaultParams()
	p.CreditsPerDst = 9 // room for just one 9-flit packet
	run := func(faults string) (got int, last, drained sim.Time, pr *pair) {
		pr = newPair(t, p, faults)
		pr.meshes[1].AttachTile(0, func(pkt *noc.Packet) { got++; last = pr.eng.Now() })
		for i := 0; i < 5; i++ {
			pr.send(0, 1, 0, 9, i)
		}
		pr.eng.Run()
		return got, last, pr.eng.Now(), pr
	}
	got, clean, drained, _ := run("")
	if got != 5 {
		t.Fatalf("fault-free: delivered %d/5", got)
	}
	if drained > clean+100 {
		t.Errorf("fault-free: drained at %d, last delivery at %d; nothing should run on after it", drained, clean)
	}
	got, lossy, _, pr := run("bridge.drop:n=1")
	if got != 5 {
		t.Fatalf("lost update: delivered %d/5", got)
	}
	if lossy > clean+200 {
		t.Errorf("lost update: last delivery at %d, fault-free at %d; one lost update should cost one poll", lossy, clean)
	}
	if n := pr.stats.Get("bridge.credit_loss"); n != 1 {
		t.Errorf("credit_loss = %d, want 1", n)
	}
	if c := pr.bs[0].Credits(1); c < 0 || c > p.CreditsPerDst {
		t.Errorf("credits[1] = %d out of [0, %d]", c, p.CreditsPerDst)
	}
}

func TestWedgedDestinationStopsPolling(t *testing.T) {
	p := DefaultParams()
	p.CreditsPerDst = 9
	// Hang endpoint 0's PCIe egress after the first packet's chunks (3 writes
	// + headroom for their deliveries): every later chunk and credit read
	// fails after bounded retries.
	pr := newPair(t, p, "pcie.ep0.link.hang:after=6")
	got := 0
	pr.meshes[1].AttachTile(0, func(pkt *noc.Packet) { got++ })
	for i := 0; i < 3; i++ {
		pr.send(0, 1, 0, 9, i)
	}
	pr.eng.Run() // must terminate: the bridge gives up instead of spinning
	if pr.stats.Get("bridge.dst_wedged") == 0 {
		t.Error("bridge never declared the hung destination wedged")
	}
	if pr.stats.Get("bridge.axi_errors") == 0 {
		t.Error("failed transfers not counted as axi_errors")
	}
	if pr.stats.Get("bridge.tx_lost") == 0 {
		t.Error("lost packets not counted")
	}
	if got >= 3 {
		t.Error("all packets delivered despite a hung link")
	}
}

// TestStateRoundTrip: capture → restore into a fresh bridge → capture is a
// fixed point, and a restore schedules no event. A peer at its initial state
// is not written, and a list that names only some peers — or, as the
// map-keyed bridge wrote it, a touched peer still at its initial values —
// restores.
func TestStateRoundTrip(t *testing.T) {
	full := DefaultParams().CreditsPerDst
	fresh := func() (*sim.Engine, *Bridge) {
		eng := sim.NewEngine()
		return eng, New(eng, noc.New(eng, "mesh", noc.DefaultParams(2, 1), &sim.Stats{}), 0, 4, DefaultParams(), &sim.Stats{}, "bridge")
	}
	for _, tc := range []struct {
		name       string
		dsts, want []ckpt.BridgeDstState
	}{
		{name: "untouched peers"},
		{
			name: "send and receive halves",
			dsts: []ckpt.BridgeDstState{{Dst: 1, Credits: full - 9, Returned: 30, FreedTotal: 33}},
			want: []ckpt.BridgeDstState{{Dst: 1, Credits: full - 9, Returned: 30, FreedTotal: 33}},
		},
		{
			name: "wedged peer",
			dsts: []ckpt.BridgeDstState{{Dst: 2, Credits: 0, CrFails: creditReadFailLimit, Wedged: true}},
			want: []ckpt.BridgeDstState{{Dst: 2, Credits: 0, CrFails: creditReadFailLimit, Wedged: true}},
		},
		{
			name: "sparse map-keyed list",
			dsts: []ckpt.BridgeDstState{{Dst: 1, Credits: full}, {Dst: 3, Credits: full - 3, Returned: 6}},
			want: []ckpt.BridgeDstState{{Dst: 3, Credits: full - 3, Returned: 6}},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, b := fresh()
			if err := b.RestoreState(ckpt.BridgeState{Dsts: tc.dsts}); err != nil {
				t.Fatal(err)
			}
			if eng.Pending() != 0 {
				t.Error("a restore scheduled an event")
			}
			first, err := b.CaptureState()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(first.Dsts, tc.want) {
				t.Errorf("captured %+v, want %+v", first.Dsts, tc.want)
			}
			_, b2 := fresh()
			if err := b2.RestoreState(first); err != nil {
				t.Fatal(err)
			}
			second, err := b2.CaptureState()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(first, second) {
				t.Errorf("not a fixed point:\nfirst  %+v\nsecond %+v", first, second)
			}
		})
	}
}

// A peer id from outside the program — a snapshot's, or the source field of
// a credit read's address — is checked against the platform's node count.
func TestPeerIDsFromOutsideAreChecked(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, noc.New(eng, "mesh", noc.DefaultParams(2, 1), &sim.Stats{}), 0, 2, DefaultParams(), &sim.Stats{}, "bridge")
	for _, dst := range []int{-1, 2} {
		err := b.RestoreState(ckpt.BridgeState{Dsts: []ckpt.BridgeDstState{{Dst: dst}}})
		if !ckpt.IsSnapshotError(err) {
			t.Errorf("RestoreState with peer %d: error %v, want a ckpt snapshot error", dst, err)
		}
	}
	var resp *axi.Resp
	b.Inbound().Do(&axi.Txn{Addr: 7 << 8, Len: 8}, func(r axi.Resp) { resp = &r })
	if resp == nil || resp.OK {
		t.Errorf("credit read from node 7 of 2 answered %+v, want OK:false", resp)
	}
}

// TestCreditReadAllocatesOnlyItsAnswer pins the credit-return read's round
// trip across FPGAs: the read's transfer and completion are bound once per
// peer and bridge, so a warm read through the shells and the PCIe fabric
// allocates only the answer's 8 bytes — and still returns the receiver's
// running total.
func TestCreditReadAllocatesOnlyItsAnswer(t *testing.T) {
	p := DefaultParams()
	pr := newPair(t, p, "")
	pr.meshes[1].AttachTile(0, func(*noc.Packet) {})
	pr.send(0, 1, 0, 9, nil)
	pr.eng.Run()
	read := func() {
		pr.bs[0].FetchCredits(1)
		pr.eng.Run()
	}
	for i := 0; i < 4; i++ {
		read()
	}
	if a := testing.AllocsPerRun(100, read); a != 1 {
		t.Errorf("credit read round trip: %.1f allocs, want 1 (the answer)", a)
	}
	if n := pr.stats.Get("bridge.credit_reads"); n < 100 {
		t.Errorf("credit_reads = %d, want every FetchCredits to issue one", n)
	}
	if c := pr.bs[0].Credits(1); c != p.CreditsPerDst {
		t.Errorf("credits[1] = %d after the reads, want the full %d back", c, p.CreditsPerDst)
	}
}
