package interrupt

import (
	"testing"

	"smappic/internal/sim"
)

// wiring connects a packetizer straight to per-hart depacketizers,
// emulating the NoC path with zero latency, and keeps the level each
// depacketizer last drove onto each of its hart's wires.
type wiring struct {
	depacks []*Depacketizer
	wires   []map[Kind]bool
	packets int
}

func newWiring(harts int) (*wiring, *Packetizer) {
	w := &wiring{}
	for i := 0; i < harts; i++ {
		wires := map[Kind]bool{}
		w.wires = append(w.wires, wires)
		w.depacks = append(w.depacks, NewDepacketizer(func(k Kind, level bool) { wires[k] = level }))
	}
	p := NewPacketizer(harts, func(hart int, c *Change) {
		w.packets++
		w.depacks[hart].Handle(c)
	})
	return w, p
}

func TestPacketizerOnlySendsTransitions(t *testing.T) {
	w, p := newWiring(2)
	p.Set(0, Software, true)
	p.Set(0, Software, true) // duplicate level: no packet
	p.Set(0, Software, false)
	p.Set(1, Timer, true)
	if w.packets != 3 {
		t.Fatalf("sent %d packets, want 3 (transitions only)", w.packets)
	}
	if w.wires[0][Software] {
		t.Error("hart0 msip should be low")
	}
	if !w.wires[1][Timer] {
		t.Error("hart1 mtip should be high")
	}
}

func TestDepacketizerDrivesWires(t *testing.T) {
	type edge struct {
		k Kind
		l bool
	}
	var got []edge
	d := NewDepacketizer(func(k Kind, l bool) { got = append(got, edge{k, l}) })
	d.Handle(&Change{Kind: Timer, Level: true})
	d.Handle(&Change{Kind: Timer, Level: false})
	if len(got) != 2 || got[0] != (edge{Timer, true}) || got[1] != (edge{Timer, false}) {
		t.Fatalf("wire sequence = %v", got)
	}
}

func TestClintSoftwareInterrupt(t *testing.T) {
	eng := sim.NewEngine()
	w, p := newWiring(4)
	c := NewCLINT(eng, 4, p)
	c.Write(ClintMSIPBase+4*2, 4, 1) // raise MSIP for hart 2
	if !w.wires[2][Software] {
		t.Fatal("hart2 msip not raised")
	}
	if c.Read(ClintMSIPBase+4*2, 4) != 1 {
		t.Fatal("msip readback != 1")
	}
	c.Write(ClintMSIPBase+4*2, 4, 0)
	if w.wires[2][Software] {
		t.Fatal("hart2 msip not cleared")
	}
}

func TestClintTimerFiresAtCompare(t *testing.T) {
	eng := sim.NewEngine()
	w, p := newWiring(1)
	c := NewCLINT(eng, 1, p)
	c.Write(ClintMTimeCmpBase, 8, 100)
	if w.wires[0][Timer] {
		t.Fatal("mtip raised before compare time")
	}
	eng.RunUntil(99)
	if w.wires[0][Timer] {
		t.Fatal("mtip raised one cycle early")
	}
	eng.RunUntil(101)
	eng.Run()
	if !w.wires[0][Timer] {
		t.Fatal("mtip not raised at compare time")
	}
	// Writing a new future compare clears it.
	c.Write(ClintMTimeCmpBase, 8, 10000)
	if w.wires[0][Timer] {
		t.Fatal("mtip not cleared by future mtimecmp")
	}
}

func TestClintMTimeTracksClock(t *testing.T) {
	eng := sim.NewEngine()
	_, p := newWiring(1)
	c := NewCLINT(eng, 1, p)
	eng.RunUntil(1234)
	if got := c.Read(ClintMTime, 8); got != 1234 {
		t.Fatalf("mtime = %d, want 1234", got)
	}
}
