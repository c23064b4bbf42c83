package cache

import (
	"reflect"
	"testing"

	"smappic/internal/ckpt"
	"smappic/internal/mem"
	"smappic/internal/sim"
)

// invLog is a Conn that delivers nothing and records where each Inv went.
type invLog struct{ to []GID }

func (l *invLog) SendProto(_, to GID, msg *Msg) {
	if msg.Op == Inv {
		l.to = append(l.to, to)
	}
}

func (l *invLog) SendMem(GID, *mem.Req) {}

// TestSharersKeepNodeTileOrder: a directory row restored with its sharers out
// of order and repeated is held with each sharer once, in (node, tile) order;
// the re-capture lists them so, and a GetM on the line invalidates them in
// that order.
func TestSharersKeepNodeTileOrder(t *testing.T) {
	const line = 0x1000
	eng := sim.NewEngine()
	var log invLog
	home := NewSlice(eng, GID{Node: 0, Tile: 99}, DefaultParams(), &log, &sim.Stats{}, "home")
	var st ckpt.TileState
	if err := home.CaptureState(&st); err != nil {
		t.Fatal(err)
	}
	st.Dir = []ckpt.DirEntry{{Line: line, State: uint8(dirS), Sharers: []ckpt.GIDState{
		{Node: 1, Tile: 2}, {Node: 0, Tile: 3}, {Node: 1, Tile: 0}, {Node: 0, Tile: 3}, {Node: 0, Tile: 1}, {Node: 1, Tile: 2},
	}}}
	if err := home.RestoreState(&st); err != nil {
		t.Fatal(err)
	}
	home.tags.insert(line, stShared) // resident: the GetM goes straight to the directory

	var again ckpt.TileState
	if err := home.CaptureState(&again); err != nil {
		t.Fatal(err)
	}
	want := []GID{{0, 1}, {0, 3}, {1, 0}, {1, 2}}
	var got []GID
	for _, g := range again.Dir[0].Sharers {
		got = append(got, GID{Node: g.Node, Tile: g.Tile})
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("re-captured sharers %v, want %v", got, want)
	}

	home.HandleMsg(&Msg{Op: GetM, Line: line, From: GID{2, 0}, Req: GID{2, 0}})
	eng.Run()
	if !reflect.DeepEqual(log.to, want) {
		t.Fatalf("GetM invalidated %v, want %v", log.to, want)
	}
}
