// Checkpoint capture/restore for the cache hierarchy. State snapshots are
// taken at quiescent safepoints (event queue drained, all threads parked at
// a barrier cut), where every protocol transaction has completed: the BPC
// MSHRs, the home's line locks, queued requests and outstanding memory
// fetches are all empty. Capture checks that instead of assuming it — a
// non-quiescent capture would silently drop in-flight transactions.
package cache

import (
	"fmt"
	"sort"

	"smappic/internal/ckpt"
)

// captureSetAssoc copies a tag array into snapshot form, one column per way
// field (every set of a tag array has the same associativity).
func captureSetAssoc(c *setAssoc) ckpt.SetAssocState {
	n := len(c.sets) * len(c.sets[0])
	st := ckpt.SetAssocState{Tick: c.tick, Sets: len(c.sets),
		Line: make([]uint64, 0, n), State: make([]uint8, 0, n), Dirty: make([]bool, 0, n), LRU: make([]uint64, 0, n)}
	for _, set := range c.sets {
		for _, w := range set {
			st.Line = append(st.Line, w.line)
			st.State = append(st.State, uint8(w.st))
			st.Dirty = append(st.Dirty, w.dirty)
			st.LRU = append(st.LRU, w.lru)
		}
	}
	return st
}

// restoreSetAssoc overlays a captured tag array, verifying the geometry
// matches the built one (a snapshot from a different cache configuration
// must be refused, not silently reshaped).
func restoreSetAssoc(c *setAssoc, st ckpt.SetAssocState, what string) error {
	if st.Sets != len(c.sets) {
		return &ckpt.MismatchError{Field: what + " set count",
			Got: fmt.Sprint(st.Sets), Want: fmt.Sprint(len(c.sets))}
	}
	ways := len(c.sets[0])
	if len(st.Line) != st.Sets*ways {
		return &ckpt.MismatchError{Field: what + " associativity",
			Got: fmt.Sprint(len(st.Line) / st.Sets), Want: fmt.Sprint(ways)}
	}
	if len(st.State) != len(st.Line) || len(st.Dirty) != len(st.Line) || len(st.LRU) != len(st.Line) {
		return &ckpt.CorruptError{Reason: fmt.Sprintf("%s way columns differ in length (%d lines, %d states, %d dirty bits, %d LRU stamps)",
			what, len(st.Line), len(st.State), len(st.Dirty), len(st.LRU))}
	}
	for i, s := range st.State {
		if s > uint8(stModified) {
			return &ckpt.CorruptError{Reason: fmt.Sprintf("%s way state %d out of range", what, s)}
		}
		c.sets[i/ways][i%ways] = way{line: st.Line[i], st: state(s), dirty: st.Dirty[i], lru: st.LRU[i]}
	}
	c.tick = st.Tick
	return nil
}

// CaptureState records the private stack's tag arrays into st. The MSHRs
// and the stalled-access queue must be empty (quiescence check).
func (c *Private) CaptureState(st *ckpt.TileState) error {
	if len(c.mshrs) != 0 || len(c.blocked) != 0 {
		return fmt.Errorf("cache: %s has %d outstanding misses and %d stalled accesses; not at a quiescent safepoint",
			c.name, len(c.mshrs), len(c.blocked))
	}
	st.L1I = captureSetAssoc(c.l1i)
	st.L1D = captureSetAssoc(c.l1d)
	st.BPC = captureSetAssoc(c.bpc)
	return nil
}

// RestoreState overlays captured tag arrays onto a freshly built stack.
func (c *Private) RestoreState(st *ckpt.TileState) error {
	if err := restoreSetAssoc(c.l1i, st.L1I, c.name+".l1i"); err != nil {
		return err
	}
	if err := restoreSetAssoc(c.l1d, st.L1D, c.name+".l1d"); err != nil {
		return err
	}
	return restoreSetAssoc(c.bpc, st.BPC, c.name+".bpc")
}

// CaptureState records the home slice's tag array, directory and monotonic
// transaction-tag counter into st. No line may be locked or have requests
// queued, and no memory fetch may be outstanding (quiescence check).
func (s *Slice) CaptureState(st *ckpt.TileState) error {
	st.Dir = make([]ckpt.DirEntry, 0, len(s.lines))
	busy := 0
	for line, r := range s.lines {
		if r.req != nil {
			busy++
		}
		de := ckpt.DirEntry{
			Line:  line,
			State: uint8(r.st),
			Owner: ckpt.GIDState{Node: r.owner.Node, Tile: r.owner.Tile},
		}
		for _, g := range r.sharers {
			de.Sharers = append(de.Sharers, ckpt.GIDState{Node: g.Node, Tile: g.Tile})
		}
		st.Dir = append(st.Dir, de)
	}
	if busy != 0 || len(s.memTags) != 0 || s.nq != 0 {
		return fmt.Errorf("cache: %s has in-flight transactions (%d busy, %d queued, %d memory fetches); not at a quiescent safepoint",
			s.name, busy, s.nq, len(s.memTags))
	}
	sort.Slice(st.Dir, func(i, j int) bool { return st.Dir[i].Line < st.Dir[j].Line })
	st.LLC = captureSetAssoc(s.tags)
	st.NextTag = s.nextTag
	return nil
}

// RestoreState overlays a captured home slice onto a freshly built one. A
// row's sharers may come in any order and repeat; the record keeps each
// once, in (node, tile) order.
func (s *Slice) RestoreState(st *ckpt.TileState) error {
	if err := restoreSetAssoc(s.tags, st.LLC, s.name); err != nil {
		return err
	}
	s.nextTag = st.NextTag
	s.lines = make(map[uint64]*record, len(st.Dir))
	for _, de := range st.Dir {
		if de.State > uint8(dirE) {
			return &ckpt.CorruptError{Reason: fmt.Sprintf("%s directory state %d out of range", s.name, de.State)}
		}
		r := &record{st: dirState(de.State), owner: GID{Node: de.Owner.Node, Tile: de.Owner.Tile}}
		for _, g := range de.Sharers {
			r.addSharer(GID{Node: g.Node, Tile: g.Tile})
		}
		s.lines[de.Line] = r
	}
	return nil
}
