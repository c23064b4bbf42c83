package cache

import "fmt"

// state is a per-line coherence state stored in the set-associative arrays.
type state uint8

const (
	stInvalid state = iota
	stShared
	stExclusive
	stModified
)

// way is one entry of a set.
type way struct {
	line  uint64
	st    state
	dirty bool
	lru   uint64
}

// setAssoc is an LRU set-associative tag array. It stores coherence state
// and a dirty bit per line; data is not stored (see package comment).
type setAssoc struct {
	sets    [][]way
	setMask uint64
	tick    uint64
}

// newSetAssoc builds a Ways-way tag array of the given total size, which
// must be a power-of-two multiple of Ways*LineBytes.
func newSetAssoc(sizeBytes int) *setAssoc {
	lines := sizeBytes / LineBytes
	if lines <= 0 || lines%Ways != 0 {
		panic(fmt.Sprintf("cache: bad geometry %dB/%dw", sizeBytes, Ways))
	}
	nsets := lines / Ways
	if nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a power of two", nsets))
	}
	c := &setAssoc{sets: make([][]way, nsets), setMask: uint64(nsets - 1)}
	ways := make([]way, nsets*Ways) // one backing array, not one per set
	for i := range c.sets {
		c.sets[i] = ways[i*Ways : (i+1)*Ways : (i+1)*Ways]
	}
	return c
}

func (c *setAssoc) set(line uint64) []way {
	return c.sets[(line/LineBytes)&c.setMask]
}

// lookup returns the entry for line if present, bumping its LRU position.
func (c *setAssoc) lookup(line uint64) *way {
	for i := range c.set(line) {
		w := &c.set(line)[i]
		if w.st != stInvalid && w.line == line {
			c.tick++
			w.lru = c.tick
			return w
		}
	}
	return nil
}

// peek returns the entry without touching LRU state.
func (c *setAssoc) peek(line uint64) *way {
	for i := range c.set(line) {
		w := &c.set(line)[i]
		if w.st != stInvalid && w.line == line {
			return w
		}
	}
	return nil
}

// insert places line with the given state, evicting the LRU way if the set
// is full. It returns the victim entry (valid if evicted=true). Inserting a
// line that is already present updates its state in place (evicted=false).
func (c *setAssoc) insert(line uint64, st state) (victim way, evicted bool) {
	set := c.set(line)
	if w := c.peek(line); w != nil {
		w.st = st
		c.tick++
		w.lru = c.tick
		return way{}, false
	}
	slot := &set[0]
	for i := range set {
		w := &set[i]
		if w.st == stInvalid {
			slot = w
			evicted = false
			goto place
		}
		if w.lru < slot.lru {
			slot = w
		}
	}
	victim, evicted = *slot, true
place:
	c.tick++
	*slot = way{line: line, st: st, lru: c.tick}
	return victim, evicted
}

// invalidate drops line if present, returning its previous entry.
func (c *setAssoc) invalidate(line uint64) (prev way, had bool) {
	if w := c.peek(line); w != nil {
		prev, had = *w, true
		w.st = stInvalid
		w.dirty = false
	}
	return prev, had
}
