package sim

import (
	"fmt"
	"slices"
)

// CrossNet carries events between endpoints — the PCIe crossings, the
// intra-FPGA interconnect hops and thread migrations that are the only
// coupling between shard engines. Group implements it for every run, from
// one engine to one per node; SerialNet is the reference oracle the tests
// and the send-cost probe compare Group against. The two apply the *same*
// canonical delivery discipline, which is what makes every sharding produce
// the identical event order:
//
//   - all deliveries landing on one destination endpoint in one cycle are
//     applied in ascending (send time, source endpoint, per-source
//     sequence) order;
//   - deliveries run at the front of their cycle (Engine.AtFront), before
//     any ordinarily scheduled local event of the same cycle.
//
// The per-source sequence reproduces serial scheduling order: within one
// endpoint sends are numbered in execution order, and in the serial engine
// execution order at a given time *is* scheduling order, so sorting by
// (send time, source, sequence) reconstructs exactly the global sequence
// numbers the serial engine would have assigned.
//
// Deliveries to *different* endpoints in the same cycle carry no ordering
// contract: endpoint state is disjoint by construction (each delivery
// mutates only its destination's models and registry), so the two modes are
// free to interleave them differently without observable divergence.
type CrossNet interface {
	// Send delivers fn on endpoint dst at absolute time deliverAt. src is
	// the calling endpoint; the call must be made from the execution context
	// of the engine that owns src. In sharded mode deliverAt must be at
	// least the governing lookahead past the current window start — the
	// caller's model latency guarantees it.
	Send(src, dst int, deliverAt Time, fn func())
}

// hostEndpoint is the one endpoint id below the node range: the host CPU's
// root port (pcie.HostID). Tables indexed by endpoint keep it at id+1.
const hostEndpoint = -1

// netEntry is one in-flight cross-shard delivery.
type netEntry struct {
	at   Time // delivery time
	sent Time // send time
	src  int  // source endpoint
	dst  int  // destination endpoint
	seq  uint64
	fn   func()
}

// netOrder sorts deliveries into the canonical application order. Entries
// are compared by (delivery time, send time, source endpoint, per-source
// seq).
func netOrder(a, b netEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.sent != b.sent {
		return a.sent < b.sent
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

// netCmp is netOrder as a three-way comparison for slices.SortFunc (which,
// unlike sort.Slice, sorts a typed slice without boxing or reflection).
func netCmp(a, b netEntry) int {
	if netOrder(a, b) {
		return -1
	}
	if netOrder(b, a) {
		return 1
	}
	return 0
}

// dstState is one destination endpoint's delivery state. Buffers are
// reused flush to flush, so a warmed-up spool parks and flushes without
// allocating.
type dstState struct {
	pending []netEntry // not yet delivered
	due     []netEntry // scratch: the current cycle's deliveries
	sched   []Time     // cycles with a flush event already queued
}

// spool is one engine's delivery side of a CrossNet: per destination
// endpoint it parks pending envelopes and applies all of a cycle's
// deliveries in canonical order at the front of that cycle, with exactly
// one flush event per (destination, cycle). The Group keeps one spool per
// shard engine, fed from barrier merges and from same-engine sends;
// SerialNet is a bare spool over a single engine.
//
// Endpoint ids may include hostEndpoint; state is indexed at id+1.
type spool struct {
	eng     *Engine
	dsts    []*dstState
	flushFn func(any) // bound once; arg is the destination endpoint id
}

func newSpool(eng *Engine) *spool {
	s := &spool{eng: eng}
	s.flushFn = func(dst any) { s.flush(dst.(int)) }
	return s
}

// dstAt returns dst's delivery state, growing the table on first use.
func (s *spool) dstAt(dst int) *dstState {
	for dst+1 >= len(s.dsts) {
		s.dsts = append(s.dsts, nil)
	}
	if s.dsts[dst+1] == nil {
		s.dsts[dst+1] = &dstState{}
	}
	return s.dsts[dst+1]
}

// insert parks one envelope and guarantees a flush event for its
// (destination, cycle). It must run either in the owning engine's own
// execution context or while that engine is provably parked (a window
// barrier provides the happens-before edge).
func (s *spool) insert(e netEntry) {
	d := s.dstAt(e.dst)
	d.pending = append(d.pending, e)
	// One flush event per (dst, cycle): the scheduled set is a small slice
	// (only cycles within the fabric's latency spread are outstanding), so
	// a linear scan beats a map here.
	if !slices.Contains(d.sched, e.at) {
		d.sched = append(d.sched, e.at)
		s.eng.AtFrontArg(e.at, s.flushFn, e.dst)
	}
}

// flush applies every delivery due on dst at the current cycle, in canonical
// order. It runs as a prioDeliver event, ahead of the cycle's local work.
func (s *spool) flush(dst int) {
	d := s.dstAt(dst)
	now := s.eng.Now()
	if i := slices.Index(d.sched, now); i >= 0 {
		d.sched = slices.Delete(d.sched, i, i+1)
	}
	// Partition in place: due entries move to the scratch buffer, the rest
	// compact to the front of pending. The consumed tail is zeroed so the
	// delivered closures don't linger past their execution.
	due := d.due[:0]
	keep := d.pending[:0]
	for _, e := range d.pending {
		if e.at == now {
			due = append(due, e)
		} else {
			keep = append(keep, e)
		}
	}
	for i := len(keep); i < len(d.pending); i++ {
		d.pending[i] = netEntry{}
	}
	d.pending = keep
	slices.SortFunc(due, netCmp)
	for i := range due {
		due[i].fn()
		due[i].fn = nil
	}
	d.due = due[:0]
}

// SerialNet is the reference oracle: a CrossNet with no windows at all, just
// the canonical ordering applied on one Engine. Nothing in the simulator
// runs on it (a serial run is a one-engine Group); the tests and the
// benchmark's send-cost probe hold Group against it.
type SerialNet struct {
	sp     *spool
	minLat Time // model-latency floor the tests arm; 0 = unguarded
	seqs   []uint64
}

// NewSerialNet returns a CrossNet that delivers on eng.
func NewSerialNet(eng *Engine) *SerialNet {
	return &SerialNet{sp: newSpool(eng)}
}

// seqAt returns a pointer to src's sequence counter, growing the table on
// first use of a source.
func (n *SerialNet) seqAt(src int) *uint64 {
	for src+1 >= len(n.seqs) {
		n.seqs = append(n.seqs, 0)
	}
	return &n.seqs[src+1]
}

// Send implements CrossNet.
func (n *SerialNet) Send(src, dst int, deliverAt Time, fn func()) {
	now := n.sp.eng.Now()
	if n.minLat > 0 && deliverAt < now+n.minLat {
		panic(fmt.Sprintf("sim: cross-shard send %d->%d at %d delivers at %d; model latency undercuts minimum crossing %d",
			src, dst, now, deliverAt, n.minLat))
	}
	seq := n.seqAt(src)
	*seq++
	n.sp.insert(netEntry{at: deliverAt, sent: now, src: src, dst: dst, seq: *seq, fn: fn})
}
