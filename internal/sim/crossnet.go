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

// batch is one (destination endpoint, cycle)'s parked deliveries. Its
// flush event carries it as the argument, so a flush finds its work without
// searching; batches and their buffers are pooled per spool, so a warmed-up
// spool parks and flushes without allocating.
type batch struct {
	at   Time
	dst  int
	ents []netEntry
}

// spool is one engine's delivery side of a CrossNet: it parks envelopes in
// one batch per (destination endpoint, cycle) and flushes each batch at the
// front of its cycle, in canonical order. The Group keeps one spool per
// shard engine, fed from barrier merges and from same-engine sends;
// SerialNet is a bare spool over a single engine.
//
// open lists, per destination endpoint, the batches whose flush has not
// started — at most one per cycle, and only cycles within the fabric's
// latency spread, so a linear scan finds one. Endpoint ids may include
// hostEndpoint; open is indexed at id+1.
type spool struct {
	eng     *Engine
	open    [][]*batch
	spare   []*batch  // flushed batches, buffers kept for reuse
	flushFn func(any) // bound once; arg is the *batch
}

func newSpool(eng *Engine) *spool {
	s := &spool{eng: eng}
	s.flushFn = func(b any) { s.flush(b.(*batch)) }
	return s
}

// insert parks one envelope in its (destination, cycle) batch, opening the
// batch and scheduling its flush when it is the cycle's first. It must run
// either in the owning engine's own execution context or while that engine
// is provably parked (a window barrier provides the happens-before edge).
func (s *spool) insert(e netEntry) {
	for e.dst+1 >= len(s.open) {
		s.open = append(s.open, nil)
	}
	open := s.open[e.dst+1]
	for _, b := range open {
		if b.at == e.at {
			b.ents = append(b.ents, e)
			return
		}
	}
	var b *batch
	if n := len(s.spare); n > 0 {
		b = s.spare[n-1]
		s.spare = s.spare[:n-1]
	} else {
		b = &batch{}
	}
	b.at, b.dst = e.at, e.dst
	b.ents = append(b.ents, e)
	s.open[e.dst+1] = append(open, b)
	s.eng.AtFrontArg(e.at, s.flushFn, b)
}

// flush applies a batch in canonical order. It runs as a prioDeliver event,
// ahead of the cycle's local work. The batch is closed first, so a delivery
// to the same (destination, cycle) sent from inside it opens a new batch
// whose flush follows this one, still ahead of the cycle's local work.
// Delivered closures are dropped as they run.
func (s *spool) flush(b *batch) {
	open := s.open[b.dst+1]
	i := slices.Index(open, b)
	last := len(open) - 1
	open[i] = open[last]
	open[last] = nil
	s.open[b.dst+1] = open[:last]
	slices.SortFunc(b.ents, netCmp)
	for i := range b.ents {
		b.ents[i].fn()
		b.ents[i].fn = nil
	}
	b.ents = b.ents[:0]
	s.spare = append(s.spare, b)
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
