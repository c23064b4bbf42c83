package axi

import "smappic/internal/sim"

// fwd is a pooled deferred AXI transfer: the routed target plus the original
// transfer and completion, so interconnect models (crossbar, shaper, shell)
// can schedule the forwarding hop through sim.ScheduleArg instead of
// allocating a capture closure per transaction.
type fwd struct {
	t    Target
	txn  *Txn
	done func(Resp)
}

// Forwarder schedules delayed dispatch of AXI transfers onto targets with a
// per-instance free list of transfer records. Per-instance (not global) so
// shard engines never share mutable state.
type Forwarder struct {
	eng  *sim.Engine
	free sim.FreeList[fwd]
	fn   func(any) // dispatches and recycles; arg is the *fwd
}

// NewForwarder builds a forwarder scheduling on eng.
func NewForwarder(eng *sim.Engine) *Forwarder {
	p := &Forwarder{eng: eng}
	p.fn = func(v any) {
		f := v.(*fwd)
		t, txn, done := f.t, f.txn, f.done
		// Recycle before dispatching: the target may synchronously issue
		// further transfers through this same forwarder.
		*f = fwd{}
		p.free.Put(f)
		t.Do(txn, done)
	}
	return p
}

// Do dispatches t.Do(txn, done) after delay cycles.
func (p *Forwarder) Do(delay sim.Time, t Target, txn *Txn, done func(Resp)) {
	f := p.free.Get()
	f.t, f.txn, f.done = t, txn, done
	p.eng.ScheduleArg(delay, p.fn, f)
}
