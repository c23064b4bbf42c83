// Package sim provides a deterministic cycle-level discrete-event simulation
// kernel. It is the substrate every hardware model in this repository is
// built on: the NoC, caches, memory controllers, PCIe links, bridges and
// cores all schedule work on a shared Engine.
//
// Determinism: events are ordered by (time, priority, sequence number), where
// the sequence number is assigned at scheduling time. Two runs with the same
// inputs produce identical event orders and therefore identical results.
//
// Throughput: the engine is allocation-free on its hot path. Events live in a
// per-Engine pool and are recycled through a free list; a generation counter
// per slot keeps a stale Timer from cancelling a recycled event. Pending
// events wait in a calendar of horizon (256) one-cycle slots covering
// [now, now+horizon): each slot is an intrusive list through the pooled
// events, front-of-cycle deliveries first, then normal work, each part in
// sequence order because an event is appended right after its sequence
// number is drawn. A 256-bit occupancy map finds the next busy slot, so
// scheduling and popping are O(1). The cycle-level models rarely schedule
// further out than that (numa48-serial: 10 % of events zero-delay, 34 % one
// cycle, 96 % below 64, none at 256 or more); the rare event beyond the
// horizon waits in a 4-ary far heap, and the run loop merges the two heads
// by (time, priority, sequence).
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// Time is a point in simulated time, measured in clock cycles of the
// prototype's reference clock (100 MHz by default, so one cycle is 10 ns).
type Time uint64

// TimeMax is the largest representable simulation time.
const TimeMax Time = math.MaxUint64

// event is a pooled scheduled callback. Exactly one of fn/afn is set while
// the event is live; both nil marks a cancelled (or free) slot. gen counts
// how many times the slot has been recycled, so a Timer holding (idx, gen)
// can never resurrect or cancel a successor event in the same slot.
type event struct {
	at   Time
	seq  uint64
	fn   func()
	afn  func(any)
	arg  any
	gen  uint64
	prio uint8
	link int32 // next event in the same calendar slot, or none
}

// live reports whether the slot holds a schedulable callback.
func (ev *event) live() bool { return ev.fn != nil || ev.afn != nil }

// Event priorities: deliveries injected by a CrossNet run at the start of
// their cycle, before ordinarily scheduled work, so serial and sharded
// execution see cross-shard traffic at the same point in the cycle.
const (
	prioDeliver = 0
	prioNormal  = 1
)

// horizon is the calendar's span in cycles: an event due fewer than horizon
// cycles after the clock waits in its cycle's slot, a later one in the far
// heap. It is a power of two, so a time's slot is its low bits.
const horizon = 256

// none is the empty link: the end of a slot list, or no list at all.
const none int32 = -1

// calSlot is one cycle's pending events, a singly linked list through
// event.link: the front-of-cycle (prioDeliver) entries first, then the
// normal ones, each run in sequence order. front is the last prioDeliver
// entry, where the next one is linked in.
type calSlot struct {
	head, tail, front int32
}

// heapEnt is one far-heap entry: the ordering key plus the pool index.
// key folds (prio, seq) into one word — prio in the top bit, seq below — so
// the heap comparison is two integer compares with no pointer chasing.
type heapEnt struct {
	at  Time
	key uint64
	idx int32
}

func entKey(prio uint8, seq uint64) uint64 { return uint64(prio)<<63 | seq }

func entLess(a, b heapEnt) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.key < b.key
}

// Engine is a discrete-event simulation engine. The zero value is not ready
// to use; construct one with NewEngine.
type Engine struct {
	now       Time
	seq       uint64
	live      int  // scheduled events that have not fired and are not cancelled
	lastEvent Time // timestamp of the most recently executed event

	pool []event // event slots; index is the stable handle
	free []int32 // recycled slot indices

	// The calendar: an event scheduled less than horizon cycles ahead sits
	// in slot at%horizon until it is popped, live or cancelled, and busy
	// has that slot's bit set. No live event is ever due before now, so a
	// slot's live entries are one cycle's (see alignTo for the cancelled
	// ones). An event scheduled further ahead waits in far for good; head
	// merges the two.
	cal  [horizon]calSlot
	busy [horizon / 64]uint64
	far  []heapEnt // 4-ary min-heap ordered by (at, prio, seq)

	// stats
	executed uint64

	// Run-loop state (see drive). Per engine exactly one goroutine or
	// process coroutine is running at a time and only it touches these
	// fields; every switch between them is a coroutine resume or yield,
	// which orders the accesses.
	limit Time     // current advance call: no event later than this runs
	wake  *Process // process whose dispatch has run and that advance must resume

	// procs is the set of processes started on this engine whose bodies
	// have not returned, so Close can unwind them. A process that hopped
	// away finishes under another engine's advance, hence the lock.
	procMu sync.Mutex
	procs  []*Process
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	e := &Engine{}
	for i := range e.cal {
		e.cal[i] = calSlot{head: none, tail: none, front: none}
	}
	return e
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Executed returns the number of events executed so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending returns the number of live events currently scheduled. Cancelled
// timers still sitting in the queue are not counted: a drained queue of
// cancelled PCIe retransmit timers must read as quiesced, or the group
// would never drain and the sampler would see phantom pending work.
func (e *Engine) Pending() int { return e.live }

// LastEventTime returns the timestamp of the most recently executed event.
// Unlike Now it is never advanced by RunUntil's deadline forcing, so it
// reports when the engine last did real work.
func (e *Engine) LastEventTime() Time { return e.lastEvent }

// alloc takes a slot from the free list (or grows the pool), stamps it with
// the next sequence number and returns its index.
func (e *Engine) alloc(at Time, prio uint8) int32 {
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.pool = append(e.pool, event{})
		idx = int32(len(e.pool) - 1)
	}
	e.seq++
	ev := &e.pool[idx]
	ev.at = at
	ev.prio = prio
	ev.seq = e.seq
	return idx
}

// release recycles a slot: the callback references are dropped so the GC can
// collect them, and the generation is bumped so stale Timers miss.
func (e *Engine) release(idx int32) {
	ev := &e.pool[idx]
	ev.fn, ev.afn, ev.arg = nil, nil, nil
	ev.gen++
	e.free = append(e.free, idx)
}

// enqueue places a freshly allocated slot in the pending structure: the
// calendar slot of its cycle when that lies within the horizon, the far heap
// otherwise. alloc has just drawn its sequence number, so appending keeps
// each part of a slot's list in sequence order.
func (e *Engine) enqueue(idx int32, t Time, prio uint8) {
	e.live++
	if t-e.now >= horizon {
		e.farPush(heapEnt{at: t, key: entKey(prio, e.pool[idx].seq), idx: idx})
		return
	}
	si := t & (horizon - 1)
	s := &e.cal[si]
	ev := &e.pool[idx]
	switch {
	case s.head == none:
		ev.link = none
		s.head, s.tail = idx, idx
		e.busy[si>>6] |= 1 << (si & 63)
	case prio == prioNormal:
		ev.link = none
		e.pool[s.tail].link = idx
		s.tail = idx
	case s.front == none: // the cycle's first delivery goes ahead of its normal work
		ev.link = s.head
		s.head = idx
	default:
		f := &e.pool[s.front]
		ev.link = f.link
		f.link = idx
		if s.tail == s.front {
			s.tail = idx
		}
	}
	if prio == prioDeliver {
		s.front = idx
	}
}

// farPush inserts an entry into the far heap.
func (e *Engine) farPush(ent heapEnt) {
	h := append(e.far, ent)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !entLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	e.far = h
}

// farPopHead removes the far heap's minimum entry.
func (e *Engine) farPopHead() {
	h := e.far
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	e.far = h
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if entLess(h[j], h[m]) {
				m = j
			}
		}
		if !entLess(h[m], h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// pastPanic reports a scheduling-in-the-past bug; it is always a model bug.
func (e *Engine) pastPanic(t Time) {
	panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
}

// Schedule runs fn after delay cycles. A delay of zero runs fn later in the
// current cycle (after all previously scheduled work for this cycle).
func (e *Engine) Schedule(delay Time, fn func()) {
	e.At(e.now+delay, fn)
}

// ScheduleArg runs fn(arg) after delay cycles. It is the typed-callback
// twin of Schedule for hot call sites: a model stores one bound method (or
// package function) as a func(any) and passes the per-event state as arg,
// so no capture closure is allocated per event. A pointer-shaped arg (the
// usual case: *Packet, *Msg, *Envelope, small ints) does not allocate when
// converted to any.
func (e *Engine) ScheduleArg(delay Time, fn func(any), arg any) {
	e.AtArg(e.now+delay, fn, arg)
}

// At runs fn at absolute time t. Scheduling in the past panics: it is always
// a model bug.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		e.pastPanic(t)
	}
	idx := e.alloc(t, prioNormal)
	e.pool[idx].fn = fn
	e.enqueue(idx, t, prioNormal)
}

// AtArg runs fn(arg) at absolute time t; see ScheduleArg.
func (e *Engine) AtArg(t Time, fn func(any), arg any) {
	if t < e.now {
		e.pastPanic(t)
	}
	idx := e.alloc(t, prioNormal)
	ev := &e.pool[idx]
	ev.afn = fn
	ev.arg = arg
	e.enqueue(idx, t, prioNormal)
}

// AtFront runs fn at absolute time t, ahead of every normally scheduled
// event of that cycle. CrossNets use it to inject cross-shard deliveries "on
// the clock edge": a delivery at cycle T always executes before local work
// of cycle T, in both serial and sharded execution, which removes the one
// tie the two modes could otherwise order differently.
func (e *Engine) AtFront(t Time, fn func()) {
	if t < e.now {
		e.pastPanic(t)
	}
	idx := e.alloc(t, prioDeliver)
	e.pool[idx].fn = fn
	e.enqueue(idx, t, prioDeliver)
}

// AtFrontArg is the typed-callback twin of AtFront; see ScheduleArg.
func (e *Engine) AtFrontArg(t Time, fn func(any), arg any) {
	if t < e.now {
		e.pastPanic(t)
	}
	idx := e.alloc(t, prioDeliver)
	ev := &e.pool[idx]
	ev.afn = fn
	ev.arg = arg
	e.enqueue(idx, t, prioDeliver)
}

// Timer is a handle to a cancellable event scheduled with Engine.After.
// The zero Timer is valid and cancels nothing. A Timer is a value: it holds
// the event's pool slot and the slot's generation at scheduling time, so a
// Cancel that races with slot recycling (the event fired, the slot was
// reused) is a guaranteed no-op rather than a resurrection bug.
type Timer struct {
	eng *Engine
	idx int32
	gen uint64
}

// Cancel discards the timer's event. A cancelled event is skipped unexecuted
// when the queue reaches it: it does not run, does not advance the clock and
// does not count as executed, so timeout guards that usually get cancelled
// leave a run's final time and statistics untouched. Safe on the zero Timer
// and after the event has already fired.
func (t *Timer) Cancel() {
	if t == nil || t.eng == nil {
		return
	}
	ev := &t.eng.pool[t.idx]
	if ev.gen == t.gen && ev.live() {
		ev.fn, ev.afn, ev.arg = nil, nil, nil
		t.eng.live--
	}
	t.eng = nil
}

// After schedules fn after delay cycles, like Schedule, but returns a Timer
// that can cancel the event before it fires. Models use it for timeouts
// (e.g. the PCIe retransmit timer) that are cancelled on the common path.
func (e *Engine) After(delay Time, fn func()) Timer {
	t := e.now + delay
	idx := e.alloc(t, prioNormal)
	ev := &e.pool[idx]
	ev.fn = fn
	gen := ev.gen
	e.enqueue(idx, t, prioNormal)
	return Timer{eng: e, idx: idx, gen: gen}
}

// NextEventTime returns the timestamp of the earliest live event, discarding
// any cancelled events it finds at the head of the queue (their slots are
// recycled onto the free list, exactly as the run loop's drain does). The second
// return is false when no live events remain. It only peeks at a live head:
// popping one and putting it back would order it behind deliveries queued
// for its cycle in between.
func (e *Engine) NextEventTime() (Time, bool) {
	for {
		idx, si, ok := e.head()
		if !ok {
			return 0, false
		}
		if ev := &e.pool[idx]; ev.live() {
			return ev.at, true
		}
		e.pop(si)
		e.release(idx)
	}
}

// head locates the globally earliest queued event, live or cancelled: its
// pool index and its calendar slot, or -1 when it heads the far heap. The
// calendar's earliest entry is the head of the first busy slot at or after
// now's (cyclically), and the far heap can hold an earlier or same-cycle
// entry only for a cycle that has since come within the horizon, so the two
// heads are merged by (at, key).
func (e *Engine) head() (idx int32, si int, ok bool) {
	si = e.busySlot()
	if len(e.far) == 0 {
		if si < 0 {
			return 0, 0, false
		}
		return e.cal[si].head, si, true
	}
	f := e.far[0]
	if si >= 0 {
		idx = e.cal[si].head
		ev := &e.pool[idx]
		if ev.at < f.at || ev.at == f.at && entKey(ev.prio, ev.seq) < f.key {
			return idx, si, true
		}
	}
	return f.idx, -1, true
}

// busySlot returns the first busy calendar slot at or after now's, wrapping
// once around the calendar, or -1 when the calendar is empty.
func (e *Engine) busySlot() int {
	s := int(e.now & (horizon - 1))
	w := s >> 6
	if b := e.busy[w] >> (s & 63); b != 0 {
		return s + bits.TrailingZeros64(b)
	}
	for i := 1; i <= len(e.busy); i++ {
		w = (w + 1) % len(e.busy)
		if b := e.busy[w]; b != 0 {
			return w<<6 + bits.TrailingZeros64(b)
		}
	}
	return -1
}

// pop removes the head found by head: slot si's first entry, or the far
// heap's minimum when si is -1.
func (e *Engine) pop(si int) {
	if si < 0 {
		e.farPopHead()
		return
	}
	s := &e.cal[si]
	idx := s.head
	s.head = e.pool[idx].link
	if s.front == idx {
		s.front = none
	}
	if s.head == none {
		s.tail = none
		e.busy[si>>6] &^= 1 << (si & 63)
	}
}

// advance is the one way into the engine's event loop; Run, RunUntil and
// runTo are thin calls to it. It executes events in order until the queue
// drains or the next entry lies beyond limit — a cycle is the only bound
// there is. The clock is never forced forward: it rests on the last executed
// event.
//
// advance must be called from host code (never from an event callback or a
// process body), and a process body runs to its next block inside the call
// that dispatched it.
func (e *Engine) advance(limit Time) {
	e.limit = limit
	e.drive(nil)
}

// drive is the event loop. self is the process running it — a process that
// blocks does not give the engine up, it keeps executing events from inside
// its own block — or nil for the advance caller. A dispatch event only
// records which process to resume (e.wake); the loop acts on it once the
// event has returned:
//
//   - the process is self: return into its body, no switch at all;
//   - self is nil: resume it, a nested call that returns when it yields;
//   - otherwise: leave e.wake set and yield to the caller, which resumes it.
//     A coroutine can only be resumed by a call, so a hand-off between two
//     processes goes through the caller: two coroutine switches, no
//     scheduler.
//
// A driving process also yields to the caller when the bound is reached, and
// a process yields without driving on the Hop path (see Process.Hop). The
// caller therefore re-checks e.wake and the bound each time it gets control
// back; drive returns to it at the bound, and to a process once it has been
// resumed.
func (e *Engine) drive(self *Process) {
	for {
		if q := e.wake; q != nil {
			if self != nil {
				self.park()
				return
			}
			e.wake = nil
			q.co.resume()
			continue
		}
		idx, si, ok := e.head()
		if !ok || e.pool[idx].at > e.limit {
			if self != nil {
				self.park()
			}
			return
		}
		e.pop(si)
		ev := &e.pool[idx]
		if !ev.live() {
			e.release(idx) // cancelled; already removed from the live count
			continue
		}
		e.now = ev.at
		e.lastEvent = ev.at
		e.executed++
		e.live--
		// Copy the callback out and recycle the slot before invoking: the
		// callback may schedule (growing the pool and moving ev) and a Timer
		// still pointing at the slot is fenced off by the generation bump.
		fn, afn, arg := ev.fn, ev.afn, ev.arg
		e.release(idx)
		if fn != nil {
			fn()
		} else {
			afn(arg)
		}
		if e.wake == self && self != nil {
			e.wake = nil
			return
		}
	}
}

// Run executes events until the queue drains. It returns the final
// simulation time.
func (e *Engine) Run() Time {
	e.advance(TimeMax)
	return e.now
}

// RunUntil executes events with timestamps <= deadline. Events scheduled
// beyond the deadline remain queued; the clock is left at the deadline
// (forced forward if the last executed event was earlier).
func (e *Engine) RunUntil(deadline Time) Time {
	e.advance(deadline)
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// RunFor advances the clock by d cycles, executing everything in between.
func (e *Engine) RunFor(d Time) Time { return e.RunUntil(e.now + d) }

// runTo executes events with timestamps <= deadline but, unlike RunUntil,
// never forces the clock forward: the clock is left at the last executed
// event. Shard workers use it so that between windows every engine's notion
// of "now" matches what the serial engine would have seen (forcing would
// timestamp post-window scheduling differently across modes).
func (e *Engine) runTo(deadline Time) { e.advance(deadline) }

// alignTo advances an idle engine's clock to t without executing anything.
// The shard group calls it after a full drain so that host-side code that
// schedules new work afterwards (e.g. spawning the next workload phase) sees
// the same timestamps a serial run would. Cancelled events may still be
// queued before t, and one left in its calendar slot then shares it with a
// cycle a multiple of horizon later. That reorders nothing: the run loop
// meets it in that slot's list and, like any cancelled entry, discards it
// without running it or moving the clock.
func (e *Engine) alignTo(t Time) {
	if t > e.now {
		e.now = t
	}
}

// register adds a newly started process to the live set.
func (e *Engine) register(p *Process) {
	e.procMu.Lock()
	p.slot = len(e.procs)
	e.procs = append(e.procs, p)
	e.procMu.Unlock()
}

// unregister removes a process whose body has returned.
func (e *Engine) unregister(p *Process) {
	e.procMu.Lock()
	last := len(e.procs) - 1
	q := e.procs[last]
	e.procs[p.slot] = q
	q.slot = p.slot
	e.procs[last] = nil
	e.procs = e.procs[:last]
	e.procMu.Unlock()
}

// Close unwinds every process started on this engine that is still parked —
// blocked in a Wait that will never fire because the run was abandoned — so
// their coroutines end and release whatever their bodies reference. Call it
// from host code when the engine is done for good (nothing may run on it
// afterwards); an engine whose processes all finished needs no Close.
func (e *Engine) Close() {
	for {
		e.procMu.Lock()
		var p *Process
		if n := len(e.procs); n > 0 {
			p = e.procs[n-1]
		}
		e.procMu.Unlock()
		if p == nil {
			return
		}
		p.co.stop()
		if !p.done { // never started: no body ran, so no exit did either
			p.done = true
			e.unregister(p)
		}
	}
}
