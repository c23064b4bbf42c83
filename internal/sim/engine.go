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
// per slot keeps a stale Timer from cancelling a recycled event. The pending
// queue is a hand-rolled 4-ary heap over a value slice (no interface boxing,
// no per-push allocation), and work scheduled for the current cycle bypasses
// the heap entirely through a FIFO — the majority of cycle-level traffic
// (zero-delay continuations, process dispatches) never touches the heap.
package sim

import (
	"fmt"
	"math"
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

// heapEnt is one pending-queue entry: the ordering key plus the pool index.
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

	pool []event   // event slots; index is the stable handle
	free []int32   // recycled slot indices
	heap []heapEnt // 4-ary min-heap ordered by (at, prio, seq)

	// Same-cycle FIFO fast path: normal-priority events scheduled for the
	// current cycle. Entries are appended in seq order, so the FIFO is
	// already sorted; only a front-of-cycle (prioDeliver) heap event can
	// order before its head.
	fifo     []int32
	fifoHead int

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
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Executed returns the number of events executed so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending returns the number of live events currently scheduled. Cancelled
// timers still sitting in the queue are not counted: a drained queue of
// cancelled PCIe retransmit timers must read as quiesced, or the Watchdog
// and Sampler would see phantom pending work.
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
// same-cycle FIFO when it is normal-priority work for the current cycle,
// the heap otherwise.
func (e *Engine) enqueue(idx int32, t Time, prio uint8) {
	e.live++
	if t == e.now && prio == prioNormal {
		e.fifo = append(e.fifo, idx)
		return
	}
	e.heapPush(heapEnt{at: t, key: entKey(prio, e.pool[idx].seq), idx: idx})
}

// heapPush inserts an entry into the 4-ary heap.
func (e *Engine) heapPush(ent heapEnt) {
	h := append(e.heap, ent)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !entLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	e.heap = h
}

// heapPopHead removes the minimum entry.
func (e *Engine) heapPopHead() {
	h := e.heap
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	e.heap = h
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

// fifoAdvance consumes the FIFO head, resetting the buffer once drained so
// its capacity is reused cycle after cycle.
func (e *Engine) fifoAdvance() {
	e.fifoHead++
	if e.fifoHead == len(e.fifo) {
		e.fifo = e.fifo[:0]
		e.fifoHead = 0
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
// that can cancel the event before it fires. Models use it for timeout
// watchdogs (e.g. the PCIe retransmit timer) that are cancelled on the
// common path.
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
// return is false when no live events remain.
func (e *Engine) NextEventTime() (Time, bool) {
	for e.fifoHead < len(e.fifo) {
		idx := e.fifo[e.fifoHead]
		if e.pool[idx].live() {
			return e.now, true
		}
		e.fifoAdvance()
		e.release(idx)
	}
	for len(e.heap) > 0 {
		ent := e.heap[0]
		if e.pool[ent.idx].live() {
			return ent.at, true
		}
		e.heapPopHead()
		e.release(ent.idx)
	}
	return 0, false
}

// peekAt returns the timestamp of the earliest queued event, live or
// cancelled (the run loop uses it for its deadline check and discards
// cancelled heads without executing them).
func (e *Engine) peekAt() (Time, bool) {
	if e.fifoHead < len(e.fifo) {
		return e.now, true
	}
	if len(e.heap) > 0 {
		return e.heap[0].at, true
	}
	return 0, false
}

// next pops the globally earliest queued event's slot index. The FIFO holds
// only normal-priority work for the current cycle, already in seq order, so
// the only heap entry that can order before its head is same-cycle work with
// a smaller key (a front-of-cycle delivery, or a normal event scheduled
// before the clock reached this cycle).
func (e *Engine) next() (int32, bool) {
	hasF := e.fifoHead < len(e.fifo)
	if len(e.heap) > 0 {
		ent := e.heap[0]
		if hasF {
			f := e.fifo[e.fifoHead]
			if ent.at == e.now && ent.key < entKey(prioNormal, e.pool[f].seq) {
				e.heapPopHead()
				return ent.idx, true
			}
			e.fifoAdvance()
			return f, true
		}
		e.heapPopHead()
		return ent.idx, true
	}
	if hasF {
		f := e.fifo[e.fifoHead]
		e.fifoAdvance()
		return f, true
	}
	return 0, false
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

// atBound reports whether the current advance call must return now: the
// queue drained, or its next entry (live or cancelled) lies beyond the limit.
func (e *Engine) atBound() bool {
	t, ok := e.peekAt()
	return !ok || t > e.limit
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
		if e.atBound() {
			if self != nil {
				self.park()
			}
			return
		}
		idx, _ := e.next()
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
// the same timestamps a serial run would.
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
