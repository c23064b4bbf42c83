package sim

import "fmt"

// Process is a coroutine running against an Engine: its body executes only
// while some goroutine is inside its resume (see coro), and it blocks by
// calling Wait or one of the blocking helpers. Exactly one body or
// event callback per engine runs at a time (see Engine.drive), so models stay
// deterministic and need no locking among themselves.
//
// A Process is the execution vehicle for anything with sequential control
// flow: workload threads, the RISC-V core's instruction loop, test drivers.
type Process struct {
	eng  *Engine
	home *Engine // engine the process was started on; owns its live-set slot
	slot int     // index in home.procs, guarded by home.procMu
	name string

	co    *coro
	yield func() bool // the coroutine's yield; set when the body starts

	done    bool
	driving bool // inside block, running the engine's event loop
	nested  bool // resumed from inside a Hop delivery; must not drive at its next block

	// dispatchFn and wakeFn are bound once at creation so the hot resume
	// paths (Wait, Suspend) schedule without allocating a closure
	// per event.
	dispatchFn func()
	wakeFn     func()
	armed      bool // a Suspend completion is outstanding
}

// killedPanic is the sentinel a process stopped by Engine.Close unwinds with.
type killedPanic struct{}

// Go starts fn as a new process at the current simulation time. fn receives
// the Process handle and must use it for all time-consuming operations. The
// body starts lazily, when its first dispatch resumes it.
func Go(eng *Engine, name string, fn func(*Process)) *Process {
	p := &Process{eng: eng, home: eng, name: name}
	p.dispatchFn = p.dispatch
	p.wakeFn = p.wake
	p.co = newCoro(func(yield func() bool) {
		p.yield = yield
		defer p.exit()
		fn(p)
	})
	eng.register(p)
	eng.Schedule(0, p.dispatchFn)
	return p
}

// exit ends the body: it returned, panicked, or was unwound by a panic that
// is not its own. Event callbacks run inside whichever process is driving, so
// a model panic (scheduling in the past, a latency undercut, a panic out of
// a nested resume) unwinds that process's body; it is re-raised
// with its original value, while a panic raised by the body itself gets the
// process's name attached. Either way it leaves the coroutine through the
// resume that was running it.
func (p *Process) exit() {
	r := recover()
	p.done = true
	p.home.unregister(p)
	switch {
	case r == nil, r == killedPanic{}:
	case p.driving:
		panic(r)
	default:
		panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, r))
	}
}

// dispatch is the event that resumes the process. It only records the
// request; the event loop acts on it after the event returns.
func (p *Process) dispatch() {
	if !p.done {
		p.eng.wake = p
	}
}

// wake is the shared completion callback handed out by Suspend. A
// process can have at most one completion outstanding (it is parked while it
// waits), so one bound function per process suffices; the armed flag catches
// a completion invoked twice.
func (p *Process) wake() {
	if !p.armed {
		panic(fmt.Sprintf("sim: process %q woken twice", p.name))
	}
	p.armed = false
	p.eng.Schedule(0, p.dispatchFn)
}

// Now returns the current simulation time.
func (p *Process) Now() Time { return p.eng.Now() }

// Wait suspends the process for d cycles.
func (p *Process) Wait(d Time) {
	p.eng.Schedule(d, p.dispatchFn)
	p.block()
}

// block suspends the process until its dispatch event runs. The process
// runs the event loop itself until then, unless a Hop delivery resumed it:
// that delivery is waiting inside a flush event for control to come back.
func (p *Process) block() {
	if p.nested {
		p.nested = false
		p.park()
		return
	}
	p.driving = true
	p.eng.drive(p)
	p.driving = false
}

// park yields to whoever resumed the process and returns when it is resumed
// again; if that is Engine.Close stopping it, park unwinds the body instead.
func (p *Process) park() {
	if !p.yield() {
		panic(killedPanic{})
	}
}

// Hop moves the process to another shard: after delay cycles it resumes on
// dstEng, delivered through net so the crossing is ordered canonically with
// all other cross-shard traffic. src and dst are the CrossNet shard ids;
// the call must be made from shard src's execution context, and delay must
// be at least the group lookahead. When both endpoints share an engine (always,
// in a one-engine group) Hop degenerates to a canonically-ordered Wait.
//
// Hop is the one resume that is not deferred to the advance caller. A flush
// event applies all of a cycle's deliveries to one endpoint inside a single
// event, and a migrating process must run between them, at its place in the
// canonical order, or the sequence numbers of everything it schedules shift.
// So the delivery resumes the process right there — a nested resume, from
// the caller's goroutine or from inside a driving process — and the process,
// marked nested, yields straight back at its next block. For the same reason
// the hopping process must not drive while it waits: hopping within its own
// engine it would pop the flush carrying its own delivery and resume itself.
func (p *Process) Hop(net CrossNet, src, dst int, dstEng *Engine, delay Time) {
	net.Send(src, dst, p.eng.Now()+delay, func() {
		// Runs in dst's execution context; the process itself is parked,
		// and the window barrier orders this write after the park below.
		p.eng = dstEng
		p.nested = true
		p.co.resume()
	})
	p.park()
}

// Suspend parks the process indefinitely. The returned wake function
// reschedules it; it must be called exactly once per Suspend, from any event
// callback. Typical use: issue a request to a model, Suspend, and have the
// model's completion event call wake. The wake function is the process's
// pooled completion (no allocation); waking twice panics.
func (p *Process) Suspend() (wake func()) {
	p.armed = true
	return p.wakeFn
}

// Park suspends until wake is invoked. It is split from Suspend so callers
// can publish the wake function before blocking.
func (p *Process) Park() { p.block() }
