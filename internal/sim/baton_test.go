package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// The baton protocol (Engine.drive) changes which goroutine executes events,
// never which events execute. These tests pin that: process-driven schedules
// against the same schedules written as plain event chains, the cycle bound
// reached while a process holds the baton, panics crossing back to the
// caller, the Hop exception, and teardown.

// chain is the hand-written twin of a process that logs and waits d cycles,
// n times: one event per resume, rescheduling itself.
func chain(e *Engine, log *[]string, name string, d Time, n int) {
	i := 0
	var step func()
	step = func() {
		if i == n {
			return // the process's final resume: the body returns
		}
		*log = append(*log, fmt.Sprintf("%s%d@%d", name, i, e.Now()))
		i++
		e.Schedule(d, step)
	}
	e.Schedule(0, step)
}

// walker is the process form of chain.
func walker(e *Engine, log *[]string, name string, d Time, n int) *Process {
	return Go(e, name, func(p *Process) {
		for i := 0; i < n; i++ {
			*log = append(*log, fmt.Sprintf("%s%d@%d", name, i, p.Now()))
			p.Wait(d)
		}
	})
}

func TestBatonMatchesHandWrittenSchedule(t *testing.T) {
	cases := []struct {
		name  string
		procs []Time // one process per entry, waiting that many cycles
	}{
		{"self-resume", []Time{3}},
		{"ping-pong", []Time{1, 1}},
		{"uneven", []Time{2, 3, 5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const n = 20
			var want, got []string
			ref := NewEngine()
			eng := NewEngine()
			for i, d := range tc.procs {
				name := string(rune('a' + i))
				chain(ref, &want, name, d, n)
				walker(eng, &got, name, d, n)
			}
			ref.Run()
			eng.Run()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("process order %v\nwant event order %v", got, want)
			}
			if eng.Executed() != ref.Executed() || eng.Now() != ref.Now() {
				t.Fatalf("executed %d at %d, hand-written schedule executed %d at %d",
					eng.Executed(), eng.Now(), ref.Executed(), ref.Now())
			}
		})
	}
}

func TestRunUntilDeadlineWhileProcessDrives(t *testing.T) {
	e := NewEngine()
	iters := 0
	Go(e, "loop", func(p *Process) {
		for i := 0; i < 100; i++ {
			iters++
			p.Wait(3)
		}
	})
	if now := e.RunUntil(10); now != 10 || e.Now() != 10 {
		t.Fatalf("RunUntil(10) left the clock at %d", e.Now())
	}
	if iters != 4 { // resumed at 0, 3, 6, 9
		t.Fatalf("body ran %d iterations by cycle 10, want 4", iters)
	}
	if next, ok := e.NextEventTime(); !ok || next != 12 {
		t.Fatalf("next event at %d (queued %v), want 12 still queued", next, ok)
	}
	e.RunUntil(20)
	if iters != 7 || e.Now() != 20 {
		t.Fatalf("second RunUntil: %d iterations at %d, want 7 at 20", iters, e.Now())
	}
	e.Close()
}

// An event callback that panics while a process is driving unwinds that
// process's goroutine; the caller of Run must still see the original value.
func TestCallbackPanicWhileProcessDrivesReachesCaller(t *testing.T) {
	type modelBug struct{ code int }
	e := NewEngine()
	parked := Go(e, "parked", func(p *Process) { p.Wait(100) })
	driver := Go(e, "driver", func(p *Process) { p.Wait(200) }) // last to block, so it drives
	e.Schedule(5, func() { panic(&modelBug{42}) })

	var got any
	func() {
		defer func() { got = recover() }()
		e.Run()
	}()
	bug, ok := got.(*modelBug)
	if !ok || bug.code != 42 {
		t.Fatalf("Run panicked with %#v, want the callback's *modelBug{42}", got)
	}
	if !driver.done || parked.done {
		t.Fatalf("driver done=%v parked done=%v, want the driver unwound and the other still parked",
			driver.done, parked.done)
	}
	e.Close()
	if !parked.done {
		t.Fatal("Close after a model panic did not release the parked process")
	}
}

func TestBodyPanicKeepsProcessName(t *testing.T) {
	e := NewEngine()
	Go(e, "quiet", func(p *Process) { p.Wait(50) })
	Go(e, "bomb", func(p *Process) {
		p.Wait(1) // resumed by the other process's goroutine
		panic("boom")
	})
	var got any
	func() {
		defer func() { got = recover() }()
		e.Run()
	}()
	if got != `sim: process "bomb" panicked: boom` {
		t.Fatalf("Run panicked with %#v", got)
	}
	e.Close()
}

// within fails the test if fn has not returned after a generous timeout: a
// broken hand-off shows up as a deadlock, not as a wrong answer.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return", what)
	}
}

// Under a SerialNet a hopping process is delivered by a flush event on its
// own engine. If it kept driving while it waited it would pop that flush
// and resume itself from inside it.
func TestHopAloneUnderSerialNetTerminates(t *testing.T) {
	e := NewEngine()
	net := NewSerialNet(e)
	var stamps []Time
	p := Go(e, "migrant", func(p *Process) {
		for i := 0; i < 3; i++ {
			p.Hop(net, 0, 1, e, 61)
			stamps = append(stamps, p.Now())
			p.Wait(4)
		}
	})
	within(t, "Run with a lone hopping process", func() { e.Run() })
	if want := []Time{61, 126, 191}; !reflect.DeepEqual(stamps, want) || !p.done {
		t.Fatalf("hops landed at %v (done=%v), want %v", stamps, p.done, want)
	}
}

// Two deliveries to one endpoint in one cycle run inside one flush event; a
// migrating process must run between them, in canonical order, exactly as a
// plain delivery in its place would.
func TestHopRunsInsideTheFlushInCanonicalOrder(t *testing.T) {
	run := func(hop bool) (log []string, executed uint64) {
		e := NewEngine()
		net := NewSerialNet(e)
		note := func(s string) { log = append(log, fmt.Sprintf("%s@%d", s, e.Now())) }
		e.Schedule(1, func() {
			net.Send(0, 2, 100, func() { note("first") })
		})
		if hop {
			Go(e, "migrant", func(p *Process) {
				p.Wait(1)
				p.Hop(net, 1, 2, e, 99)
				note("migrant")
				p.Wait(0)
				note("migrant-later")
			})
		} else {
			e.Schedule(0, func() {}) // the process's start
			e.Schedule(1, func() {   // its Wait(1)
				net.Send(1, 2, 100, func() {
					note("migrant")
					e.Schedule(0, func() { note("migrant-later") })
				})
			})
		}
		e.Schedule(1, func() {
			net.Send(3, 2, 100, func() { note("last") })
		})
		within(t, "Run", func() { e.Run() })
		return log, e.Executed()
	}
	got, gotN := run(true)
	want, wantN := run(false)
	if !reflect.DeepEqual(got, want) || gotN != wantN {
		t.Fatalf("hop order %v (%d events)\nwant %v (%d events)", got, gotN, want, wantN)
	}
	if want[1] != "migrant@100" {
		t.Fatalf("reference order %v does not put the migrant between the deliveries", want)
	}
}

func TestBodyPanicAfterHopKeepsProcessName(t *testing.T) {
	e := NewEngine()
	net := NewSerialNet(e)
	Go(e, "migrant", func(p *Process) {
		p.Hop(net, 0, 1, e, 61)
		panic("lost")
	})
	var got any
	func() {
		defer func() { got = recover() }()
		e.Run()
	}()
	if s, _ := got.(string); !strings.Contains(s, `process "migrant" panicked: lost`) {
		t.Fatalf("Run panicked with %#v", got)
	}
}

func TestWaitRoundTripZeroAlloc(t *testing.T) {
	e := NewEngine()
	Go(e, "loop", func(p *Process) {
		for {
			p.Wait(1)
		}
	})
	Go(e, "peer", func(p *Process) {
		for {
			p.Wait(1)
		}
	})
	e.runTo(32) // warm the pool and the FIFO
	// One cycle is caller -> loop -> caller -> peer -> caller, peer parking
	// at the bound; over eight, peer drives into the next cycle and hands
	// loop its dispatch through the caller.
	for _, cycles := range []Time{1, 8} {
		if n := testing.AllocsPerRun(500, func() { e.runTo(e.Now() + cycles) }); n != 0 {
			t.Errorf("Wait(1) round trips over %d cycles: %v allocs/op, want 0", cycles, n)
		}
	}
	e.Close()
}

// Close must release every parked process — waiting, suspended for good,
// mid-hop, or never started — and run the deferred calls of their bodies.
func TestCloseUnwindsParkedProcesses(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	net := NewSerialNet(e)
	unwound := 0
	var procs []*Process
	for i := 0; i < 8; i++ {
		procs = append(procs, Go(e, "waiter", func(p *Process) {
			defer func() { unwound++ }()
			p.Wait(1000)
		}))
	}
	procs = append(procs, Go(e, "suspended", func(p *Process) {
		defer func() { unwound++ }()
		p.Suspend()
		p.Park()
	}))
	procs = append(procs, Go(e, "migrant", func(p *Process) {
		defer func() { unwound++ }()
		p.Hop(net, 0, 1, e, 1000)
	}))
	finished := Go(e, "finished", func(p *Process) { p.Wait(1) })
	e.RunUntil(10)
	procs = append(procs, Go(e, "unstarted", func(p *Process) { t.Error("unstarted body ran") }))
	if !finished.done {
		t.Fatal("short process did not finish")
	}
	e.Close()
	e.Close() // idempotent
	for _, p := range procs {
		if !p.done {
			t.Fatalf("process %q still parked after Close", p.name)
		}
	}
	if unwound != 10 {
		t.Fatalf("%d bodies unwound, want 10", unwound)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines before, %d after Close", base, n)
	}
}

// The cases below are the ones a coroutine resume makes possible to get
// wrong: who resumes a process changes over its life, and a resume can be
// nested inside an event a process is executing.

// hopFlush builds the three-deliveries-in-one-flush schedule of
// TestHopRunsInsideTheFlushInCanonicalOrder with a long-waiting process
// added, so that a process — not the advance caller — is running the event
// loop when the flush resumes the migrant. migrant is the body's tail after
// the hop lands; last is the delivery ordered after it.
func hopFlush(e *Engine, net *SerialNet, first func(), migrant func(p *Process), last func()) (driver, mig *Process) {
	e.Schedule(1, func() { net.Send(0, 2, 100, first) })
	mig = Go(e, "migrant", func(p *Process) {
		p.Wait(1)
		p.Hop(net, 1, 2, e, 99)
		migrant(p)
	})
	e.Schedule(1, func() { net.Send(3, 2, 100, last) })
	driver = Go(e, "driver", func(p *Process) {
		p.Wait(2)   // past the migrant's departure at cycle 1 ...
		p.Wait(500) // ... so this block is the last, and the driver runs the loop
	})
	return driver, mig
}

func TestHopDeliveredWhileProcessDrives(t *testing.T) {
	var got []string
	e := NewEngine()
	note := func(s string) { got = append(got, fmt.Sprintf("%s@%d", s, e.Now())) }
	driver, mig := hopFlush(e, NewSerialNet(e),
		func() { note("first") },
		func(p *Process) {
			note("migrant")
			p.Wait(0)
			note("migrant-later")
			p.Wait(7)
			note("migrant-last")
		},
		func() {
			note("last")
			e.Schedule(0, func() { note("after-flush") })
		})
	within(t, "Run", func() { e.Run() })
	want := []string{"first@100", "migrant@100", "last@100", "migrant-later@100", "after-flush@100", "migrant-last@107"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("order %v\nwant  %v", got, want)
	}
	if !driver.done || !mig.done || e.Now() != 502 {
		t.Fatalf("driver done=%v migrant done=%v at %d, want both done at 502", driver.done, mig.done, e.Now())
	}
}

// A panic in the delivery after the migrant's proves where control went when
// the nested resume returned: back into the flush the driver is executing.
// The driver is unwound, and the value crosses its wrapper unchanged.
func TestCallbackPanicAfterNestedResumeKeepsValue(t *testing.T) {
	type modelBug struct{ code int }
	e := NewEngine()
	landed := false
	driver, mig := hopFlush(e, NewSerialNet(e),
		func() {},
		func(p *Process) { landed = true; p.Wait(50) },
		func() { panic(&modelBug{13}) })
	var got any
	func() {
		defer func() { got = recover() }()
		e.Run()
	}()
	if bug, ok := got.(*modelBug); !ok || bug.code != 13 {
		t.Fatalf("Run panicked with %#v, want the delivery's *modelBug{13}", got)
	}
	if !landed || !driver.done || mig.done {
		t.Fatalf("landed=%v driver done=%v migrant done=%v, want the migrant parked and the driver unwound",
			landed, driver.done, mig.done)
	}
	e.Close()
	if !mig.done {
		t.Fatal("Close did not release the migrant")
	}
}

// A body panic in a hop-resumed process leaves through the nested resume
// into the driving process, and through that one's wrapper to the caller:
// named once, after the process that raised it.
func TestBodyPanicInHopResumedProcessWhileProcessDrives(t *testing.T) {
	e := NewEngine()
	driver, _ := hopFlush(e, NewSerialNet(e),
		func() {},
		func(*Process) { panic("lost") },
		func() { t.Error("delivery after the panic ran") })
	var got any
	func() {
		defer func() { got = recover() }()
		e.Run()
	}()
	if got != `sim: process "migrant" panicked: lost` {
		t.Fatalf("Run panicked with %#v", got)
	}
	if !driver.done {
		t.Fatal("the driving process was not unwound")
	}
	e.Close()
}

// goid names the calling goroutine.
func goid() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// One process, resumed over its life by the goroutine that calls runTo
// directly and by the Group's per-window worker goroutines of two shards.
// The probe is an event ordered just before a dispatch the process waits for
// without driving, so it runs on the goroutine about to resume it. Run under
// -race: a resume that is not ordered after the previous yield is a report.
func TestProcessResumedByChangingHostGoroutines(t *testing.T) {
	const L = 10
	e0, e1 := NewEngine(), NewEngine()
	g := NewGroup(L, e0, e1)
	for _, e := range []*Engine{e0, e1} {
		e := e
		n := 0
		var tick func()
		tick = func() { // keeps both shards busy, so every window runs on workers
			if n++; n < 40*L {
				e.Schedule(1, tick)
			}
		}
		e.Schedule(0, tick)
	}
	hosts := map[string]bool{}
	probe := func() { hosts[goid()] = true }
	resumes := 0
	e0.Schedule(0, probe)
	p := Go(e0, "nomad", func(p *Process) {
		resumes++
		p.Wait(2)
		for hop, at := 0, 0; hop < 6; hop++ {
			at = 1 - at
			p.Hop(g, 1-at, at, g.Engine(at), L)
			p.eng.Schedule(0, probe)
			p.Wait(0) // resumed by the delivery: yields to it without driving
			resumes++
			p.Wait(3) // drives shard at's loop itself
		}
	})
	e0.runTo(1) // the test's goroutine starts the body
	if resumes != 1 {
		t.Fatalf("body started %d times under a direct runTo, want 1", resumes)
	}
	within(t, "Group.Run", func() { g.Run() })
	if !p.done || resumes != 7 {
		t.Fatalf("done=%v after %d resumes, want true after 7", p.done, resumes)
	}
	if len(hosts) < 3 {
		t.Fatalf("process was resumed by %d distinct goroutines (%v), want at least 3", len(hosts), hosts)
	}
}

// Close on each state a process can be left in, one at a time, must end its
// coroutine: with iter.Pull even a body that never started owns a goroutine.
func TestCloseReleasesEachParkedState(t *testing.T) {
	cases := []struct {
		name  string
		build func(e *Engine, net *SerialNet) *Process
	}{
		{"never started", func(e *Engine, net *SerialNet) *Process {
			e.RunUntil(10)
			return Go(e, "unstarted", func(p *Process) { t.Error("unstarted body ran") })
		}},
		{"parked at the bound while driving", func(e *Engine, net *SerialNet) *Process {
			p := Go(e, "driver", func(p *Process) { p.Wait(1000) })
			e.RunUntil(10)
			return p
		}},
		{"parked mid-hop", func(e *Engine, net *SerialNet) *Process {
			p := Go(e, "migrant", func(p *Process) { p.Hop(net, 0, 1, e, 1000) })
			e.RunUntil(10)
			return p
		}},
		{"parked after a nested resume", func(e *Engine, net *SerialNet) *Process {
			p := Go(e, "landed", func(p *Process) {
				p.Hop(net, 0, 1, e, 5)
				p.Wait(1000)
			})
			e.RunUntil(10)
			return p
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			e := NewEngine()
			p := tc.build(e, NewSerialNet(e))
			if p.done {
				t.Fatal("process finished before Close")
			}
			e.Close()
			if !p.done {
				t.Fatal("process still parked after Close")
			}
			awaitGoroutines(t, base)
		})
	}
}

// A process that parked at the bound while driving is not owed the engine
// back: later advance calls run on the caller until the process's own
// dispatch comes up, and only that resumes it.
func TestAdvanceAfterParkAtBoundResumesOnOwnDispatch(t *testing.T) {
	e := NewEngine()
	var stamps []Time
	Go(e, "sleeper", func(p *Process) {
		for i := 0; i < 3; i++ {
			stamps = append(stamps, p.Now())
			p.Wait(10)
		}
	})
	ticks := 0
	var tick func()
	tick = func() {
		if ticks++; ticks < 30 {
			e.Schedule(1, tick)
		}
	}
	e.Schedule(0, tick)
	e.runTo(3) // the sleeper drives, and parks at this bound
	for c := Time(4); c < 30; c++ {
		e.runTo(c)
		want := 1 + int(c)/10
		if len(stamps) != want {
			t.Fatalf("at cycle %d the body has run %d times (%v), want %d", c, len(stamps), stamps, want)
		}
	}
	e.Run()
	if want := []Time{0, 10, 20}; !reflect.DeepEqual(stamps, want) || ticks != 30 {
		t.Fatalf("body resumed at %v with %d ticks, want %v and 30", stamps, ticks, want)
	}
}
