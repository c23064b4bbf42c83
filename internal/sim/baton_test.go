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
// against the same schedules written as plain event chains, every bound of
// Advance reached while a process holds the baton, panics crossing back to
// the caller, the Hop exception, and teardown.

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

// A process that blocks keeps driving, and its own wake-up is the next
// event — Step must still hand the baton back after exactly one event.
func TestStepIsOneEventWhileProcessWouldRunOn(t *testing.T) {
	e := NewEngine()
	iters := 0
	p := Go(e, "loop", func(p *Process) {
		for i := 0; i < 10; i++ {
			iters++
			p.Wait(1)
		}
	})
	for want := uint64(1); ; want++ {
		if !e.Step() {
			break
		}
		if e.Executed() != want {
			t.Fatalf("after %d Steps Executed() = %d", want, e.Executed())
		}
		if wantIters := int(want); want <= 10 && iters != wantIters {
			t.Fatalf("after %d Steps the body ran %d iterations, want %d", want, iters, wantIters)
		}
	}
	if !p.Done() || e.Executed() != 11 {
		t.Fatalf("done=%v executed=%d, want true/11", p.Done(), e.Executed())
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

func TestStopWhileProcessDrives(t *testing.T) {
	t.Run("from body", func(t *testing.T) {
		e := NewEngine()
		iters := 0
		p := Go(e, "loop", func(p *Process) {
			for i := 0; i < 10; i++ {
				iters++
				if i == 3 {
					e.Stop()
				}
				p.Wait(1)
			}
		})
		e.Run()
		if iters != 4 || e.Now() != 3 || p.Done() {
			t.Fatalf("Stop from body: %d iterations at %d done=%v, want 4 at 3, not done", iters, e.Now(), p.Done())
		}
		e.Resume()
		e.Run()
		if iters != 10 || !p.Done() {
			t.Fatalf("after Resume: %d iterations done=%v", iters, p.Done())
		}
	})
	t.Run("from callback", func(t *testing.T) {
		e := NewEngine()
		iters := 0
		p := Go(e, "loop", func(p *Process) {
			for i := 0; i < 10; i++ {
				iters++
				p.Wait(2)
			}
		})
		e.Schedule(5, e.Stop) // executes on the process's goroutine
		e.Run()
		if e.Now() != 5 || iters != 3 || p.Done() {
			t.Fatalf("Stop from callback: %d iterations at %d done=%v, want 3 at 5, not done", iters, e.Now(), p.Done())
		}
		e.Resume()
		e.Run()
		if iters != 10 || !p.Done() {
			t.Fatalf("after Resume: %d iterations done=%v", iters, p.Done())
		}
	})
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
	if !driver.Done() || parked.Done() {
		t.Fatalf("driver done=%v parked done=%v, want the driver unwound and the other still parked",
			driver.Done(), parked.Done())
	}
	e.Close()
	if !parked.Done() {
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
	if want := []Time{61, 126, 191}; !reflect.DeepEqual(stamps, want) || !p.Done() {
		t.Fatalf("hops landed at %v (done=%v), want %v", stamps, p.Done(), want)
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
	e.Advance(TimeMax, 64, nil) // warm the pool and the FIFO
	// Budget 1 is caller -> process -> caller; budget 8 adds the
	// process-to-process and self-resume hand-offs.
	for _, budget := range []uint64{1, 8} {
		if n := testing.AllocsPerRun(500, func() { e.Advance(TimeMax, budget, nil) }); n != 0 {
			t.Errorf("Wait(1) round trips at budget %d: %v allocs/op, want 0", budget, n)
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
	if !finished.Done() {
		t.Fatal("short process did not finish")
	}
	e.Close()
	e.Close() // idempotent
	for _, p := range procs {
		if !p.Done() {
			t.Fatalf("process %q still parked after Close", p.Name())
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
