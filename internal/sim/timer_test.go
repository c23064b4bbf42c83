package sim

import "testing"

func TestTimerCancelSkipsEvent(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.After(100, func() { fired = true })
	e.Schedule(10, func() {})
	tm.Cancel()
	end := e.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
	if end != 10 {
		t.Fatalf("cancelled timer advanced the clock: end=%d, want 10", end)
	}
	if e.Executed() != 1 {
		t.Fatalf("executed=%d, want 1 (cancelled event must not count)", e.Executed())
	}
}

func TestTimerFiresWhenNotCancelled(t *testing.T) {
	e := NewEngine()
	fired := false
	e.After(50, func() { fired = true })
	if end := e.Run(); !fired || end != 50 {
		t.Fatalf("fired=%v end=%d, want true 50", fired, end)
	}
}

func TestTimerCancelAfterFireIsNoop(t *testing.T) {
	e := NewEngine()
	n := 0
	tm := e.After(5, func() { n++ })
	e.Run()
	tm.Cancel() // must not panic or disturb anything
	tm.Cancel()
	var nilTimer *Timer
	nilTimer.Cancel()
	if n != 1 {
		t.Fatalf("fired %d times, want 1", n)
	}
}
