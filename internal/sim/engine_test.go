package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []Time
	e.Schedule(30, func() { order = append(order, e.Now()) })
	e.Schedule(10, func() { order = append(order, e.Now()) })
	e.Schedule(20, func() { order = append(order, e.Now()) })
	e.Run()
	want := []Time{10, 20, 30}
	if len(order) != len(want) {
		t.Fatalf("executed %d events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Errorf("event %d at time %d, want %d", i, order[i], want[i])
		}
	}
}

func TestEngineSameCycleFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-cycle events reordered: got %v", order)
		}
	}
}

func TestEngineZeroDelayRunsSameCycle(t *testing.T) {
	e := NewEngine()
	var at Time = TimeMax
	e.Schedule(7, func() {
		e.Schedule(0, func() { at = e.Now() })
	})
	e.Run()
	if at != 7 {
		t.Fatalf("zero-delay event ran at %d, want 7", at)
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Schedule(10, func() { ran++ })
	e.Schedule(20, func() { ran++ })
	e.Schedule(30, func() { ran++ })
	e.RunUntil(20)
	if ran != 2 {
		t.Fatalf("ran %d events by t=20, want 2", ran)
	}
	if e.Now() != 20 {
		t.Fatalf("clock at %d, want 20", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("%d events pending, want 1", e.Pending())
	}
	e.Run()
	if ran != 3 || e.Now() != 30 {
		t.Fatalf("after Run: ran=%d now=%d, want 3/30", ran, e.Now())
	}
}

func TestEngineRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEngine()
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Fatalf("idle RunUntil left clock at %d, want 100", e.Now())
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func(seed uint64) []uint64 {
		e := NewEngine()
		rng := NewRNG(seed)
		var trace []uint64
		var spawn func(depth int)
		spawn = func(depth int) {
			if depth > 4 {
				return
			}
			n := rng.Intn(3) + 1
			for i := 0; i < n; i++ {
				d := Time(rng.Intn(5))
				e.Schedule(d, func() {
					trace = append(trace, uint64(e.Now()))
					spawn(depth + 1)
				})
			}
		}
		spawn(0)
		e.Run()
		return trace
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("non-deterministic event count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverges at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// Property: for any set of delays, the engine visits them in sorted order.
func TestEngineOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var seen []Time
		for _, d := range delays {
			e.Schedule(Time(d), func() { seen = append(seen, e.Now()) })
		}
		e.Run()
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return len(seen) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProcessWaitAdvancesTime(t *testing.T) {
	e := NewEngine()
	var stamps []Time
	Go(e, "walker", func(p *Process) {
		for i := 0; i < 3; i++ {
			p.Wait(10)
			stamps = append(stamps, p.Now())
		}
	})
	e.Run()
	want := []Time{10, 20, 30}
	if len(stamps) != len(want) {
		t.Fatalf("got %d stamps, want %d", len(stamps), len(want))
	}
	for i := range want {
		if stamps[i] != want[i] {
			t.Errorf("stamp %d = %d, want %d", i, stamps[i], want[i])
		}
	}
}

func TestProcessesInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var trace []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			Go(e, name, func(p *Process) {
				for i := 0; i < 3; i++ {
					p.Wait(2)
					trace = append(trace, name)
				}
			})
		}
		e.Run()
		return trace
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("process interleaving not deterministic at %d: %v vs %v", i, a, b)
		}
	}
}

func TestProcessPanicPropagates(t *testing.T) {
	e := NewEngine()
	Go(e, "bomb", func(p *Process) {
		p.Wait(1)
		panic("boom")
	})
	defer func() {
		if recover() == nil {
			t.Error("process panic did not propagate to engine")
		}
	}()
	e.Run()
}

func TestProcessSuspendWake(t *testing.T) {
	e := NewEngine()
	var woke Time
	var p *Process
	p = Go(e, "sleeper", func(pr *Process) {
		wake := pr.Suspend()
		e.Schedule(99, wake)
		pr.Park()
		woke = pr.Now()
	})
	e.Run()
	if !p.done {
		t.Fatal("process never completed")
	}
	if woke != 99 {
		t.Fatalf("woke at %d, want 99", woke)
	}
}

func TestRNGDeterministicAndSpread(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverge")
		}
	}
	r := NewRNG(1)
	buckets := make([]int, 10)
	for i := 0; i < 10000; i++ {
		buckets[r.Intn(10)]++
	}
	for i, n := range buckets {
		if n < 800 || n > 1200 {
			t.Errorf("bucket %d has %d/10000 samples, expected ~1000", i, n)
		}
	}
}

func TestRNGZeroSeedUsable(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a stuck generator")
	}
}

func TestStatsCountersAndNames(t *testing.T) {
	var s Stats
	s.Counter("node0.tile0.miss").Add(3)
	s.Counter("node0.tile1.miss").Add(4)
	s.Counter("node1.tile0.miss").Inc()
	if got := s.Get("node0.tile1.miss"); got != 4 {
		t.Errorf("Get = %d, want 4", got)
	}
	if got := s.Get("node1.tile0.miss"); got != 1 {
		t.Errorf("Get = %d, want 1", got)
	}
	if got := s.Get("missing"); got != 0 {
		t.Errorf("Get(missing) = %d, want 0", got)
	}
	if names := s.Names(); len(names) != 3 || names[0] != "node0.tile0.miss" {
		t.Errorf("Names() = %v", names)
	}
}

func TestHistogramSummary(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{5, 1, 9} {
		h.Observe(v)
	}
	if h.Min != 1 || h.Max != 9 || h.Samples != 3 {
		t.Fatalf("min/max/n = %d/%d/%d", h.Min, h.Max, h.Samples)
	}
	if h.Mean() != 5 {
		t.Fatalf("mean = %f, want 5", h.Mean())
	}
}

func TestTracerRingBufferWraps(t *testing.T) {
	e := NewEngine()
	tr := NewTracer(e, 4)
	for i := 0; i < 10; i++ {
		tr.EmitT("node0", "cat", "event %d", i)
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	if evs[0].Message != "event 6" || evs[3].Message != "event 9" {
		t.Fatalf("wrong window: %v ... %v", evs[0].Message, evs[3].Message)
	}
}

func TestTracerTimestamps(t *testing.T) {
	e := NewEngine()
	tr := NewTracer(e, 16)
	e.Schedule(42, func() { tr.EmitT("node0", "x", "later") })
	e.Run()
	if tr.Events()[0].At != 42 {
		t.Fatalf("timestamp %d, want 42", tr.Events()[0].At)
	}
}
