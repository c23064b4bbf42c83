package sim

import "testing"

// The engine's event core is pooled: once the free list is warm, the
// schedule-and-execute round trip must not allocate at all. These tests pin that
// property so allocation creep fails CI instead of silently eroding the
// zero-allocation win. AllocsPerRun's first iterations warm the pool, so
// the amortized average over many runs converges to the steady state.

// TestScheduleStepZeroAlloc pins the plain-closure hot path: Schedule of a
// prebuilt func plus the Run that executes it.
func TestScheduleStepZeroAlloc(t *testing.T) {
	eng := NewEngine()
	fn := func() {}
	// Warm the pool and the heap/FIFO slices.
	for i := 0; i < 64; i++ {
		eng.Schedule(Time(i%3), fn)
	}
	eng.Run()
	if avg := testing.AllocsPerRun(1000, func() {
		eng.Schedule(1, fn)
		eng.Run()
	}); avg != 0 {
		t.Fatalf("Schedule+Run allocates %.2f/op at steady state, want 0", avg)
	}
}

// TestScheduleArgStepZeroAlloc pins the typed-callback path the hot
// subsystems (noc, cache, mem, pcie, bridge) use: a bound func(any) plus a
// pointer-shaped argument must ride the pooled event with no boxing.
func TestScheduleArgStepZeroAlloc(t *testing.T) {
	eng := NewEngine()
	type payload struct{ n int }
	arg := &payload{}
	fn := func(v any) { v.(*payload).n++ }
	for i := 0; i < 64; i++ {
		eng.ScheduleArg(Time(i%3), fn, arg)
	}
	eng.Run()
	if avg := testing.AllocsPerRun(1000, func() {
		eng.ScheduleArg(1, fn, arg)
		eng.Run()
	}); avg != 0 {
		t.Fatalf("ScheduleArg+Run allocates %.2f/op at steady state, want 0", avg)
	}
	if arg.n == 0 {
		t.Fatal("callback never ran")
	}
}

// TestSameCycleFastPathZeroAlloc pins the same-cycle FIFO: events scheduled
// for the current cycle bypass the heap entirely and must not allocate.
func TestSameCycleFastPathZeroAlloc(t *testing.T) {
	eng := NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ {
		eng.Schedule(0, fn)
	}
	eng.Run()
	if avg := testing.AllocsPerRun(1000, func() {
		eng.Schedule(0, fn)
		eng.Schedule(0, fn)
		eng.Run()
	}); avg != 0 {
		t.Fatalf("same-cycle Schedule+Run allocates %.2f/op at steady state, want 0", avg)
	}
}

// TestAfterFireZeroAlloc pins the cancellable-timer path when the timer
// fires: After hands back a value Timer (no heap box) and the pooled event
// is recycled on expiry.
func TestAfterFireZeroAlloc(t *testing.T) {
	eng := NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ {
		eng.After(1, fn)
	}
	eng.Run()
	if avg := testing.AllocsPerRun(1000, func() {
		eng.After(1, fn)
		eng.Run()
	}); avg != 0 {
		t.Fatalf("After+fire allocates %.2f/op at steady state, want 0", avg)
	}
}

// TestNextEventTimeRecyclesCancelled pins the lazy drain: when NextEventTime
// skips cancelled events at the head of the queue, their slots must land on
// the pooled free list and be reused by subsequent scheduling instead of
// growing the pool.
func TestNextEventTimeRecyclesCancelled(t *testing.T) {
	eng := NewEngine()
	fn := func() {}
	var timers [8]Timer
	for i := range timers {
		timers[i] = eng.After(5, fn)
	}
	for i := range timers {
		timers[i].Cancel()
	}
	if at, ok := eng.NextEventTime(); ok {
		t.Fatalf("only cancelled events queued, but NextEventTime reported live work at %d", at)
	}
	if got := len(eng.free); got != len(timers) {
		t.Fatalf("free list holds %d slots after draining %d cancelled events, want all recycled", got, len(timers))
	}
	poolLen := len(eng.pool)
	for range timers {
		eng.Schedule(1, fn)
	}
	if len(eng.pool) != poolLen {
		t.Fatalf("pool grew from %d to %d slots; drained slots were not reused", poolLen, len(eng.pool))
	}
	eng.Run()
}

// TestAfterCancelZeroAlloc pins the cancel path: a cancelled timer's event
// must return to the free list (via the lazy drain) without allocating.
func TestAfterCancelZeroAlloc(t *testing.T) {
	eng := NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ {
		tm := eng.After(1, fn)
		tm.Cancel()
	}
	eng.Run()
	if avg := testing.AllocsPerRun(1000, func() {
		tm := eng.After(1, fn)
		tm.Cancel()
		eng.Schedule(1, fn) // keep time advancing so cancelled slots drain
		eng.Run()
	}); avg != 0 {
		t.Fatalf("After+Cancel allocates %.2f/op at steady state, want 0", avg)
	}
}

// TestGroupHandoffZeroAlloc pins the batched envelope hand-off: once the
// per-(src,dst) outbox slices and the merge scratch are warm, parking an
// envelope (Send), merging it at the barrier (merge) and delivering it
// (AtFront + Run) must not allocate per envelope.
func TestGroupHandoffZeroAlloc(t *testing.T) {
	e0, e1 := NewEngine(), NewEngine()
	g := NewGroup(61, e0, e1)
	fn := func() {}
	drain := func() {
		e0.Run()
		e1.Run()
	}
	// Warm the outboxes, the merge scratch and both engines' pools with a
	// burst of envelopes each way.
	for i := 0; i < 64; i++ {
		g.Send(0, 1, e1.Now()+100, fn)
		g.Send(1, 0, e0.Now()+100, fn)
	}
	g.merge(g.root)
	drain()
	if avg := testing.AllocsPerRun(1000, func() {
		g.Send(0, 1, e1.Now()+100, fn)
		g.Send(1, 0, e0.Now()+100, fn)
		g.merge(g.root)
		drain()
	}); avg != 0 {
		t.Fatalf("envelope hand-off allocates %.2f/op at steady state, want 0", avg)
	}
}

// TestGroupHandoffBurstZeroAlloc is the same pin for a multi-envelope
// window: a batch of colliding deliveries exercises the canonical sort and
// must still amortize to zero allocations per window.
func TestGroupHandoffBurstZeroAlloc(t *testing.T) {
	e0, e1 := NewEngine(), NewEngine()
	g := NewGroup(61, e0, e1)
	fn := func() {}
	window := func() {
		at := e1.Now() + 100
		for i := 0; i < 16; i++ {
			g.Send(0, 1, at, fn)
		}
		g.merge(g.root)
		e1.Run()
	}
	for i := 0; i < 8; i++ {
		window()
	}
	if avg := testing.AllocsPerRun(1000, window); avg != 0 {
		t.Fatalf("16-envelope window allocates %.2f/op at steady state, want 0", avg)
	}
}

// TestGroupHandoffBatchesZeroAlloc is the burst pin with the envelopes
// spread out: 64 distinct (destination, cycle) batches in flight at once,
// some beyond the calendar's horizon. Batches, their buffers and the open
// list are pooled, so a steady window still allocates nothing.
func TestGroupHandoffBatchesZeroAlloc(t *testing.T) {
	e0, e1 := NewEngine(), NewEngine()
	g := NewGroup(61, e0, e1)
	fn := func() {}
	window := func() {
		at := e1.Now() + 100
		for i := Time(0); i < 64; i++ {
			g.Send(0, 1, at+4*i, fn)
			g.Send(0, 1, at+4*i, fn)
		}
		g.merge(g.root)
		e1.Run()
	}
	for i := 0; i < 8; i++ {
		window()
	}
	if avg := testing.AllocsPerRun(200, window); avg != 0 {
		t.Fatalf("64-batch window allocates %.2f/op at steady state, want 0", avg)
	}
}

// TestFarScheduleZeroAlloc pins the path beyond the calendar's horizon: a
// normal and a front-of-cycle event due several horizons out wait in the far
// heap, whose slice is reused once warm.
func TestFarScheduleZeroAlloc(t *testing.T) {
	eng := NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ {
		eng.Schedule(3*horizon, fn)
		eng.AtFront(eng.Now()+2*horizon+1, fn)
	}
	eng.Run()
	if avg := testing.AllocsPerRun(1000, func() {
		eng.Schedule(3*horizon, fn)
		eng.AtFront(eng.Now()+2*horizon+1, fn)
		eng.Run()
	}); avg != 0 {
		t.Fatalf("beyond-horizon Schedule+AtFront+Run allocates %.2f/op at steady state, want 0", avg)
	}
}
