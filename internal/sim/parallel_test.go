package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// TestPendingCountsLiveEvents is the regression test for the live-event
// counter: cancelled timers must not count as pending work, and a timer
// cancelled after it fired must not double-decrement.
func TestPendingCountsLiveEvents(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {})
	e.Schedule(20, func() {})
	tm := e.After(15, func() { t.Error("cancelled timer fired") })
	if e.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", e.Pending())
	}
	tm.Cancel()
	if e.Pending() != 2 {
		t.Fatalf("Pending after cancel = %d, want 2 (cancelled timer still counted)", e.Pending())
	}
	tm.Cancel() // double cancel is a no-op
	if e.Pending() != 2 {
		t.Fatalf("Pending after double cancel = %d, want 2", e.Pending())
	}
	fired := false
	tm2 := e.After(30, func() { fired = true })
	e.Run()
	if !fired {
		t.Fatal("live timer did not fire")
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending after drain = %d, want 0", e.Pending())
	}
	tm2.Cancel() // cancel after fire is a no-op
	if e.Pending() != 0 {
		t.Fatalf("Pending after post-fire cancel = %d, want 0 (double decrement)", e.Pending())
	}
}

// TestAtFrontRunsBeforeSameCycleEvents checks the delivery priority: an
// AtFront event runs before every ordinarily scheduled event of its cycle,
// even ones scheduled earlier.
func TestAtFrontRunsBeforeSameCycleEvents(t *testing.T) {
	e := NewEngine()
	var order []string
	e.At(10, func() { order = append(order, "normal1") })
	e.At(10, func() { order = append(order, "normal2") })
	e.AtFront(10, func() { order = append(order, "deliver") })
	e.Run()
	want := []string{"deliver", "normal1", "normal2"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// crossModel is a little two-shard system used to compare the serial and
// sharded execution modes: each shard runs a local tick loop and
// periodically sends the other shard a message that schedules follow-up
// local work. Every executed action appends (time, label) to its shard's
// own log — shard-owned state, mirroring how the real system keeps
// per-shard stats registries and merges them after the run.
type crossModel struct {
	log  [][]string
	engs []*Engine // engine per shard (aliases in serial mode)
	net  CrossNet
	la   Time
}

func (m *crossModel) record(shard int, t Time, label string) {
	m.log[shard] = append(m.log[shard], fmt.Sprintf("@%d:%s", t, label))
}

// start seeds each shard with a tick loop: ticks+sends happen on a stride
// chosen so deliveries from both shards collide on the same destination
// cycle, exercising the canonical tie-break.
func (m *crossModel) start(rounds int) {
	for s := range m.engs {
		s := s
		e := m.engs[s]
		var tick func(i int)
		tick = func(i int) {
			m.record(s, e.Now(), fmt.Sprintf("tick%d", i))
			if i >= rounds {
				return
			}
			dst := 1 - s
			// Both shards send so the deliveries land on the same cycle
			// at the same destination.
			at := (e.Now()/m.la+2)*m.la + Time(7)
			m.net.Send(s, dst, at, func() {
				m.record(dst, m.engs[dst].Now(), fmt.Sprintf("recv%d-from%d", i, s))
				m.engs[dst].Schedule(3, func() {
					m.record(dst, m.engs[dst].Now(), fmt.Sprintf("follow%d-from%d", i, s))
				})
			})
			e.Schedule(m.la/2+Time(s), func() { tick(i + 1) })
		}
		e.Schedule(Time(s+1), func() { tick(0) })
	}
}

// TestGroupMatchesSerialNet drives the same model through the sharded Group
// and the single-engine SerialNet and requires identical logs, final times
// and per-engine clock alignment.
func TestGroupMatchesSerialNet(t *testing.T) {
	const la = Time(61)
	const rounds = 12

	serial := &crossModel{la: la, log: make([][]string, 2)}
	se := NewEngine()
	serial.engs = []*Engine{se, se}
	serial.net = NewSerialNet(se)
	serial.start(rounds)
	serialEnd := se.Run()

	sharded := &crossModel{la: la, log: make([][]string, 2)}
	e0, e1 := NewEngine(), NewEngine()
	g := NewGroup(la, e0, e1)
	sharded.engs = []*Engine{e0, e1}
	sharded.net = g
	sharded.start(rounds)
	shardedEnd := g.Run()

	for s := 0; s < 2; s++ {
		if !reflect.DeepEqual(serial.log[s], sharded.log[s]) {
			t.Fatalf("shard %d logs diverge:\nserial:  %v\nsharded: %v", s, serial.log[s], sharded.log[s])
		}
	}
	if serialEnd != shardedEnd {
		t.Fatalf("final time diverges: serial %d, sharded %d", serialEnd, shardedEnd)
	}
	if e0.Now() != shardedEnd || e1.Now() != shardedEnd {
		t.Fatalf("shard clocks not aligned after Run: %d, %d, want %d", e0.Now(), e1.Now(), shardedEnd)
	}
}

// TestOneEngineGroupMatchesSerialNet is the serial case: both endpoints of
// the model on one engine under a one-engine Group, whose window runs
// straight through. Logs and final time must equal the SerialNet oracle's at
// every widening cap, and the windows must widen every time (no send ever
// parks in an outbox to collapse them).
func TestOneEngineGroupMatchesSerialNet(t *testing.T) {
	const la = Time(61)
	const rounds = 12

	serial := &crossModel{la: la, log: make([][]string, 2)}
	se := NewEngine()
	serial.engs = []*Engine{se, se}
	serial.net = NewSerialNet(se)
	serial.start(rounds)
	serialEnd := se.Run()

	for _, cap := range []int{1, 4, DefaultAdaptiveCap} {
		m := &crossModel{la: la, log: make([][]string, 2)}
		e := NewEngine()
		g := NewHierGroup(la, la, [][]*Engine{{e}}, []int{0, 0})
		g.SetAdaptive(cap)
		m.engs = []*Engine{e, e}
		m.net = g
		m.start(rounds)
		end := g.Run()
		if !reflect.DeepEqual(serial.log, m.log) {
			t.Fatalf("cap %d: logs diverge:\noracle: %v\ngroup:  %v", cap, serial.log, m.log)
		}
		if end != serialEnd || e.Now() != serialEnd {
			t.Fatalf("cap %d: final time %d (engine clock %d), want %d", cap, end, e.Now(), serialEnd)
		}
		sn := g.SyncSnapshot()
		if want := min(cap, 1<<sn.Windows); sn.Width != want || sn.Collapses != 0 {
			t.Errorf("cap %d: width %d after %d windows, %d collapses; want %d (doubling every window), none",
				cap, sn.Width, sn.Windows, sn.Collapses, want)
		}
	}
}

// hierModel extends the cross-shard model to two latency classes: four
// endpoints in two clusters of two, where intra-cluster sends pay the inner
// crossing and cross-cluster sends pay the outer one. Each endpoint ticks
// locally and alternates a near (cluster-mate) and a far (other cluster)
// send, so inner windows, outer chunks and both merge paths all carry
// traffic.
type hierModel struct {
	log   [][]string
	engs  []*Engine
	net   CrossNet
	outer Time
	inner Time
}

func (m *hierModel) record(shard int, t Time, label string) {
	m.log[shard] = append(m.log[shard], fmt.Sprintf("@%d:%s", t, label))
}

func (m *hierModel) start(rounds int) {
	for s := range m.engs {
		s := s
		e := m.engs[s]
		var tick func(i int)
		tick = func(i int) {
			m.record(s, e.Now(), fmt.Sprintf("tick%d", i))
			if i >= rounds {
				return
			}
			// Even rounds reach the cluster-mate at the inner latency; odd
			// rounds cross clusters at the outer one. Delivery cycles are
			// aligned so sends from several sources collide.
			var dst int
			var lat Time
			if i%2 == 0 {
				dst, lat = s^1, m.inner
			} else {
				dst, lat = (s+2)%len(m.engs), m.outer
			}
			at := (e.Now()/lat+2)*lat + 3
			m.net.Send(s, dst, at, func() {
				m.record(dst, m.engs[dst].Now(), fmt.Sprintf("recv%d-from%d", i, s))
				m.engs[dst].Schedule(1, func() {
					m.record(dst, m.engs[dst].Now(), fmt.Sprintf("follow%d-from%d", i, s))
				})
			})
			e.Schedule(m.inner+Time(s), func() { tick(i + 1) })
		}
		e.Schedule(Time(s+1), func() { tick(0) })
	}
}

// TestHierGroupMatchesSerialNet drives the two-latency model through the
// hierarchical synchronizer (two clusters of two engines, inner windows
// nested in outer chunks) and the serial reference, and requires identical
// logs, final times and clock alignment — for fixed windows and a spread of
// adaptive caps. This is the unit-level equivalence proof for per-node
// sharding; in particular a multi-engine cluster must actually execute its
// members inside each chunk (a protocol inversion here livelocks, which the
// test surfaces as a timeout).
func TestHierGroupMatchesSerialNet(t *testing.T) {
	const outer, inner = Time(61), Time(7)
	const rounds = 12

	serial := &hierModel{outer: outer, inner: inner, log: make([][]string, 4)}
	se := NewEngine()
	serial.engs = []*Engine{se, se, se, se}
	serial.net = NewSerialNet(se)
	serial.start(rounds)
	serialEnd := se.Run()

	for _, cap := range []int{1, 4, DefaultAdaptiveCap} {
		t.Run(fmt.Sprintf("cap%d", cap), func(t *testing.T) {
			sharded := &hierModel{outer: outer, inner: inner, log: make([][]string, 4)}
			engs := make([]*Engine, 4)
			for i := range engs {
				engs[i] = NewEngine()
			}
			g := NewHierGroup(outer, inner,
				[][]*Engine{{engs[0], engs[1]}, {engs[2], engs[3]}},
				[]int{0, 1, 2, 3})
			g.SetAdaptive(cap)
			sharded.engs = engs
			sharded.net = g
			sharded.start(rounds)
			shardedEnd := g.Run()

			for s := range serial.log {
				if !reflect.DeepEqual(serial.log[s], sharded.log[s]) {
					t.Fatalf("shard %d logs diverge:\nserial:  %v\nsharded: %v", s, serial.log[s], sharded.log[s])
				}
			}
			if serialEnd != shardedEnd {
				t.Fatalf("final time diverges: serial %d, sharded %d", serialEnd, shardedEnd)
			}
			for i, e := range engs {
				if e.Now() != shardedEnd {
					t.Fatalf("engine %d clock %d not aligned to %d", i, e.Now(), shardedEnd)
				}
			}
			sn := g.SyncSnapshot()
			if len(sn.Inner) != 2 {
				t.Fatalf("got %d inner views, want 2", len(sn.Inner))
			}
			for ci, iv := range sn.Inner {
				if iv.Windows == 0 {
					t.Errorf("cluster %d ran no inner windows", ci)
				}
			}
		})
	}
}

// TestLevelBooksWithoutFinalRendezvous pins the books of windows whose
// members leave the final planned chunk without meeting: a width-1 inner
// window, inner windows whose last chunk the root chunk's end cuts short, one
// that traffic ends on its second-to-last chunk and one that idleness ends.
// The window sequences below are worked out by hand from the rules in the
// package comment (outer 20, inner 7, cap 4, every engine ticking each cycle
// 1..70, engine 0 sending its cluster-mate one envelope at cycle 30); the
// books — windows, chunks, widenings, collapses, horizon — are theirs.
func TestLevelBooksWithoutFinalRendezvous(t *testing.T) {
	engs := []*Engine{NewEngine(), NewEngine(), NewEngine()}
	g := NewHierGroup(20, 7, [][]*Engine{{engs[0], engs[1]}, {engs[2]}}, []int{0, 1, 2})
	g.SetAdaptive(4)
	var deliveredAt Time
	for s, e := range engs {
		var tick func()
		tick = func() {
			if s == 0 && e.Now() == 30 {
				g.Send(0, 1, 37, func() { deliveredAt = engs[1].Now() })
			}
			if e.Now() < 70 {
				e.Schedule(1, tick)
			}
		}
		e.Schedule(1, tick)
	}
	if end := g.Run(); end != 70 || deliveredAt != 37 {
		t.Fatalf("run ended at %d with the envelope delivered at %d; want 70, 37", end, deliveredAt)
	}

	// Root, as (start, chunks run): [1,21) at width 1; [21,61) at width 2;
	// [61,141) planned at width 4 and over after one chunk, nobody having work
	// left — (1,1) (21,2) (61,1).
	// Cluster 0, tiling those chunks: [1,8) is a width-1 window; [8,21) is
	// cut short by the chunk's end ([15,21) is six cycles); [21,41) plans
	// three chunks and parks the envelope in its second; [35,41) runs at the
	// collapsed width, cut short again; [41,55), [55,61) tile the next root
	// chunk; [61,81) plans three chunks and runs dry in its second —
	// (1,1) (8,2) (21,2) (35,1) (41,2) (55,1) (61,2).

	sn := g.SyncSnapshot()
	if len(sn.Inner) != 1 {
		t.Fatalf("got %d inner views, want 1 (the singleton cluster has no level)", len(sn.Inner))
	}
	wantRoot := LevelSync{Windows: 3, Chunks: 4, Lookahead: 20, Width: 4, WidthCap: 4, Widenings: 2}
	wantInner := LevelSync{Windows: 7, Chunks: 11, Lookahead: 7, Width: 4, WidthCap: 4, Widenings: 4, Collapses: 1}
	if sn.LevelSync != wantRoot {
		t.Errorf("root books %+v, want %+v", sn.LevelSync, wantRoot)
	}
	if sn.Inner[0].LevelSync != wantInner {
		t.Errorf("inner books %+v, want %+v", sn.Inner[0].LevelSync, wantInner)
	}
	if sn.Horizon != 81 {
		t.Errorf("horizon %d, want 81 (the last root window reached one chunk)", sn.Horizon)
	}
}

// TestHierGroupInnerUndercutPanics checks the nested lookahead contract: an
// intra-cluster send below the inner crossing must panic, while one at
// exactly the inner bound — far below the outer lookahead — is legal.
func TestHierGroupInnerUndercutPanics(t *testing.T) {
	const outer, inner = Time(61), Time(7)
	engs := []*Engine{NewEngine(), NewEngine(), NewEngine(), NewEngine()}
	g := NewHierGroup(outer, inner,
		[][]*Engine{{engs[0], engs[1]}, {engs[2], engs[3]}},
		[]int{0, 1, 2, 3})
	ok := false
	panicked := false
	engs[0].Schedule(5, func() {
		g.Send(0, 1, engs[0].Now()+inner, func() { ok = true }) // inner bound: fine
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		g.Send(0, 1, engs[0].Now()+inner-1, func() {})
	})
	g.Run()
	if !ok {
		t.Fatal("legal intra-cluster send was not delivered")
	}
	if !panicked {
		t.Fatal("intra-cluster send below the inner crossing did not panic")
	}
}

// TestGroupSingleShardMatchesSerial runs the degenerate one-shard group:
// windowed execution of a purely local model must not change anything.
func TestGroupSingleShardMatchesSerial(t *testing.T) {
	run := func(e *Engine, drain func() Time) (log []Time, end Time) {
		for i := 0; i < 5; i++ {
			d := Time(10 * (i + 1))
			e.Schedule(d, func() { log = append(log, e.Now()) })
		}
		return log, drain()
	}
	se := NewEngine()
	wantLog, wantEnd := run(se, se.Run)

	pe := NewEngine()
	g := NewGroup(61, pe)
	gotLog, gotEnd := run(pe, g.Run)
	_ = gotLog
	if wantEnd != gotEnd {
		t.Fatalf("end time %d, want %d", gotEnd, wantEnd)
	}
	if !reflect.DeepEqual(wantLog, gotLog) {
		t.Fatalf("log %v, want %v", gotLog, wantLog)
	}
}

// TestGroupSendInsideWindowPanics checks the lookahead guard: a model whose
// cross-shard latency undercuts the window must be caught, not silently
// reordered.
func TestGroupSendInsideWindowPanics(t *testing.T) {
	e0, e1 := NewEngine(), NewEngine()
	g := NewGroup(61, e0, e1)
	panicked := false
	e0.Schedule(5, func() {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		g.Send(0, 1, e0.Now()+1, func() {}) // far below lookahead
	})
	g.Run()
	if !panicked {
		t.Fatal("undercutting send did not panic")
	}
}

// TestGroupSendOutOfRangePanics checks the endpoint range: the host endpoint
// (-1) is the only id below the node range, and nothing at or past the
// endpoint count gets through.
func TestGroupSendOutOfRangePanics(t *testing.T) {
	for _, ep := range [][2]int{{-2, 0}, {0, -2}, {2, 0}, {0, 2}} {
		g := NewGroup(61, NewEngine(), NewEngine())
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("send %d->%d on a 2-endpoint group did not panic", ep[0], ep[1])
				}
			}()
			g.Send(ep[0], ep[1], 100, func() {})
		}()
	}
}

// TestGroupHostEndpointMatchesSerialNet drives host-side traffic (endpoint
// -1, on engine 0) through a one-engine and a two-engine group and requires
// the delivery order the SerialNet oracle produces, host and node sources
// colliding on one (destination, cycle).
func TestGroupHostEndpointMatchesSerialNet(t *testing.T) {
	script := func(eng *Engine, net CrossNet, log *[]string) {
		note := func(s string) func() {
			return func() { *log = append(*log, fmt.Sprintf("%s@%d", s, eng.Now())) }
		}
		eng.Schedule(0, func() {
			net.Send(0, 0, 100, note("n0#1"))
			net.Send(-1, 0, 100, note("host#1"))
			net.Send(-1, 0, 100, note("host#2"))
			net.Send(0, -1, 150, note("to-host"))
		})
	}
	var want []string
	se := NewEngine()
	script(se, NewSerialNet(se), &want)
	se.Run()
	if len(want) != 4 || want[0] != "host#1@100" {
		t.Fatalf("oracle order %v", want)
	}
	for _, engines := range []int{1, 2} {
		es := make([]*Engine, engines)
		for i := range es {
			es[i] = NewEngine()
		}
		g := NewGroup(61, es...)
		var got []string
		script(es[0], g, &got)
		g.Run()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%d engines: order %v, want %v", engines, got, want)
		}
	}
}

// TestSerialNetCanonicalOrder checks the tie-break: deliveries colliding on
// one (destination, cycle) apply in (send time, source, sequence) order
// regardless of Send call order.
func TestSerialNetCanonicalOrder(t *testing.T) {
	e := NewEngine()
	n := NewSerialNet(e)
	var order []string
	// Sends issued from interleaved "shard" contexts at time 0; all deliver
	// at cycle 100.
	e.Schedule(0, func() {
		n.Send(2, 0, 100, func() { order = append(order, "src2#1") })
		n.Send(1, 0, 100, func() { order = append(order, "src1#1") })
		n.Send(1, 0, 100, func() { order = append(order, "src1#2") })
	})
	e.Schedule(40, func() {
		// Later send time loses to earlier, even from a smaller source.
		n.Send(0, 0, 100, func() { order = append(order, "src0-late") })
	})
	e.Run()
	want := []string{"src1#1", "src1#2", "src2#1", "src0-late"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("delivery order %v, want %v", order, want)
	}
}

// TestSpoolFlushReentrant pins a delivery sent to its own (destination,
// cycle) from inside that cycle's flush: the flushing batch is already
// closed, so the send opens a new batch whose flush follows it — still at
// the front of the cycle, ahead of local work scheduled before or during the
// deliveries, and in canonical order — under the SerialNet oracle and a
// one- and two-engine Group alike.
func TestSpoolFlushReentrant(t *testing.T) {
	const la, at = Time(61), Time(100)
	run := func(engs []*Engine, net CrossNet, drain func() Time) []string {
		var order []string
		dst := engs[1]
		rec := func(label string) func() {
			return func() {
				if dst.Now() != at {
					t.Errorf("%s ran at %d, want %d", label, dst.Now(), at)
				}
				order = append(order, label)
			}
		}
		dst.At(at, rec("local"))
		engs[1].At(5, func() { net.Send(1, 1, at, rec("from1@5")) })
		engs[0].At(10, func() {
			net.Send(0, 1, at, func() {
				rec("from0@10")()
				dst.Schedule(0, rec("local-zero"))
				net.Send(1, 1, at, func() {
					rec("again1")()
					net.Send(1, 1, at, rec("again3"))
				})
				net.Send(1, 1, at, rec("again2"))
			})
		})
		engs[1].At(10, func() { net.Send(1, 1, at, rec("from1@10")) })
		drain()
		return order
	}
	want := []string{"from1@5", "from0@10", "from1@10", "again1", "again2", "again3", "local", "local-zero"}

	se := NewEngine()
	if got := run([]*Engine{se, se}, NewSerialNet(se), se.Run); !reflect.DeepEqual(got, want) {
		t.Fatalf("SerialNet: order %v, want %v", got, want)
	}
	e := NewEngine()
	g1 := NewHierGroup(la, la, [][]*Engine{{e}}, []int{0, 0})
	if got := run([]*Engine{e, e}, g1, g1.Run); !reflect.DeepEqual(got, want) {
		t.Fatalf("one-engine Group: order %v, want %v", got, want)
	}
	e0, e1 := NewEngine(), NewEngine()
	g2 := NewGroup(la, e0, e1)
	if got := run([]*Engine{e0, e1}, g2, g2.Run); !reflect.DeepEqual(got, want) {
		t.Fatalf("two-engine Group: order %v, want %v", got, want)
	}
}

// TestGroupSyncTelemetry drives the cross-shard model and checks the
// synchronizer's window/envelope accounting: SyncSnapshot at barriers and at
// the end, and OnBarrier firing once per window while the group is quiescent.
func TestGroupSyncTelemetry(t *testing.T) {
	const la = Time(61)
	m := &crossModel{la: la, log: make([][]string, 2)}
	e0, e1 := NewEngine(), NewEngine()
	g := NewGroup(la, e0, e1)
	m.engs = []*Engine{e0, e1}
	m.net = g
	m.start(8)

	barriers := 0
	var lastWindows, lastCritical uint64
	g.OnBarrier(func() {
		barriers++
		sn := g.SyncSnapshot()
		if sn.CriticalEvents <= lastCritical {
			t.Errorf("barrier %d: critical path %d events after %d; every window executes something", barriers, sn.CriticalEvents, lastCritical)
		}
		lastCritical = sn.CriticalEvents
		if sn.Windows != uint64(barriers) {
			t.Errorf("barrier %d: windows = %d", barriers, sn.Windows)
		}
		if sn.Windows < lastWindows {
			t.Errorf("windows went backwards: %d after %d", sn.Windows, lastWindows)
		}
		lastWindows = sn.Windows
		if sn.Horizon == 0 {
			t.Error("horizon not set at barrier")
		}
		if sn.Chunks < sn.Windows {
			t.Errorf("barrier %d: %d chunks for %d windows", barriers, sn.Chunks, sn.Windows)
		}
		if len(sn.Shards) != 2 {
			t.Fatalf("got %d shard views, want 2", len(sn.Shards))
		}
		for _, s := range sn.Shards {
			if s.LastEvent >= sn.Horizon {
				t.Errorf("shard %d ran to %d, beyond horizon %d", s.Shard, s.LastEvent, sn.Horizon)
			}
		}
	})
	g.Run()

	final := g.SyncSnapshot()
	if barriers == 0 || uint64(barriers) != final.Windows {
		t.Fatalf("OnBarrier fired %d times for %d windows", barriers, final.Windows)
	}
	var in, out, events, most uint64
	for i, s := range final.Shards {
		if s.Windows == 0 {
			t.Errorf("shard %d never ran a window", s.Shard)
		}
		if s.Pending != 0 {
			t.Errorf("shard %d still has %d pending after drain", s.Shard, s.Pending)
		}
		if s.Events != m.engs[i].Executed() {
			t.Errorf("shard %d reports %d events, its engine executed %d", s.Shard, s.Events, m.engs[i].Executed())
		}
		in += s.EnvIn
		out += s.EnvOut
		events += s.Events
		most = max(most, s.Events)
	}
	// The critical path takes the busier shard of every chunk: no shorter
	// than the busiest shard's whole run, no longer than everything.
	if c := final.CriticalEvents; c < most || c > events {
		t.Errorf("critical path %d events outside [%d, %d]", c, most, events)
	}
	if final.CriticalEvents != lastCritical {
		t.Errorf("critical path %d after the drain, %d at the last barrier", final.CriticalEvents, lastCritical)
	}
	// Every envelope sent was delivered: 8 rounds, both shards send each round.
	if out == 0 || in != out {
		t.Fatalf("envelope accounting: in %d, out %d", in, out)
	}

	// The critical path by hand: clusters {0,1} and {2}, fixed windows of ten
	// cycles. [1,11): cluster 0 executes 2+1 events, cluster 1 four — 4.
	// [20,30): one each — 1. [40,50): engine 1 alone, three — 3.
	engs := []*Engine{NewEngine(), NewEngine(), NewEngine()}
	hg := NewHierGroup(10, 5, [][]*Engine{{engs[0], engs[1]}, {engs[2]}}, []int{0, 1, 2})
	for i, at := range [][]Time{{1, 2, 20}, {3, 40, 41, 42}, {1, 2, 3, 4, 21}} {
		for _, c := range at {
			engs[i].At(c, func() {})
		}
	}
	hg.Run()
	sn := hg.SyncSnapshot()
	if sn.Windows != 3 || sn.CriticalEvents != 8 {
		t.Errorf("hand-sized run: %d windows, critical path %d events; want 3, 8", sn.Windows, sn.CriticalEvents)
	}
	for i, want := range []uint64{3, 4, 5} {
		if sn.Shards[i].Events != want {
			t.Errorf("hand-sized run: shard %d executed %d events, want %d", i, sn.Shards[i].Events, want)
		}
	}
}

// TestGroupAdaptiveMatchesSerialNet re-runs the cross-shard model under a
// range of adaptive widening caps: whatever the window widths do, the logs
// and final times must stay identical to the serial reference — widening is
// execution scheduling, not model behavior.
func TestGroupAdaptiveMatchesSerialNet(t *testing.T) {
	const la = Time(61)
	const rounds = 12

	serial := &crossModel{la: la, log: make([][]string, 2)}
	se := NewEngine()
	serial.engs = []*Engine{se, se}
	serial.net = NewSerialNet(se)
	serial.start(rounds)
	serialEnd := se.Run()

	for _, cap := range []int{2, 8, DefaultAdaptiveCap} {
		t.Run(fmt.Sprintf("cap%d", cap), func(t *testing.T) {
			sharded := &crossModel{la: la, log: make([][]string, 2)}
			e0, e1 := NewEngine(), NewEngine()
			g := NewGroup(la, e0, e1)
			g.SetAdaptive(cap)
			sharded.engs = []*Engine{e0, e1}
			sharded.net = g
			sharded.start(rounds)
			shardedEnd := g.Run()

			for s := 0; s < 2; s++ {
				if !reflect.DeepEqual(serial.log[s], sharded.log[s]) {
					t.Fatalf("shard %d logs diverge under cap %d:\nserial:  %v\nsharded: %v",
						s, cap, serial.log[s], sharded.log[s])
				}
			}
			if serialEnd != shardedEnd {
				t.Fatalf("final time diverges under cap %d: serial %d, sharded %d", cap, serialEnd, shardedEnd)
			}
		})
	}
}

// TestAdaptiveCollapse pins the width policy: quiet windows double the width
// geometrically up to the cap, and the width snaps back to the minimum
// crossing within one window of cross-shard traffic reappearing.
func TestAdaptiveCollapse(t *testing.T) {
	const la = Time(10)
	e0, e1 := NewEngine(), NewEngine()
	g := NewGroup(la, e0, e1)
	g.SetAdaptive(8)

	// Both shards tick densely so every chunk has local work; one send from
	// shard 0 fires mid-run.
	delivered := false
	for s, e := range []*Engine{e0, e1} {
		e := e
		n := 0
		var tick func()
		tick = func() {
			n++
			if n < 800 {
				e.Schedule(1, tick)
			}
		}
		e.Schedule(Time(s+1), tick)
	}
	e0.Schedule(300, func() {
		g.Send(0, 1, e0.Now()+la, func() { delivered = true })
	})

	var widths []int
	collapsedAt := -1
	sawCap := false
	for g.StepWindow() {
		sn := g.SyncSnapshot()
		widths = append(widths, sn.Width)
		if sn.Width == 8 {
			sawCap = true
		}
		if sn.Collapses == 1 && collapsedAt < 0 {
			collapsedAt = len(widths) - 1
			if sn.Width != 1 {
				t.Fatalf("width %d one window after traffic reappeared, want 1 (widths: %v)", sn.Width, widths)
			}
		}
	}
	if !delivered {
		t.Fatal("cross-shard send never delivered")
	}
	if !sawCap {
		t.Fatalf("width never reached the cap 8 during quiet phase (widths: %v)", widths)
	}
	if collapsedAt < 0 {
		t.Fatalf("width never collapsed after traffic (widths: %v)", widths)
	}
	// Quiet prefix doubles geometrically: next-window widths 2, 4, 8, 8, ...
	for i := 0; i < collapsedAt; i++ {
		want := 2 << i
		if want > 8 {
			want = 8
		}
		if widths[i] != want {
			t.Fatalf("quiet window %d: next width %d, want %d (widths: %v)", i, widths[i], want, widths)
		}
	}
	sn := g.SyncSnapshot()
	if sn.Widenings == 0 || sn.Collapses != 1 {
		t.Fatalf("widenings %d, collapses %d; want >0, 1", sn.Widenings, sn.Collapses)
	}
	if sn.Chunks <= sn.Windows {
		t.Fatalf("chunks %d not above windows %d; widening never took effect", sn.Chunks, sn.Windows)
	}
}

// TestWindowDigestDeterminism runs the same model twice under the same cap
// and requires identical window books (count, chunks) — scheduling is a pure
// function of the simulation — and a different cap to book different ones.
func TestWindowDigestDeterminism(t *testing.T) {
	// A model with a long quiet phase, so adaptive widening actually differs
	// from fixed windows: dense local ticks on both shards, one mid-run send.
	run := func(cap int) (uint64, uint64) {
		e0, e1 := NewEngine(), NewEngine()
		g := NewGroup(10, e0, e1)
		g.SetAdaptive(cap)
		for s, e := range []*Engine{e0, e1} {
			e := e
			n := 0
			var tick func()
			tick = func() {
				n++
				if n < 600 {
					e.Schedule(1, tick)
				}
			}
			e.Schedule(Time(s+1), tick)
		}
		e0.Schedule(250, func() { g.Send(0, 1, e0.Now()+10, func() {}) })
		g.Run()
		return g.Windows(), g.Chunks()
	}
	w1, c1 := run(8)
	w2, c2 := run(8)
	if w1 != w2 || c1 != c2 {
		t.Fatalf("same cap diverged: (%d,%d) vs (%d,%d)", w1, c1, w2, c2)
	}
	wf, cf := run(1)
	if wf == w1 {
		t.Fatalf("fixed and adaptive runs booked the same %d windows", wf)
	}
	if cf < c1 {
		// Chunks normalize windows to lookahead units; the fixed run pays one
		// window per chunk, so it can only have at least as many.
		t.Fatalf("fixed run executed %d chunks, adaptive %d", cf, c1)
	}
}

// TestSerialNetMinLatencyGuard checks the serial side of the lookahead
// contract: once armed, a send undercutting the minimum crossing panics
// instead of silently diverging from what a sharded run would do.
func TestSerialNetMinLatencyGuard(t *testing.T) {
	e := NewEngine()
	n := NewSerialNet(e)
	n.SetMinLatency(61)
	ok := false
	e.Schedule(5, func() {
		n.Send(0, 1, e.Now()+61, func() { ok = true }) // exactly the bound: fine
		defer func() {
			if recover() == nil {
				t.Error("undercutting serial send did not panic")
			}
		}()
		n.Send(0, 1, e.Now()+60, func() {})
	})
	e.Run()
	if !ok {
		t.Fatal("legal send was not delivered")
	}
}

// TestDeal checks the one rule that hands a window's engines to workers:
// the shares are the participants cut into contiguous, non-empty runs, at
// most one per worker and exactly one per worker when there are engines
// enough; a share that reaches into two clusters holds both whole; and when
// clusters are split, no cluster gets two workers more than another.
func TestDeal(t *testing.T) {
	for _, r := range []struct {
		name   string
		sizes  []int
		ws     []int
		uneven bool // a cluster may run out of engines before it runs out of workers
	}{
		{"4 clusters of 2", []int{2, 2, 2, 2}, []int{1, 2, 3, 4, 5, 6, 7, 8}, false},
		{"2 clusters of 2", []int{2, 2}, []int{3}, false},
		{"one busy cluster", []int{2}, []int{1, 2}, false},
		{"one busy cluster of 4", []int{4}, []int{1, 2, 3, 4}, false},
		{"singletons", []int{1, 1, 1, 1}, []int{1, 2, 3, 4}, false},
		{"clusters of 1 and 3", []int{1, 3}, []int{1, 2, 3, 4}, true},
	} {
		// Engines 10, 11, ... so an index is never mistaken for an engine.
		var parts, cluster []int
		for ci, n := range r.sizes {
			for i := 0; i < n; i++ {
				cluster = append(cluster, ci)
				parts = append(parts, 10+len(parts))
			}
		}
		for _, w := range r.ws {
			shares := deal(nil, parts, r.sizes, w)
			if len(shares) > w || (len(shares) < w && !r.uneven) {
				t.Errorf("%s, %d workers: %d shares", r.name, w, len(shares))
			}
			at := 0
			workers := make([]int, len(r.sizes)) // shares holding a piece of each cluster
			for _, own := range shares {
				if len(own) == 0 {
					t.Errorf("%s, %d workers: empty share in %v", r.name, w, shares)
					continue
				}
				for i, ei := range own {
					if at == len(parts) || ei != parts[at] {
						t.Fatalf("%s, %d workers: shares %v are not %v cut into runs", r.name, w, shares, parts)
					}
					if ci := cluster[at]; i == 0 || ci != cluster[at-1] {
						workers[ci]++
					}
					at++
				}
				first, last := cluster[at-len(own)], cluster[at-1]
				if first != last {
					// Two clusters in one share: it starts at the first one's
					// first engine and ends at the last one's last.
					if lo := at - len(own); lo > 0 && cluster[lo-1] == first || at < len(parts) && cluster[at] == last {
						t.Errorf("%s, %d workers: share %v straddles a cluster it does not hold whole", r.name, w, own)
					}
				}
			}
			if at != len(parts) {
				t.Errorf("%s, %d workers: shares %v leave engines out of %v", r.name, w, shares, parts)
			}
			lo, hi := workers[0], workers[0]
			for _, n := range workers {
				lo, hi = min(lo, n), max(hi, n)
			}
			if lo < 1 || (hi > lo+1 && !r.uneven) {
				t.Errorf("%s, %d workers: clusters have %v workers each", r.name, w, workers)
			}
		}
	}
	// Every engine its own worker is the same rule, not another one.
	if got := deal(nil, []int{0, 1, 2, 3}, []int{2, 2}, 4); !reflect.DeepEqual(got, [][]int{{0}, {1}, {2}, {3}}) {
		t.Errorf("4 workers over 2 clusters of 2: %v", got)
	}
	if got := deal(nil, []int{0, 1, 2, 3, 4, 5}, []int{2, 2, 2}, 2); !reflect.DeepEqual(got, [][]int{{0, 1}, {2, 3, 4, 5}}) {
		t.Errorf("2 workers over 3 clusters of 2: %v", got)
	}
}

// TestWorkersExitOnDrainAndClose: the workers are goroutines of the group
// that live from window to window — and no longer than the run. A drained
// Run leaves none behind without anyone closing the group; a group
// abandoned mid-run gives them up in Close, and runs on afterwards. A worker
// signals its exit from a deferred call, before its goroutine has ended, so
// each count is awaited (2 s at most), not read once.
func TestWorkersExitOnDrainAndClose(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ticking := func() *Group {
		engs := make([]*Engine, 4)
		for i := range engs {
			e := NewEngine()
			var tick func()
			tick = func() {
				if e.Now() < 400 {
					e.Schedule(1, tick)
				}
			}
			e.Schedule(1, tick)
			engs[i] = e
		}
		return NewGroup(20, engs...)
	}
	// goroutines polls the count until it reads want, and returns the last
	// reading.
	goroutines := func(want int) int {
		deadline := time.Now().Add(2 * time.Second)
		for {
			n := runtime.NumGoroutine()
			if n == want || time.Now().After(deadline) {
				return n
			}
			time.Sleep(time.Millisecond)
		}
	}
	// Earlier tests' goroutines may still be ending: base is the count once
	// two readings 10 ms apart agree.
	base := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		n := runtime.NumGoroutine()
		if n == base {
			break
		}
		base = n
	}

	g := ticking()
	between := 0
	g.OnBarrier(func() { between = max(between, runtime.NumGoroutine()-base) })
	g.Run()
	if between != 3 {
		t.Errorf("%d goroutines beyond the caller's between windows, want 3 persistent workers", between)
	}
	if n := goroutines(base); n != base {
		t.Errorf("%d goroutines before, %d after a drained Run", base, n)
	}

	g = ticking()
	for i := 0; i < 3; i++ {
		g.StepWindow()
	}
	if n := goroutines(base + 3); n != base+3 {
		t.Errorf("%d goroutines mid-run, want the caller's %d and 3 workers", n, base)
	}
	g.Close()
	g.Close()
	if n := goroutines(base); n != base {
		t.Errorf("%d goroutines before, %d after Close", base, n)
	}
	if end := g.Run(); end != 400 {
		t.Errorf("run resumed after Close ended at %d, want 400", end)
	}
	if n := goroutines(base); n != base {
		t.Errorf("%d goroutines before, %d after the resumed run drained", base, n)
	}
}
