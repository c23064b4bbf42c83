package sim

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// fuzzCaps is the adaptive-cap palette the fuzzer picks from; it spans
// fixed windows, small caps (frequent widen/collapse transitions) and the
// default.
var fuzzCaps = [...]int{1, 2, 4, 8, DefaultAdaptiveCap}

// fuzzScenario is a decoded fuzz input: a shard count, an adaptive cap and
// a list of cross-shard sends with pseudo-random issue times and latencies.
type fuzzScenario struct {
	shards int
	cap    int
	ops    []fuzzOp
}

// fuzzOp is one cross-shard send: issued on shard src at issue time, it
// delivers on dst lookahead+extra cycles later. Colliding (dst, cycle)
// pairs are common by construction — issue times and extras are drawn from
// small ranges — which is exactly what exercises the canonical merge.
type fuzzOp struct {
	src, dst int
	issue    Time
	extra    Time
}

// decodeFuzzScenario maps raw fuzz bytes onto a scenario. Every byte
// string decodes to something runnable (or nil for "too short"), so the
// fuzzer explores freely.
func decodeFuzzScenario(data []byte, la Time) *fuzzScenario {
	if len(data) < 2 {
		return nil
	}
	sc := &fuzzScenario{
		shards: 2 + int(data[0])%3, // 2..4
		cap:    fuzzCaps[int(data[1])%len(fuzzCaps)],
	}
	cursors := make([]Time, sc.shards) // per-shard issue-time cursor
	for i := 2; i+3 < len(data) && len(sc.ops) < 64; i += 4 {
		src := int(data[i]) % sc.shards
		dst := int(data[i+1]) % sc.shards
		if dst == src {
			dst = (dst + 1) % sc.shards
		}
		// Advance the source's cursor by 0..2*la-1 cycles, so consecutive
		// sends land in the same window, adjacent windows, or far apart.
		cursors[src] += Time(data[i+2]) % (2 * la)
		sc.ops = append(sc.ops, fuzzOp{
			src:   src,
			dst:   dst,
			issue: 1 + cursors[src],
			// 0..la-1 extra cycles on top of the lookahead: deliveries stay
			// legal but collide across sources at shared cycles.
			extra: Time(data[i+3]) % la,
		})
	}
	return sc
}

// fuzzDelivery is one observed delivery, recorded at the destination in
// execution order with everything the canonical contract sorts by.
type fuzzDelivery struct {
	At   Time
	Sent Time
	Src  int
	Op   int // op index; increases with the per-source sequence
}

// runFuzzScenario executes a scenario on the given net constructor and
// returns the per-shard delivery logs plus the final time. Each op is a
// scheduled event on its source engine that performs the cross-shard send
// from the source's execution context, as the real fabric does.
func runFuzzScenario(sc *fuzzScenario, la Time, engs []*Engine, net CrossNet, drain func() Time) ([][]fuzzDelivery, Time) {
	logs := make([][]fuzzDelivery, sc.shards)
	for i, op := range sc.ops {
		op, i := op, i
		src := engs[op.src]
		dst := engs[op.dst]
		src.At(op.issue, func() {
			sent := src.Now()
			net.Send(op.src, op.dst, sent+la+op.extra, func() {
				logs[op.dst] = append(logs[op.dst], fuzzDelivery{
					At: dst.Now(), Sent: sent, Src: op.src, Op: i,
				})
			})
		})
	}
	return logs, drain()
}

// FuzzEnvelopeMergeOrder is the determinism fuzz harness: for arbitrary
// shard counts, send/deliver times and adaptive caps, the serial reference,
// the fixed-window group and the adaptively-widened group must produce the
// identical delivery streams, and every same-(destination, cycle) collision
// must apply in the canonical (deliver, send, src, seq) order.
func FuzzEnvelopeMergeOrder(f *testing.F) {
	// Seeds: minimal, two-shard ping-pong, a collision-heavy burst, four
	// shards under the default cap, and a long mixed scenario. The checked-in
	// corpus under testdata/fuzz mirrors these.
	f.Add([]byte("\x00\x00"))
	f.Add([]byte("\x00\x01AB\x05\x00BA\x05\x00"))
	f.Add([]byte("\x02\x03" + "AB\x00\x07" + "BA\x00\x07" + "CA\x00\x07" + "AC\x01\x07"))
	f.Add([]byte("\x02\x04ABxyBCloCDhiDAjkACmnBDqr"))
	f.Add([]byte("\x01\x02" + "AB\x3c\x00" + "BA\x01\x3c" + "AB\x02\x3c" + "BA\x3c\x01" + "AB\x10\x10" + "BA\x20\x20"))
	// Four shards, cluster-local ping-pong in both adjacent pairs plus
	// cross-pair traffic: under the hierarchical leg the pairs become
	// multi-engine clusters, so this drives the inner-window merge and the
	// inner/outer boundary at once.
	f.Add([]byte("\x02\x01" + "\x00\x01\x05\x00" + "\x01\x00\x05\x00" + "\x02\x03\x05\x00" + "\x03\x02\x05\x00" + "\x00\x02\x00\x07" + "\x02\x00\x00\x07"))

	const la = Time(61)
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := decodeFuzzScenario(data, la)
		if sc == nil {
			return
		}

		// Serial reference: every shard aliases one engine.
		se := NewEngine()
		sEngs := make([]*Engine, sc.shards)
		for i := range sEngs {
			sEngs[i] = se
		}
		wantLogs, wantEnd := runFuzzScenario(sc, la, sEngs, NewSerialNet(se), se.Run)

		// Sharded, fixed windows and the fuzzed adaptive cap: both must match
		// the serial stream exactly.
		for _, cap := range []int{1, sc.cap} {
			engs := make([]*Engine, sc.shards)
			for i := range engs {
				engs[i] = NewEngine()
			}
			g := NewGroup(la, engs...)
			g.SetAdaptive(cap)
			gotLogs, gotEnd := runFuzzScenario(sc, la, engs, g, g.Run)
			if gotEnd != wantEnd {
				t.Fatalf("cap %d: final time %d, serial %d", cap, gotEnd, wantEnd)
			}
			if !reflect.DeepEqual(gotLogs, wantLogs) {
				t.Fatalf("cap %d: delivery streams diverge from serial:\nserial:  %v\nsharded: %v", cap, wantLogs, gotLogs)
			}
			for i, e := range engs {
				if len(sc.ops) > 0 && e.Now() != gotEnd {
					t.Fatalf("cap %d: shard %d clock %d not aligned to %d", cap, i, e.Now(), gotEnd)
				}
			}
		}

		// Hierarchical group over the same endpoints: adjacent shards pair
		// into clusters synchronized at a short inner crossing nested inside
		// the outer windows. Every op's latency clears the outer lookahead,
		// so the same scenario is legal at both levels — and the nested
		// merge (inner flushes tiling outer chunks) must reproduce the
		// serial delivery stream exactly, fixed and adaptive.
		for _, cap := range []int{1, sc.cap} {
			engs := make([]*Engine, sc.shards)
			for i := range engs {
				engs[i] = NewEngine()
			}
			clusters := make([][]*Engine, 0, (sc.shards+1)/2)
			epEngine := make([]int, sc.shards)
			for i := 0; i < sc.shards; i += 2 {
				hi := i + 2
				if hi > sc.shards {
					hi = sc.shards
				}
				clusters = append(clusters, engs[i:hi])
				for j := i; j < hi; j++ {
					epEngine[j] = j
				}
			}
			g := NewHierGroup(la, 7, clusters, epEngine)
			g.SetAdaptive(cap)
			gotLogs, gotEnd := runFuzzScenario(sc, la, engs, g, g.Run)
			if gotEnd != wantEnd {
				t.Fatalf("hier cap %d: final time %d, serial %d", cap, gotEnd, wantEnd)
			}
			if !reflect.DeepEqual(gotLogs, wantLogs) {
				t.Fatalf("hier cap %d: delivery streams diverge from serial:\nserial:  %v\nsharded: %v", cap, wantLogs, gotLogs)
			}
		}

		// Canonical order within every (destination, cycle) collision: sorted
		// by (send time, source, per-source issue order). The per-source op
		// index is a monotone image of the sequence number, so checking it
		// checks the seq tie-break.
		for dst, log := range wantLogs {
			for i := 1; i < len(log); i++ {
				a, b := log[i-1], log[i]
				if b.At < a.At {
					t.Fatalf("dst %d: deliveries ran backwards in time: %+v then %+v", dst, a, b)
				}
				if b.At != a.At {
					continue
				}
				if b.Sent < a.Sent ||
					(b.Sent == a.Sent && b.Src < a.Src) ||
					(b.Sent == a.Sent && b.Src == a.Src && b.Op < a.Op) {
					t.Fatalf("dst %d cycle %d: non-canonical merge order: %+v before %+v", dst, a.At, a, b)
				}
			}
		}
	})
}

// TestFuzzSeedsDecode sanity-checks the decoder on the seed corpus shapes:
// ops are generated, stay in range and respect the latency floor.
func TestFuzzSeedsDecode(t *testing.T) {
	const la = Time(61)
	sc := decodeFuzzScenario([]byte("\x02\x04ABxyBCloCDhiDAjkACmnBDqr"), la)
	if sc == nil || sc.shards != 4 || sc.cap != DefaultAdaptiveCap {
		t.Fatalf("decoded %+v", sc)
	}
	if len(sc.ops) == 0 {
		t.Fatal("no ops decoded")
	}
	for _, op := range sc.ops {
		if op.src == op.dst || op.src >= sc.shards || op.dst >= sc.shards {
			t.Fatalf("bad op %+v", op)
		}
		if op.extra >= la {
			t.Fatalf("extra %d reaches lookahead %d; collisions would be illegal sends", op.extra, la)
		}
	}
	if decodeFuzzScenario([]byte{1}, la) != nil {
		t.Fatal("short input should decode to nil")
	}
	_ = fmt.Sprint(sc)
}

// refEvent is one live event of the engine-order reference model.
type refEvent struct {
	at    Time
	prio  uint8
	seq   uint64
	id    int
	child uint8
}

// refEngine is the reference the calendar is fuzzed against: a plain slice
// of live events, scanned for the least (at, prio, seq) at every step.
// Cancelled events leave it at once, since they never run or move the clock.
type refEngine struct {
	now      Time
	seq      uint64
	executed uint64
	pend     []refEvent
	log      []int
	nextID   int
}

func (r *refEngine) push(at Time, prio uint8, child uint8) int {
	r.seq++
	r.nextID++
	r.pend = append(r.pend, refEvent{at: at, prio: prio, seq: r.seq, id: r.nextID, child: child})
	return r.nextID
}

// advance runs every live event due by limit, like Engine.advance: the
// clock rests on the last one run.
func (r *refEngine) advance(limit Time) {
	for len(r.pend) > 0 {
		m := 0
		for i, ev := range r.pend {
			b := r.pend[m]
			if ev.at < b.at || ev.at == b.at && (ev.prio < b.prio || ev.prio == b.prio && ev.seq < b.seq) {
				m = i
			}
		}
		ev := r.pend[m]
		if ev.at > limit {
			return
		}
		r.pend = append(r.pend[:m], r.pend[m+1:]...)
		r.now = ev.at
		r.executed++
		r.log = append(r.log, ev.id)
		if ev.child != 0 {
			d, prio := fuzzChild(ev.child)
			r.push(r.now+d, prio, 0)
		}
	}
}

func (r *refEngine) cancel(id int) {
	for i, ev := range r.pend {
		if ev.id == id {
			r.pend = append(r.pend[:i], r.pend[i+1:]...)
			return
		}
	}
}

// fuzzChildDelays are the delays an event's child is scheduled at from
// inside its callback: same cycle, near, and on both sides of the horizon.
var fuzzChildDelays = [...]Time{0, 1, 7, horizon - 1, horizon, horizon + 1, 2*horizon + 3, 3 * horizon}

// fuzzChild decodes a nonzero child spec into a delay and a priority.
func fuzzChild(c uint8) (Time, uint8) {
	prio := uint8(prioNormal)
	if c&1 != 0 {
		prio = prioDeliver
	}
	return fuzzChildDelays[(c>>1)%uint8(len(fuzzChildDelays))], prio
}

// FuzzEngineOrder drives one Engine and the reference model with the same
// op stream — every way to schedule (delays up to three horizons, front and
// normal, closure and typed callback, children scheduled from callbacks),
// After plus Cancel, RunUntil (which forces the clock), runTo (which leaves
// it stale), NextEventTime, and an idle alignTo jump past cancelled entries —
// and after every op holds the executed order, Now, Pending and Executed to
// the model's.
//
// Each op is three bytes [kind, a, b]: kind%10 picks the op and kind>>4 is
// the child spec of a scheduled event (0: none); (a<<8|b) % (3*horizon+1)
// is the op's delay.
func FuzzEngineOrder(f *testing.F) {
	// Seeds (mirrored under testdata/fuzz): one event; fronts and normals
	// sharing a cycle, one front scheduling another from its callback; far
	// and calendar heads tied on one cycle; a clock wrapping the calendar;
	// cancelled timers left behind an idle jump of two horizons, new work
	// landing in their slots; a cancelled head NextEventTime must skip;
	// RunUntil forcing and runTo leaving the clock.
	f.Add([]byte("\x00\x00\x05"))
	f.Add([]byte("\x02\x00\x05" + "\x02\x00\x05" + "\x00\x00\x05" + "\x16\x00\x05" + "\x00\x00\x05" + "\x07\x00\x0a"))
	f.Add([]byte("\x00\x01\x2c" + "\x02\x01\x2c" + "\x06\x00\x64" + "\x02\x00\xc8" + "\x00\x00\xc8" + "\x07\x03\x00"))
	f.Add([]byte("\x00\x00\xfa" + "\x00\x00\xff" + "\x07\x00\xfa" + "\x00\x00\x0a" + "\x00\x00\x03" + "\x09\x00\x00" + "\x07\x01\x00"))
	f.Add([]byte("\x04\x00\x0a" + "\x04\x00\x14" + "\x05\x00\x00" + "\x05\x00\x01" + "\x08\x02\x00" + "\x00\x00\x0a" + "\x01\x00\x14" + "\x09\x00\x00"))
	f.Add([]byte("\x04\x00\x0a" + "\x05\x00\x00" + "\x00\x00\x14" + "\x09\x00\x00"))
	f.Add([]byte("\x70\x00\x04" + "\xd1\x00\x08" + "\x06\x00\x06" + "\x82\x00\x03" + "\x07\x01\x20" + "\x03\x00\x00" + "\x06\x03\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		e := NewEngine()
		ref := &refEngine{}
		type fuzzEv struct {
			id    int
			child uint8
		}
		var got []int
		nextID := 0
		var run func(v any)
		// schedule mirrors refEngine.push on the engine; the kind selects the
		// scheduling call.
		schedule := func(kind int, at Time, child uint8) Timer {
			nextID++
			v := &fuzzEv{id: nextID, child: child}
			fn := func() { run(v) }
			switch kind {
			case 0:
				e.Schedule(at-e.Now(), fn)
			case 1:
				e.ScheduleArg(at-e.Now(), run, v)
			case 2:
				e.AtFront(at, fn)
			case 3:
				e.AtFrontArg(at, run, v)
			default:
				return e.After(at-e.Now(), fn)
			}
			return Timer{}
		}
		run = func(a any) {
			v := a.(*fuzzEv)
			got = append(got, v.id)
			if v.child != 0 {
				d, prio := fuzzChild(v.child)
				kind := 0
				if prio == prioDeliver {
					kind = 2
				}
				schedule(kind, e.Now()+d, 0)
			}
		}
		type timer struct {
			tm Timer
			id int
		}
		var timers []timer
		for i := 0; i+2 < len(data) && i < 3*128; i += 3 {
			kind := data[i]
			d := Time(int(data[i+1])<<8|int(data[i+2])) % (3*horizon + 1)
			child := kind >> 4
			switch op := kind % 10; op {
			case 0, 1, 2, 3, 4:
				at := e.Now() + d
				prio := uint8(prioNormal)
				if op == 2 || op == 3 {
					prio = prioDeliver
				}
				tm := schedule(int(op), at, child)
				id := ref.push(at, prio, child)
				if op == 4 {
					timers = append(timers, timer{tm, id})
				}
			case 5:
				if len(timers) > 0 {
					k := int(d) % len(timers)
					timers[k].tm.Cancel()
					ref.cancel(timers[k].id)
				}
			case 6:
				deadline := ref.now + d
				e.RunUntil(deadline)
				ref.advance(deadline)
				ref.now = deadline
			case 7:
				e.runTo(e.Now() + d)
				ref.advance(ref.now + d)
			case 8:
				// alignTo needs an idle engine. One idle already may still
				// hold cancelled timers, which the jump then leaves behind;
				// Run would have discarded them.
				if e.Pending() > 0 {
					e.Run()
					ref.advance(TimeMax)
				}
				e.alignTo(e.Now() + d)
				ref.now += d
			case 9:
				at, ok := e.NextEventTime()
				var want Time
				for j, ev := range ref.pend {
					if j == 0 || ev.at < want {
						want = ev.at
					}
				}
				if ok != (len(ref.pend) > 0) || ok && at != want {
					t.Fatalf("op %d: NextEventTime = %d, %v; model %d, %v", i/3, at, ok, want, len(ref.pend) > 0)
				}
			}
			if !slices.Equal(got, ref.log) {
				t.Fatalf("op %d (kind %d): executed order diverges:\nengine: %v\nmodel:  %v", i/3, kind%10, got, ref.log)
			}
			if e.Now() != ref.now || e.Pending() != len(ref.pend) || e.Executed() != ref.executed {
				t.Fatalf("op %d (kind %d): now/pending/executed = %d/%d/%d, model %d/%d/%d", i/3, kind%10,
					e.Now(), e.Pending(), e.Executed(), ref.now, len(ref.pend), ref.executed)
			}
		}
		e.Run()
		ref.advance(TimeMax)
		if !slices.Equal(got, ref.log) || e.Now() != ref.now || e.Pending() != 0 {
			t.Fatalf("final drain diverges:\nengine: %v at %d\nmodel:  %v at %d", got, e.Now(), ref.log, ref.now)
		}
	})
}
