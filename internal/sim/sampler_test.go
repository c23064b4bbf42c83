package sim

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// workload drives a counter for `until` cycles: one event per cycle.
func sampledWorkload(eng *Engine, s *Stats, until Time) {
	var step func()
	c := s.Counter("node0.mesh.noc1.flits")
	g := s.Gauge("node0.memctl.rd_inflight")
	step = func() {
		c.Add(2)
		g.Set(int64(eng.Now() % 5))
		if eng.Now() < until {
			eng.Schedule(1, step)
		}
	}
	eng.Schedule(1, step)
}

// sampledRun runs sampledWorkload on a one-engine group under a sampler and
// returns the sampler and the final time.
func sampledRun(until, every Time, names ...string) (*Sampler, Time) {
	eng := NewEngine()
	var s Stats
	sampledWorkload(eng, &s, until)
	g := NewGroup(61, eng)
	g.SetAdaptive(DefaultAdaptiveCap)
	sm := NewSampler(g, []*Stats{&s}, every, names...)
	return sm, g.Run()
}

func TestSamplerRecordsTimeSeries(t *testing.T) {
	sm, _ := sampledRun(100, 10, "node0.mesh.noc1.flits", "node0.memctl.rd_inflight", "missing")

	rows := sm.Rows()
	if len(rows) != 10 {
		t.Fatalf("got %d rows, want 10", len(rows))
	}
	r0 := rows[0]
	if r0.At != 10 {
		t.Fatalf("first sample at %d, want 10", r0.At)
	}
	// The row at 10 holds every event below cycle 10 and none at it: the 9
	// completed steps of +2 each.
	if r0.Values[0] != 18 {
		t.Fatalf("counter sample = %d, want 18", r0.Values[0])
	}
	if r0.Values[1] != 9%5 {
		t.Fatalf("gauge sample = %d, want %d", r0.Values[1], 9%5)
	}
	if r0.Values[2] != 0 {
		t.Fatalf("unknown name sampled %d, want 0", r0.Values[2])
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Values[0] < rows[i-1].Values[0] {
			t.Fatalf("counter series not monotonic at row %d", i)
		}
	}
}

func TestSamplerCSVAndJSON(t *testing.T) {
	sm, _ := sampledRun(30, 10, "node0.mesh.noc1.flits")

	csv := sm.CSV()
	if !strings.HasPrefix(csv, "cycle,node0.mesh.noc1.flits\n10,18\n") {
		t.Fatalf("unexpected CSV:\n%s", csv)
	}

	out, err := json.Marshal(sm)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var doc struct {
		Every uint64     `json:"every"`
		Names []string   `json:"names"`
		Rows  [][]uint64 `json:"rows"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if doc.Every != 10 || len(doc.Names) != 1 || len(doc.Rows) == 0 {
		t.Fatalf("unexpected doc: %+v", doc)
	}
	if doc.Rows[0][0] != 10 || doc.Rows[0][1] != 18 {
		t.Fatalf("first row = %v, want [10 18]", doc.Rows[0])
	}
}

func TestSamplerDefaultInterval(t *testing.T) {
	sm := NewSampler(NewGroup(1, NewEngine()), nil, 0)
	if sm.Every() != 1000 {
		t.Fatalf("default interval = %d, want 1000", sm.Every())
	}
}

// TestSamplerUnboundedByDefault pins the compatibility contract: every
// sample is retained (goldens embed full series).
func TestSamplerUnboundedByDefault(t *testing.T) {
	sm, _ := sampledRun(500, 10, "node0.mesh.noc1.flits")
	if n := len(sm.Rows()); n != 50 {
		t.Fatalf("unbounded sampler kept %d rows, want 50", n)
	}
}

// TestSamplerSurvivesIdleGap: an idle stretch longer than the interval steps
// boundary to boundary, booking no window, and sampling goes on to the run's
// last event.
func TestSamplerSurvivesIdleGap(t *testing.T) {
	eng := NewEngine()
	var s Stats
	c := s.Counter("c")
	for _, at := range []Time{50, 1050, 2050} {
		eng.At(at, c.Inc)
	}
	g := NewGroup(61, eng)
	g.SetAdaptive(DefaultAdaptiveCap)
	sm := NewSampler(g, []*Stats{&s}, 100, "c")
	if end := g.Run(); end != 2050 {
		t.Fatalf("sampled run ended at %d, want 2050", end)
	}
	rows := sm.Rows()
	if len(rows) != 20 {
		t.Fatalf("got %d rows, want 20 (100..2000)", len(rows))
	}
	for i, r := range rows {
		at := Time(100 * (i + 1))
		if want := uint64(1 + at/1050); r.At != at || r.Values[0] != want {
			t.Fatalf("row %d = %+v, want cycle %d value %d", i, r, at, want)
		}
	}
	if w := g.Windows(); w != 3 {
		t.Fatalf("idle boundaries booked windows: %d for 3 events", w)
	}
}

// sampledPair runs two talkative shards — each ticks on its own stride,
// counts in its own registry and sends the other an envelope per tick — as a
// group of one engine or of two, under a sampler, and returns the sampler's
// CSV and the final time.
func sampledPair(t *testing.T, engines int, every Time) (string, Time) {
	const la = Time(61)
	engs := []*Engine{NewEngine(), NewEngine()}
	regs := []*Stats{{}, {}}
	var g *Group
	if engines == 1 {
		engs[1], regs = engs[0], regs[:1]
		g = NewHierGroup(la, la, [][]*Engine{{engs[0]}}, []int{0, 0})
	} else {
		g = NewGroup(la, engs...)
	}
	g.SetAdaptive(DefaultAdaptiveCap)
	for s := range engs {
		s, e, reg := s, engs[s], regs[s%len(regs)]
		ticks := reg.Counter(fmt.Sprintf("shard%d.ticks", s))
		recv := reg.Counter(fmt.Sprintf("shard%d.recv", s))
		busy := reg.Gauge(fmt.Sprintf("shard%d.busy", s))
		var tick func(i int)
		tick = func(i int) {
			ticks.Inc()
			busy.Set(int64(i % 3))
			if i%4 == 0 { // talk in bursts, so windows widen in between
				g.Send(s, 1-s, e.Now()+la+Time(3*s), recv.Inc)
			}
			if i < 400 {
				e.Schedule(Time(7+s), func() { tick(i + 1) })
			}
		}
		e.Schedule(Time(1+s), func() { tick(0) })
	}
	sm := NewSampler(g, regs, every, "shard0.ticks", "shard1.recv", "shard1.busy")
	end := g.Run()
	for _, r := range sm.Rows() {
		if r.At%every != 0 || r.At > end {
			t.Errorf("%d engine(s): row at %d; want a multiple of %d no later than the last event at %d", engines, r.At, every, end)
		}
	}
	if n := len(sm.Rows()); Time(n) != end/every {
		t.Errorf("%d engine(s): %d rows for a run ending at %d, want %d", engines, n, end, end/every)
	}
	return sm.CSV(), end
}

// TestSamplerRowsExactAcrossShardings: rows land exactly on the multiples of
// the interval, none past the last event, a sampled run ends where the
// unsampled one does, and one engine and two give the same rows.
func TestSamplerRowsExactAcrossShardings(t *testing.T) {
	for _, every := range []Time{100, 61, 1000} {
		one, endOne := sampledPair(t, 1, every)
		two, endTwo := sampledPair(t, 2, every)
		if one != two || endOne != endTwo {
			t.Errorf("every %d: one engine (end %d) and two (end %d) sampled different rows:\n%s\nvs\n%s", every, endOne, endTwo, one, two)
		}
	}
	_, sampled := sampledRun(100, 10, "node0.mesh.noc1.flits")
	eng := NewEngine()
	sampledWorkload(eng, &Stats{}, 100)
	if plain := NewGroup(61, eng).Run(); sampled != plain {
		t.Errorf("sampled run ended at %d, unsampled at %d", sampled, plain)
	}
}
