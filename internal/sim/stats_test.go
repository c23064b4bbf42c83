package sim

import (
	"bytes"
	"strings"
	"testing"
)

func TestGaugeTracksHighWaterMark(t *testing.T) {
	var s Stats
	g := s.Gauge("memctl.rd_inflight")
	g.Set(3)
	g.Add(4)
	g.Dec()
	if g.Value != 6 {
		t.Fatalf("gauge value = %d, want 6", g.Value)
	}
	if g.High != 7 {
		t.Fatalf("gauge high = %d, want 7", g.High)
	}
	if v, ok := s.GaugeValue("memctl.rd_inflight"); !ok || v != 6 {
		t.Fatalf("GaugeValue = %d,%v, want 6,true", v, ok)
	}
	if _, ok := s.GaugeValue("missing"); ok {
		t.Fatal("GaugeValue found a gauge that was never created")
	}
}

func TestHistogramBinsAndQuantiles(t *testing.T) {
	var h Histogram
	for v := uint64(1); v <= 100; v++ {
		h.Observe(v)
	}
	if h.Samples != 100 || h.Min != 1 || h.Max != 100 || h.Sum != 5050 {
		t.Fatalf("summary = n=%d min=%d max=%d sum=%d", h.Samples, h.Min, h.Max, h.Sum)
	}
	if got := h.Mean(); got != 50.5 {
		t.Fatalf("mean = %v, want 50.5", got)
	}
	// Log2 bins: the cumulative count reaches 50 in bin 6 ([32,64)), whose
	// upper edge is 63; higher quantiles land in bin 7 and clamp to Max.
	if got := h.P50(); got != 63 {
		t.Fatalf("p50 = %d, want 63", got)
	}
	if got := h.P95(); got != 100 {
		t.Fatalf("p95 = %d, want 100 (clamped to max)", got)
	}
	if got := h.P99(); got != 100 {
		t.Fatalf("p99 = %d, want 100 (clamped to max)", got)
	}
}

func TestHistogramZeroAndExtremeValues(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(0)
	h.Observe(^uint64(0))
	if h.Samples != 3 || h.Min != 0 || h.Max != ^uint64(0) {
		t.Fatalf("summary = n=%d min=%d max=%d", h.Samples, h.Min, h.Max)
	}
	if h.Bins[0] != 2 || h.Bins[64] != 1 {
		t.Fatalf("bins[0]=%d bins[64]=%d, want 2 and 1", h.Bins[0], h.Bins[64])
	}
	if got := h.P50(); got != 0 {
		t.Fatalf("p50 = %d, want 0", got)
	}
	if got := h.P99(); got != ^uint64(0) {
		t.Fatalf("p99 = %d, want max uint64", got)
	}
}

func TestHistogramMergeAndReset(t *testing.T) {
	var a, b Histogram
	for v := uint64(1); v <= 10; v++ {
		a.Observe(v)
	}
	for v := uint64(100); v <= 109; v++ {
		b.Observe(v)
	}
	a.Merge(&b)
	if a.Samples != 20 || a.Min != 1 || a.Max != 109 {
		t.Fatalf("merged = n=%d min=%d max=%d", a.Samples, a.Min, a.Max)
	}
	a.Merge(nil) // nil-safe
	if a.Samples != 20 {
		t.Fatalf("merge(nil) changed samples to %d", a.Samples)
	}
	a.Name = "x"
	a.Reset()
	if a.Samples != 0 || a.Sum != 0 || a.Name != "x" {
		t.Fatalf("reset left n=%d sum=%d name=%q", a.Samples, a.Sum, a.Name)
	}
}

func TestStatsStringAndCSVSections(t *testing.T) {
	var s Stats
	s.Counter("b.count").Add(2)
	s.Counter("a.count").Add(1)
	s.Gauge("q.depth").Set(5)
	s.Histogram("lat").Observe(8)
	s.Histogram("empty") // no samples: omitted from renderings

	str := s.String()
	if !strings.Contains(str, "a.count") || !strings.Contains(str, "q.depth") || !strings.Contains(str, "lat") {
		t.Fatalf("String missing sections:\n%s", str)
	}
	if strings.Contains(str, "empty") {
		t.Fatalf("String rendered an empty histogram:\n%s", str)
	}
	if strings.Index(str, "a.count") > strings.Index(str, "b.count") {
		t.Fatalf("counters not sorted:\n%s", str)
	}
}

// Two registries populated in different orders must marshal byte-identically:
// the metrics JSON is diffed across runs in regression workflows.
func TestStatsJSONDeterministic(t *testing.T) {
	build := func(reverse bool) []byte {
		var s Stats
		names := []string{"node0.miss", "node1.miss", "node2.miss"}
		if reverse {
			for i := len(names) - 1; i >= 0; i-- {
				s.Counter(names[i]).Add(uint64(i))
			}
		} else {
			for i, n := range names {
				s.Counter(n).Add(uint64(i))
			}
		}
		s.Gauge("g").Set(1)
		s.Histogram("h").Observe(5)
		out, err := s.MarshalJSON()
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return out
	}
	a, b := build(false), build(true)
	if !bytes.Equal(a, b) {
		t.Fatalf("insertion order changed JSON:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(string(a), `"histograms"`) || !strings.Contains(string(a), `"p95"`) {
		t.Fatalf("JSON missing histogram summary: %s", a)
	}
}

// GaugesZero sees every gauge the registry holds, including those a fold
// (CopyFrom) rebuilt, and none it dropped.
func TestGaugesZeroTracksRegistry(t *testing.T) {
	var a, merged Stats
	if !a.GaugesZero() {
		t.Fatal("an empty registry has a nonzero gauge")
	}
	a.Gauge("node0.occ").Inc()
	if a.GaugesZero() {
		t.Fatal("a gauge at 1 reads as zero")
	}
	merged.CopyFrom(&a)
	if merged.GaugesZero() {
		t.Fatal("a folded gauge at 1 reads as zero")
	}
	merged.CopyFrom(&Stats{})
	if !merged.GaugesZero() {
		t.Fatal("a refold kept a gauge it dropped")
	}
}
