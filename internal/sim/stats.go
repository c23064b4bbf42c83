package sim

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"smappic/internal/ckpt"
)

// Counter is a named monotonically increasing statistic. Models expose
// counters through a Stats registry so experiments can read congestion,
// hit rates and traffic volumes after a run.
//
// All instrument types (Counter, Gauge, Histogram) are nil-safe on their
// mutating methods: models pre-resolve instruments at construction time and
// leave the pointers nil when telemetry is disabled, so the hot path pays a
// single predictable branch and performs no allocation.
type Counter struct {
	Name  string
	Value uint64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.Value += n
	}
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() {
	if c != nil {
		c.Value++
	}
}

// LazyCounter is a counter handle that registers with its Stats on first
// increment instead of at construction. Use it for conditionally-hit
// counters a model resolves up front: a metrics report then lists the
// counter only if the run actually touched it (exactly as if the model had
// looked it up by name at each hit), while repeat increments still pay no
// string building or map lookup. The zero value (and any handle built with
// a nil Stats) is a no-op.
type LazyCounter struct {
	stats *Stats
	name  string
	c     *Counter
}

// LazyCounter returns a lazily-registering handle for name. Safe to call on
// a nil registry: the handle is then a no-op.
func (s *Stats) LazyCounter(name string) LazyCounter {
	return LazyCounter{stats: s, name: name}
}

// Add increments the counter by n, registering it on first use.
func (l *LazyCounter) Add(n uint64) {
	if l.c == nil {
		if l.stats == nil {
			return
		}
		l.c = l.stats.Counter(l.name)
	}
	l.c.Value += n
}

// Inc increments the counter by one, registering it on first use.
func (l *LazyCounter) Inc() { l.Add(1) }

// Gauge is a named instantaneous level (queue depth, MSHR occupancy,
// in-flight transactions). It tracks the high-water mark alongside the
// current value. The simulation is single-threaded, so unsynchronized
// updates are safe.
type Gauge struct {
	Name  string
	Value int64
	High  int64
}

// Set replaces the gauge value. No-op on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.Value = v
	if v > g.High {
		g.High = v
	}
}

// Add moves the gauge by d (negative to decrease). No-op on a nil receiver.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.Value += d
	if g.Value > g.High {
		g.High = g.Value
	}
}

// Inc increases the gauge by one. No-op on a nil receiver.
func (g *Gauge) Inc() { g.Add(1) }

// Dec decreases the gauge by one. No-op on a nil receiver.
func (g *Gauge) Dec() { g.Add(-1) }

// histBins is the number of log2 bins: bin 0 holds the value 0, bin i
// (1 <= i <= 64) holds values in [2^(i-1), 2^i).
const histBins = 65

// Histogram records a distribution of integer samples in logarithmic
// (power-of-two) bins plus explicit min/max/sum, giving O(1) observation
// and approximate quantiles with bounded relative error. The zero value is
// ready to use.
type Histogram struct {
	Name    string
	Samples uint64
	Sum     uint64
	Min     uint64
	Max     uint64
	Bins    [histBins]uint64
}

// Observe records one sample. No-op on a nil receiver.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	if h.Samples == 0 || v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
	h.Samples++
	h.Sum += v
	h.Bins[bits.Len64(v)]++
}

// Mean returns the mean of observed samples (zero if none).
func (h *Histogram) Mean() float64 {
	if h == nil || h.Samples == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Samples)
}

// Quantile returns an upper-bound estimate of the q-quantile (0 < q <= 1):
// the upper edge of the first bin at which the cumulative sample count
// reaches q*Samples, clamped to the observed [Min, Max] range.
func (h *Histogram) Quantile(q float64) uint64 {
	if h == nil || h.Samples == 0 {
		return 0
	}
	target := uint64(q * float64(h.Samples))
	if float64(target) < q*float64(h.Samples) {
		target++
	}
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, n := range h.Bins {
		cum += n
		if cum >= target {
			// Upper edge of bin i: 0 for bin 0, 2^i - 1 otherwise.
			var edge uint64
			if i > 0 {
				if i >= 64 {
					edge = ^uint64(0)
				} else {
					edge = 1<<uint(i) - 1
				}
			}
			if edge > h.Max {
				edge = h.Max
			}
			if edge < h.Min {
				edge = h.Min
			}
			return edge
		}
	}
	return h.Max
}

// P50 returns the estimated median.
func (h *Histogram) P50() uint64 { return h.Quantile(0.50) }

// P95 returns the estimated 95th percentile.
func (h *Histogram) P95() uint64 { return h.Quantile(0.95) }

// P99 returns the estimated 99th percentile.
func (h *Histogram) P99() uint64 { return h.Quantile(0.99) }

// Merge folds the samples of o into h (used to aggregate per-tile
// distributions into per-node ones). No-op when either side is nil.
func (h *Histogram) Merge(o *Histogram) {
	if h == nil || o == nil || o.Samples == 0 {
		return
	}
	if h.Samples == 0 || o.Min < h.Min {
		h.Min = o.Min
	}
	if o.Max > h.Max {
		h.Max = o.Max
	}
	h.Samples += o.Samples
	h.Sum += o.Sum
	for i := range h.Bins {
		h.Bins[i] += o.Bins[i]
	}
}

// Reset clears all recorded samples, keeping the name.
func (h *Histogram) Reset() {
	if h == nil {
		return
	}
	*h = Histogram{Name: h.Name}
}

// summary renders the one-line text form of a histogram.
func (h *Histogram) summary() string {
	return fmt.Sprintf("n=%d min=%d mean=%.1f p50=%d p95=%d p99=%d max=%d",
		h.Samples, h.Min, h.Mean(), h.P50(), h.P95(), h.P99(), h.Max)
}

// Stats is a registry of counters, gauges and histograms, hierarchical by
// dot-separated names ("node0.tile3.bpc.miss"). The zero value is ready to
// use. It is not synchronized: the single-threaded simulation engine is the
// only writer.
type Stats struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	// gaugeList holds the gauges in creation order, for GaugesZero: a
	// slice scan is several times cheaper than a map range.
	gaugeList []*Gauge
}

// Counter returns the counter with the given name, creating it on first use.
func (s *Stats) Counter(name string) *Counter {
	if s.counters == nil {
		s.counters = make(map[string]*Counter)
	}
	c, ok := s.counters[name]
	if !ok {
		c = &Counter{Name: name}
		s.counters[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it on first use.
func (s *Stats) Gauge(name string) *Gauge {
	if s.gauges == nil {
		s.gauges = make(map[string]*Gauge)
	}
	g, ok := s.gauges[name]
	if !ok {
		g = &Gauge{Name: name}
		s.gauges[name] = g
		s.gaugeList = append(s.gaugeList, g)
	}
	return g
}

// Histogram returns the histogram with the given name, creating it on first
// use.
func (s *Stats) Histogram(name string) *Histogram {
	if s.hists == nil {
		s.hists = make(map[string]*Histogram)
	}
	h, ok := s.hists[name]
	if !ok {
		h = &Histogram{Name: name}
		s.hists[name] = h
	}
	return h
}

// CopyFrom replaces s's contents with a deep merge of the given registries.
// Counters and gauge movements add; gauge high-water marks and histogram
// extrema take the max. The report layer uses it to fold per-shard
// registries into the single registry MetricsJSON serializes; shard
// instrument names never collide (node/fpga/endpoint prefixes are
// shard-unique), so the merge is a disjoint union in practice.
func (s *Stats) CopyFrom(parts ...*Stats) {
	s.counters = make(map[string]*Counter)
	s.gauges = make(map[string]*Gauge)
	s.gaugeList = nil
	s.hists = make(map[string]*Histogram)
	for _, p := range parts {
		for name, c := range p.counters {
			s.Counter(name).Value += c.Value
		}
		for name, g := range p.gauges {
			dst := s.Gauge(name)
			dst.Value += g.Value
			if g.High > dst.High {
				dst.High = g.High
			}
		}
		for name, h := range p.hists {
			s.Histogram(name).Merge(h)
		}
	}
}

// CounterSnapshot returns every counter's current value as a plain map —
// the portable form of a finished run's counts. The campaign layer stores
// these snapshots in its result cache and folds them back together with
// AddCounts, so per-job statistics survive process boundaries without
// carrying live registries around.
func (s *Stats) CounterSnapshot() map[string]uint64 {
	out := make(map[string]uint64, len(s.counters))
	for name, c := range s.counters {
		out[name] = c.Value
	}
	return out
}

// AddCounts adds a CounterSnapshot into the registry, creating counters as
// needed. Together with CounterSnapshot it gives campaign-level aggregation
// the same merge semantics CopyFrom gives the sharded engine, but over
// serialized snapshots instead of live registries.
func (s *Stats) AddCounts(m map[string]uint64) {
	for name, v := range m {
		s.Counter(name).Add(v)
	}
}

// GaugeSnap is the immutable copy of a gauge inside a StatsSnapshot.
type GaugeSnap struct {
	Value int64 `json:"value"`
	High  int64 `json:"high"`
}

// HistSnap is the immutable summary of a histogram inside a StatsSnapshot.
type HistSnap struct {
	Samples uint64  `json:"samples"`
	Sum     uint64  `json:"sum"`
	Min     uint64  `json:"min"`
	Max     uint64  `json:"max"`
	Mean    float64 `json:"mean"`
	P50     uint64  `json:"p50"`
	P95     uint64  `json:"p95"`
	P99     uint64  `json:"p99"`
}

// StatsSnapshot is a point-in-time deep copy of a registry: plain maps with
// no pointers back into the live instruments. The observability layer builds
// snapshots at quiescent boundaries (sample ticks, window barriers) and hands
// them to HTTP handlers, which may marshal them concurrently with the
// simulation precisely because nothing in a snapshot aliases live state.
// Untouched-histogram entries are omitted.
type StatsSnapshot struct {
	Counters   map[string]uint64    `json:"counters"`
	Gauges     map[string]GaugeSnap `json:"gauges"`
	Histograms map[string]HistSnap  `json:"histograms"`
}

// Snapshot deep-copies the registry. The caller must hold the simulation
// quiescent (single-threaded engine, or a window barrier of the sharded one);
// the returned snapshot is then safe to share across goroutines.
func (s *Stats) Snapshot() *StatsSnapshot {
	snap := &StatsSnapshot{
		Counters:   make(map[string]uint64, len(s.counters)),
		Gauges:     make(map[string]GaugeSnap, len(s.gauges)),
		Histograms: make(map[string]HistSnap, len(s.hists)),
	}
	for name, c := range s.counters {
		snap.Counters[name] = c.Value
	}
	for name, g := range s.gauges {
		snap.Gauges[name] = GaugeSnap{Value: g.Value, High: g.High}
	}
	for name, h := range s.hists {
		if h.Samples == 0 {
			continue
		}
		snap.Histograms[name] = HistSnap{
			Samples: h.Samples, Sum: h.Sum, Min: h.Min, Max: h.Max,
			Mean: h.Mean(), P50: h.P50(), P95: h.P95(), P99: h.P99(),
		}
	}
	return snap
}

// CaptureState returns the registry's snapshot row: every instrument, sorted
// by name. Unlike Snapshot it keeps histogram bins, gauge high-water marks
// and zero-sample histograms, so a registry restored with RestoreState
// renders byte-identical reports and keeps observing into the same
// distributions.
func (s *Stats) CaptureState() ckpt.StatsState {
	var st ckpt.StatsState
	for _, name := range s.Names() {
		st.Counters = append(st.Counters, ckpt.CounterState{Name: name, Value: s.counters[name].Value})
	}
	for _, name := range s.GaugeNames() {
		g := s.gauges[name]
		st.Gauges = append(st.Gauges, ckpt.GaugeState{Name: name, Value: g.Value, High: g.High})
	}
	for _, name := range s.HistogramNames() {
		h := s.hists[name]
		st.Hists = append(st.Hists, ckpt.HistState{Name: name, Samples: h.Samples, Sum: h.Sum, Min: h.Min, Max: h.Max,
			Bins: append([]uint64(nil), h.Bins[:]...)})
	}
	return st
}

// RestoreState overwrites instruments from a CaptureState row. Instruments
// already registered keep their identity (live pointers held by models stay
// valid and simply see the restored values); instruments only present in the
// row are created. Instruments present in the registry but absent from the
// row are left untouched — restore runs right after construction, when the
// registry holds only freshly-registered zero-valued instruments. A
// histogram row whose bin count is not this build's is refused before
// anything is written.
func (s *Stats) RestoreState(st ckpt.StatsState) error {
	for _, h := range st.Hists {
		if len(h.Bins) != histBins {
			return &ckpt.CorruptError{Reason: fmt.Sprintf("histogram %s has %d bins; this build uses %d", h.Name, len(h.Bins), histBins)}
		}
	}
	for _, c := range st.Counters {
		s.Counter(c.Name).Value = c.Value
	}
	for _, g := range st.Gauges {
		dst := s.Gauge(g.Name)
		dst.Value, dst.High = g.Value, g.High
	}
	for _, h := range st.Hists {
		dst := s.Histogram(h.Name)
		dst.Samples, dst.Sum, dst.Min, dst.Max = h.Samples, h.Sum, h.Min, h.Max
		copy(dst.Bins[:], h.Bins)
	}
	return nil
}

// Get returns the value of a counter, or zero if it was never touched.
func (s *Stats) Get(name string) uint64 {
	if c, ok := s.counters[name]; ok {
		return c.Value
	}
	return 0
}

// GaugesZero reports whether every gauge reads zero, without allocating.
func (s *Stats) GaugesZero() bool {
	for _, g := range s.gaugeList {
		if g.Value != 0 {
			return false
		}
	}
	return true
}

// GaugeValue returns the current value of a gauge and whether it exists.
func (s *Stats) GaugeValue(name string) (int64, bool) {
	if g, ok := s.gauges[name]; ok {
		return g.Value, true
	}
	return 0, false
}

// FindHistogram returns the named histogram, or nil if it was never created.
func (s *Stats) FindHistogram(name string) *Histogram { return s.hists[name] }

// Sum returns the sum of all counters under prefix. A counter matches when
// its name equals the prefix exactly or extends it at a "." boundary, so
// Sum("node1") covers "node1.tile0.miss" but not "node10.tile0.miss".
func (s *Stats) Sum(prefix string) uint64 {
	var total uint64
	for name, c := range s.counters {
		if matchesPrefix(name, prefix) {
			total += c.Value
		}
	}
	return total
}

// matchesPrefix reports whether name equals prefix or extends it at a "."
// boundary (a trailing "." in prefix already is the boundary; the empty
// prefix matches everything).
func matchesPrefix(name, prefix string) bool {
	if !strings.HasPrefix(name, prefix) {
		return false
	}
	if len(name) == len(prefix) || prefix == "" || strings.HasSuffix(prefix, ".") {
		return true
	}
	return name[len(prefix)] == '.'
}

// Names returns all counter names in sorted order.
func (s *Stats) Names() []string {
	names := make([]string, 0, len(s.counters))
	for name := range s.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// GaugeNames returns all gauge names in sorted order.
func (s *Stats) GaugeNames() []string {
	names := make([]string, 0, len(s.gauges))
	for name := range s.gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// HistogramNames returns all histogram names in sorted order.
func (s *Stats) HistogramNames() []string {
	names := make([]string, 0, len(s.hists))
	for name := range s.hists {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// String renders all instruments, one per line, sorted by name within each
// section. Counters come first (matching the registry's historical output),
// then gauges and histogram summaries.
func (s *Stats) String() string {
	var b strings.Builder
	for _, name := range s.Names() {
		fmt.Fprintf(&b, "%-48s %d\n", name, s.counters[name].Value)
	}
	for _, name := range s.GaugeNames() {
		g := s.gauges[name]
		fmt.Fprintf(&b, "%-48s %d (high %d)\n", name, g.Value, g.High)
	}
	for _, name := range s.HistogramNames() {
		h := s.hists[name]
		if h.Samples == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-48s %s\n", name, h.summary())
	}
	return b.String()
}

// MarshalJSON renders the registry as its Snapshot: "counters", "gauges" and
// "histograms" sections in that order, map keys sorted by encoding/json, so
// two identical runs produce byte-identical output.
func (s *Stats) MarshalJSON() ([]byte, error) { return json.Marshal(s.Snapshot()) }
