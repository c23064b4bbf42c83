package sim

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Sampler snapshots a fixed set of counters and gauges every N cycles into
// a time series, so experiments can plot NoC link traffic, queue depths or
// MSHR occupancy over a run instead of seeing only end-of-run totals.
//
// A sampled name reads the counter of that name, else the gauge of that
// name; an unknown name reads as zero until the instrument is created.
//
// The sampler is a barrier observer and schedules nothing: it keeps the
// group's cut on its next boundary, so a barrier falls exactly there, and
// reads the registries it was given at it. A row at k*every therefore holds
// the effect of every event below k*every and of none at or past it — the
// same state whatever the sharding — and a sampled run executes exactly the
// events of an unsampled one. Rows stop with the run's last event.
type Sampler struct {
	g     *Group
	regs  []*Stats
	every Time
	names []string
	rows  []SampleRow
}

// SampleRow is one snapshot: the cycle it was taken at and the sampled
// values, parallel to the sampler's name list.
type SampleRow struct {
	At     Time
	Values []uint64
}

// NewSampler creates a sampler over the given registries taking a
// row at every multiple of `every` cycles beyond the group's horizon. A
// non-positive interval defaults to 1000 cycles.
func NewSampler(g *Group, regs []*Stats, every Time, names ...string) *Sampler {
	if every <= 0 {
		every = 1000
	}
	s := &Sampler{g: g, regs: regs, every: every, names: names}
	g.cut = every * (g.root.end/every + 1)
	g.OnBarrier(s.observe)
	return s
}

// Names returns the sampled column names.
func (s *Sampler) Names() []string { return s.names }

// Rows returns the recorded time series in chronological order.
func (s *Sampler) Rows() []SampleRow { return s.rows }

// Every returns the sampling interval in cycles.
func (s *Sampler) Every() Time { return s.every }

// observe runs at every barrier. It takes a row when the group rests on the
// boundary with work left beyond it: every event below has executed, none at
// or past it has, and the run is not over.
func (s *Sampler) observe() {
	if s.g.root.end != s.g.cut || !s.g.Pending() {
		return
	}
	row := SampleRow{At: s.g.cut, Values: make([]uint64, len(s.names))}
	for i, n := range s.names {
		row.Values[i] = s.sample(n)
	}
	s.rows = append(s.rows, row)
	s.g.cut += s.every
}

func (s *Sampler) sample(name string) uint64 {
	for _, r := range s.regs {
		if c, ok := r.counters[name]; ok {
			return c.Value
		} else if g, ok := r.gauges[name]; ok {
			return uint64(max(g.Value, 0))
		}
	}
	return 0
}

// CSV renders the time series with a header row ("cycle,<name>,...").
func (s *Sampler) CSV() string {
	var b strings.Builder
	b.WriteString("cycle")
	for _, n := range s.names {
		b.WriteByte(',')
		b.WriteString(n)
	}
	b.WriteByte('\n')
	for _, r := range s.rows {
		fmt.Fprintf(&b, "%d", r.At)
		for _, v := range r.Values {
			fmt.Fprintf(&b, ",%d", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// MarshalJSON renders {"every":N,"names":[...],"rows":[[cycle,v0,v1,...],...]}.
func (s *Sampler) MarshalJSON() ([]byte, error) {
	rows := make([][]uint64, len(s.rows))
	for i, r := range s.rows {
		row := make([]uint64, 0, len(r.Values)+1)
		row = append(row, uint64(r.At))
		row = append(row, r.Values...)
		rows[i] = row
	}
	names := s.names
	if names == nil {
		names = []string{}
	}
	return json.Marshal(map[string]any{
		"every": uint64(s.every),
		"names": names,
		"rows":  rows,
	})
}
