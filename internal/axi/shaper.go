package axi

import "smappic/internal/sim"

// Shaper wraps a Target with a configurable-latency, configurable-bandwidth
// performance model. SMAPPIC includes one in the inter-node bridge and the
// memory controller (paper §3.5): off-node interactions cannot be mapped
// into FPGA gates, so their performance is modeled by shaping the functional
// traffic.
type Shaper struct {
	eng *sim.Engine
	t   Target
	// ExtraLatency is added to every request before it reaches the target.
	ExtraLatency sim.Time
	// BytesPerCycle throttles throughput; zero means unlimited.
	BytesPerCycle int

	busy sim.Time
	pool *Forwarder

	cThrottle *sim.Counter // cycles requests waited on the busy link
	cBytes    *sim.Counter // bytes pushed through the shaper
}

// NewShaper wraps t and registers its telemetry under name
// ("<name>.throttle_cycles", "<name>.shaped_bytes"). With zero latency and
// bandwidth it is a transparent pass-through.
func NewShaper(eng *sim.Engine, t Target, extraLatency sim.Time, bytesPerCycle int, stats *sim.Stats, name string) *Shaper {
	return &Shaper{
		eng: eng, t: t, ExtraLatency: extraLatency, BytesPerCycle: bytesPerCycle, pool: NewForwarder(eng),
		cThrottle: stats.Counter(name + ".throttle_cycles"),
		cBytes:    stats.Counter(name + ".shaped_bytes"),
	}
}

// Busy returns the bandwidth-reservation clock, the shaper's only mutable
// state (for checkpoint capture).
func (s *Shaper) Busy() sim.Time { return s.busy }

// SetBusy restores the bandwidth-reservation clock from a checkpoint.
func (s *Shaper) SetBusy(t sim.Time) { s.busy = t }

func (s *Shaper) delay(n int) sim.Time {
	d := s.ExtraLatency
	s.cBytes.Add(uint64(n))
	if s.BytesPerCycle > 0 {
		beats := sim.Time((n + s.BytesPerCycle - 1) / s.BytesPerCycle)
		if beats == 0 {
			beats = 1
		}
		start := s.eng.Now() + d
		if s.busy > start {
			s.cThrottle.Add(uint64(s.busy - start))
			start = s.busy
		}
		s.busy = start + beats
		return start + beats - s.eng.Now()
	}
	return d
}

// Do forwards the transfer after shaping.
func (s *Shaper) Do(t *Txn, done func(Resp)) {
	s.pool.Do(s.delay(t.Size()), s.t, t, done)
}

var _ Target = (*Shaper)(nil)
