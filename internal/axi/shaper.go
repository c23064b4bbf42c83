package axi

import "smappic/internal/sim"

// Shaper wraps a Target with a configurable-latency performance model.
// SMAPPIC includes one in the inter-node bridge (paper §3.5): off-node
// interactions cannot be mapped into FPGA gates, so their performance is
// modeled by shaping the functional traffic.
type Shaper struct {
	t Target
	// extraLatency is added to every request before it reaches the target.
	extraLatency sim.Time
	pool         *Forwarder

	cBytes *sim.Counter // bytes pushed through the shaper
}

// NewShaper wraps t and registers its telemetry under name
// ("<name>.shaped_bytes").
func NewShaper(eng *sim.Engine, t Target, extraLatency sim.Time, stats *sim.Stats, name string) *Shaper {
	return &Shaper{
		t: t, extraLatency: extraLatency, pool: NewForwarder(eng),
		cBytes: stats.Counter(name + ".shaped_bytes"),
	}
}

// Do forwards the transfer after shaping.
func (s *Shaper) Do(t *Txn, done func(Resp)) {
	s.cBytes.Add(uint64(t.Size()))
	s.pool.Do(s.extraLatency, s.t, t, done)
}

var _ Target = (*Shaper)(nil)
