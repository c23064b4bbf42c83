package core

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"smappic/internal/sim"
)

// flushTelemetry publishes derived statistics that are kept out of the hot
// path during simulation — per-link NoC counters (accumulated in flat arrays
// inside each mesh) and per-node cache-miss latency histograms (merged from
// the per-tile ones) — and refolds Stats. It is idempotent — calling it
// twice does not double-count — so Report and MetricsJSON may both be used
// on one run.
func (p *Prototype) flushTelemetry() {
	for _, n := range p.Nodes {
		n.Mesh.FlushLinkStats()
		s := p.nodeStats[n.ID]
		merged := s.Histogram(n.name + ".bpc.miss_latency")
		merged.Reset()
		for tID := range n.Tiles {
			merged.Merge(s.FindHistogram(fmt.Sprintf("%s.tile%d.bpc.miss_latency", n.name, tID)))
		}
	}
	// Node instrument names are disjoint, so this is a rename-free union; it
	// is idempotent because CopyFrom replaces rather than adds.
	p.Stats.CopyFrom(p.nodeStats...)
}

// Report renders the end-of-run statistics as text: a run header followed by
// every counter, gauge and histogram in the registry.
func (p *Prototype) Report() string {
	p.flushTelemetry()
	var b strings.Builder
	fmt.Fprintf(&b, "# shape %dx%dx%d, %d cycles (%.6f s at %d MHz), seed %d\n",
		p.Cfg.FPGAs, p.Cfg.NodesPerFPGA, p.Cfg.TilesPerNode,
		p.Now(), p.Seconds(p.Now()), p.Cfg.ClockMHz, p.Cfg.Seed)
	b.WriteString(p.Stats.String())
	if p.Injector != nil {
		b.WriteString("# fault injection\n")
		b.WriteString(p.Injector.String())
	}
	if p.StallDiagnosis != "" {
		b.WriteString(p.StallDiagnosis)
	}
	return b.String()
}

// metricsDoc is the wire form of MetricsJSON. Field order is fixed and all
// maps inside are rendered with sorted keys, so two identical runs produce
// byte-identical documents.
type metricsDoc struct {
	Meta    metricsMeta  `json:"meta"`
	Stats   *sim.Stats   `json:"stats"`
	Samples *sim.Sampler `json:"samples,omitempty"`
}

type metricsMeta struct {
	FPGAs        int    `json:"fpgas"`
	NodesPerFPGA int    `json:"nodes_per_fpga"`
	TilesPerNode int    `json:"tiles_per_node"`
	Cycles       uint64 `json:"cycles"`
	ClockMHz     int    `json:"clock_mhz"`
	Seed         uint64 `json:"seed"`
}

// MetricsJSON renders the run's metadata, full statistics registry and (when
// a sampler is installed) the sampled time series as one JSON document.
func (p *Prototype) MetricsJSON() ([]byte, error) {
	p.flushTelemetry()
	doc := metricsDoc{
		Meta: metricsMeta{
			FPGAs:        p.Cfg.FPGAs,
			NodesPerFPGA: p.Cfg.NodesPerFPGA,
			TilesPerNode: p.Cfg.TilesPerNode,
			Cycles:       uint64(p.Now()),
			ClockMHz:     p.Cfg.ClockMHz,
			Seed:         p.Cfg.Seed,
		},
		Stats:   p.Stats,
		Samples: p.Sampler,
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// EnableSampler installs an interval sampler snapshotting the given counter
// or gauge names (trailing "*" sums a prefix) every `every` cycles. With no
// names it samples a default set: per-node NoC flit totals per class, bridge
// traffic, DRAM accesses and memory-engine occupancy.
func (p *Prototype) EnableSampler(every sim.Time, names ...string) *sim.Sampler {
	if len(names) == 0 {
		names = p.defaultSampleSet()
	}
	p.Sampler = sim.NewSampler(p.Group, p.nodeStats, every, names...)
	return p.Sampler
}

// defaultSampleSet lists the sampler columns used when the caller names none.
func (p *Prototype) defaultSampleSet() []string {
	var names []string
	for _, n := range p.Nodes {
		names = append(names,
			n.name+".mesh.noc1.flits",
			n.name+".mesh.noc2.flits",
			n.name+".mesh.noc3.flits",
			n.name+".bridge.tx_flits",
			n.name+".dram.reads",
			n.name+".dram.writes",
			n.name+".memctl.rd_inflight",
			n.name+".memctl.wr_inflight",
		)
	}
	return names
}

// WriteTrace exports the recorded event trace in Chrome trace-event JSON
// (load in Perfetto or chrome://tracing): the nodes' rings one after the
// other in node order, which no sharding can change. Safe to call with no
// tracer installed; the result is then a valid empty trace.
func (p *Prototype) WriteTrace(w io.Writer) error {
	rings := make([]*sim.Tracer, len(p.Nodes))
	for i, n := range p.Nodes {
		rings[i] = n.Tracer
	}
	return sim.WriteChrome(w, rings...)
}

// GroupWatchdog is the forward-progress monitor of every build. It
// schedules no events — an event per interval would drag a drained clock to
// the next interval multiple and perturb window contents, breaking the
// "watched = unwatched, byte for byte" contract — and piggybacks on the
// window barrier instead, a point where every shard is provably quiescent:
// it compares each shard engine's executed-event count against the last
// barrier at which that shard made progress. A shard that executes nothing
// for a full interval while its nodes' registries show outstanding
// transactions is wedged; the diagnosis names it. A second detector covers
// the wedges no barrier sees — the only kind a one-shard build can have,
// since its every barrier follows executed events: if the whole group
// drains (StepWindow returns false) while occupancy gauges are still
// nonzero, callbacks were lost and the run stalled silently. RunUntil calls
// drained() for that case.
type GroupWatchdog struct {
	p        *Prototype
	interval sim.Time
	lastExec []uint64   // executed-event count per shard at its last progress
	lastAt   []sim.Time // group time of that last progress
	fired    bool
}

// EnableGroupWatchdog arms the watchdog; Build calls it when
// WatchdogInterval is set. It observes window barriers and schedules no
// events.
func (p *Prototype) EnableGroupWatchdog(interval sim.Time) *GroupWatchdog {
	w := &GroupWatchdog{
		p:        p,
		interval: interval,
		lastExec: make([]uint64, p.Group.Shards()),
		lastAt:   make([]sim.Time, p.Group.Shards()),
	}
	p.Group.OnBarrier(w.check)
	p.GroupWatchdog = w
	return w
}

// Fired reports whether the watchdog has recorded a stall diagnosis.
func (w *GroupWatchdog) Fired() bool { return w != nil && w.fired }

// check runs at every window barrier, while all shards are parked.
func (w *GroupWatchdog) check() {
	if w.fired {
		return
	}
	now := w.p.Now()
	for i := range w.lastExec {
		e := w.p.Group.Engine(i).Executed()
		if e != w.lastExec[i] {
			w.lastExec[i], w.lastAt[i] = e, now
			continue
		}
		if now-w.lastAt[i] < w.interval {
			continue
		}
		if len(w.p.inflight(i)) == 0 {
			// Idle, not wedged (e.g. this FPGA's cores halted early);
			// restart its clock so later traffic gets a full interval.
			w.lastAt[i] = now
			continue
		}
		w.fired = true
		w.p.StallDiagnosis = w.p.shardStallDiagnosis(i, w.interval)
		return
	}
}

// drained runs after the group's event queues empty: a drain with
// transactions still outstanding means callbacks were dropped and the run
// wedged without ever reaching another barrier check. Nil-safe (unwatched
// builds have no GroupWatchdog).
func (w *GroupWatchdog) drained() {
	if w == nil || w.fired {
		return
	}
	for i := range w.lastExec {
		if len(w.p.inflight(i)) > 0 {
			w.fired = true
			w.p.StallDiagnosis = w.p.shardStallDiagnosis(i, w.interval)
			return
		}
	}
}

// inflight lists the nonzero occupancy gauges every subsystem maintains in
// its node's registry (MSHRs, memory engines, PCIe in flight, bridge send
// queues) over a shard's nodes, one diagnosis line each in name order: any
// line means a transaction is outstanding on the shard.
func (p *Prototype) inflight(shard int) []string {
	var regs []*sim.Stats
	for n, s := range p.nodeShard {
		if s == shard {
			regs = append(regs, p.nodeStats[n])
		}
	}
	var merged sim.Stats
	merged.CopyFrom(regs...)
	var lines []string
	for _, name := range merged.GaugeNames() {
		if v, _ := merged.GaugeValue(name); v != 0 {
			lines = append(lines, fmt.Sprintf("  %-40s %d\n", name, v))
		}
	}
	return lines
}

// shardStallDiagnosis renders the watchdog's dump, naming the wedged shard
// and listing where its outstanding work is stuck.
func (p *Prototype) shardStallDiagnosis(shard int, interval sim.Time) string {
	var b strings.Builder
	unit := "all nodes"
	if len(p.engs) > 1 {
		unit = fmt.Sprintf("%s%d", p.Cfg.Granularity(), shard)
	}
	fmt.Fprintf(&b, "WATCHDOG: shard %d (%s) made no forward progress for %d cycles at cycle %d with transactions in flight\n",
		shard, unit, interval, p.Now())
	fmt.Fprintf(&b, "outstanding on shard %d (nonzero gauges):\n", shard)
	b.WriteString(strings.Join(p.inflight(shard), ""))
	if p.Injector != nil {
		b.WriteString("fault sites:\n")
		b.WriteString(p.Injector.String())
	}
	return b.String()
}
