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
		p.Now(), p.Seconds(p.Now()), ClockMHz, p.Cfg.Seed)
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
			ClockMHz:     ClockMHz,
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

// EnableSampler installs an interval sampler snapshotting, every `every`
// cycles, per-node NoC flit totals per class, bridge traffic, DRAM accesses
// and memory-engine occupancy.
func (p *Prototype) EnableSampler(every sim.Time) *sim.Sampler {
	p.Sampler = sim.NewSampler(p.Group, p.nodeStats, every, p.sampleSet()...)
	return p.Sampler
}

// sampleSet lists the sampler's columns.
func (p *Prototype) sampleSet() []string {
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

// drained runs each time the group's event queues empty, in every build.
// A drain that leaves an occupancy gauge nonzero — an MSHR, a memory
// engine, PCIe in flight, a bridge send queue — lost a callback: the run
// wedged, and would end silently unless it says so. The first such drain
// records the stall diagnosis. A clean drain reads each node's gauges in
// place and allocates nothing.
func (p *Prototype) drained() {
	if p.StallDiagnosis != "" {
		return
	}
	for _, s := range p.nodeStats {
		if !s.GaugesZero() {
			p.StallDiagnosis = p.stallDiagnosis()
			return
		}
	}
}

// stallDiagnosis renders a wedged drain: its cycle, every nonzero gauge of
// every node in name order (the names carry the node), and the fault sites'
// status. Nothing in it depends on the sharding.
func (p *Prototype) stallDiagnosis() string {
	var merged sim.Stats
	merged.CopyFrom(p.nodeStats...)
	var b strings.Builder
	fmt.Fprintf(&b, "WATCHDOG: drained at cycle %d with transactions in flight\n", p.Now())
	b.WriteString("outstanding (nonzero gauges):\n")
	for _, name := range merged.GaugeNames() {
		if v, _ := merged.GaugeValue(name); v != 0 {
			fmt.Fprintf(&b, "  %-40s %d\n", name, v)
		}
	}
	if p.Injector != nil {
		b.WriteString("fault sites:\n")
		b.WriteString(p.Injector.String())
	}
	return b.String()
}
