package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// sizes fixes how big each workload's inputs are. The full sizes are the
// benchmark; the small ones only prove under `go test` that every path
// still runs and every declared metric is still printed.
type sizes struct {
	numa        [3]int   // the 48-core shape: numa48-serial, ckpt-cadence, the core and ckpt probes
	isKeys      int      // NPB-IS keys: numa48-serial, npbis8-node, ckpt-cadence
	rvLines     int      // cache lines each hart reads from each of the two arrays
	fleetShapes []string // fleet sweep: shapes x NUMA{t,f} x fleetSeeds seeds
	fleetSeeds  int
	fleetKeys   int
	setups      int // set-ups per run; setup_s is their median
	// Each layer probe times probeBatches batches of its full call count
	// divided by probeDiv.
	probeBatches, probeDiv int
	// Units (repetitions or campaigns) each loop of the timed part runs even
	// when the budget is spent: simulator repetitions, cold campaigns per
	// tenant, cached campaigns. The fleet's peak_rss_mb is read when its
	// units are done.
	simUnits, coldUnits, cachedUnits int
}

func sizesFor(small bool) sizes {
	if small {
		return sizes{numa: [3]int{2, 1, 2}, isKeys: 1 << 9, rvLines: 16, fleetShapes: []string{"2x1x2"}, fleetSeeds: 2,
			fleetKeys: 1 << 9, setups: 1, probeBatches: 1, probeDiv: 50, simUnits: 1, coldUnits: 1, cachedUnits: 2}
	}
	return sizes{numa: [3]int{4, 1, 12}, isKeys: 1 << 13, rvLines: 768, fleetShapes: []string{"2x1x2", "2x2x2"}, fleetSeeds: 8,
		fleetKeys: 1 << 12, setups: 3, probeBatches: 5, probeDiv: 1, simUnits: 3, coldUnits: 2, cachedUnits: 100}
}

// bench is the state of one workload run.
type bench struct {
	opt options
	sz  sizes
	dir string // private scratch directory, removed at exit

	attempted, failed int
	failures          []string
	notes             []string // things a reader of the result must know (skipped inputs)

	// rssMB is peak_rss_mb: the resident-set high-water mark of a fixed
	// amount of work, however many units a fast host fits into the budget.
	// The workloads set it: one repetition for the simulator workloads, the
	// first campaigns after set-up for the fleet.
	rssMB float64
}

// check counts one verified output; a false ok is a failed one.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		if len(b.failures) < 20 {
			b.failures = append(b.failures, fmt.Sprintf(format, args...))
		}
	}
}

// phase is one timed stretch of a workload.
type phase struct {
	units      []float64 // wall seconds of each repetition or campaign
	wall       float64   // first start to last end, seconds
	pointsPerS float64
	cyclesPerS float64
}

// instance is one workload, set up and ready to measure.
type instance interface {
	// setup makes the inputs from the seed, starts what the workload needs
	// and runs one untimed warm-up unit. A run sets up several times to
	// get a steady setup_s; teardown undoes one setup and may be repeated.
	setup() error
	teardown()
	// measure runs closed-loop units until the budget is spent, verifying
	// every output. Spans go to tr when it is non-nil.
	measure(tr *tracer, budget time.Duration) phase
	// finish verifies against the references that are too slow to compute
	// per unit and returns the exact counts and the digest of one unit.
	finish() (counts map[string]uint64, digest string)
	// layerMetrics returns the per-layer numbers only this workload can
	// measure (e.g. the checkpoint overhead share).
	layerMetrics(tr *tracer, traced phase) map[string]float64
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runWorkload runs one workload end to end: set-up, the timed part (and in
// a traced run a second, traced timed part under the CPU profiler, then the
// layer probes), verification, metrics.
func runWorkload(o options) (*result, error) {
	var build func(*bench) instance
	for _, w := range workloads {
		if w.name == o.workload {
			build = w.build
		}
	}
	if build == nil {
		return nil, fmt.Errorf("unknown workload %q; have %v", o.workload, workloadNames())
	}
	dir, err := scratchDir(o.workload)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b := &bench{opt: o, sz: sizesFor(o.small), dir: dir}
	res := &result{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Metrics: map[string]metric{}, Host: readHostInfo(dir)}

	inst := build(b)
	var setups []float64
	for i := 0; i < b.sz.setups; i++ {
		if i > 0 {
			inst.teardown()
		}
		start := time.Now()
		if err := inst.setup(); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", o.workload, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer inst.teardown()

	budget := time.Duration(o.seconds * float64(time.Second))
	var plain, traced phase
	var tr *tracer
	var profile bytes.Buffer
	if !o.trace {
		plain = inst.measure(nil, budget)
	} else {
		// A third of the budget untraced, for the overhead figure; the rest
		// traced and profiled.
		plain = inst.measure(nil, budget/3)
		tr = newTracer()
		if err := pprof.StartCPUProfile(&profile); err != nil {
			return nil, err
		}
		traced = inst.measure(tr, budget-budget/3)
		pprof.StopCPUProfile()
	}
	counts, digest := inst.finish()
	res.Counts, res.SimDigest = counts, digest

	if !o.trace {
		res.Samples, res.UnitSeconds = len(plain.units), plain.units
		vals := map[string]float64{"sim_cycles_per_s": plain.cyclesPerS, "points_per_s": plain.pointsPerS,
			"setup_s": median(setups), "peak_rss_mb": b.rssMB}
		for _, def := range endToEnd {
			res.Metrics[def.name] = metric{vals[def.name], def.unit}
		}
	} else {
		res.Samples, res.UnitSeconds = len(traced.units), traced.units
		vals := inst.layerMetrics(tr, traced)
		// The probes must not run against the workload's heap (a fleet
		// server that has served hundreds of campaigns holds a gigabyte).
		inst.teardown()
		runtime.GC()
		for name, v := range runProbes(b) {
			vals[name] = v
		}
		for name, v := range counts {
			vals[name] = float64(v)
		}
		if ev := counts["sim.events"]; ev > 0 {
			vals["sim.host_ns_per_event"] = median(traced.units) * 1e9 / float64(ev)
		}
		shares, err := cpuShares(profile.Bytes())
		if err != nil {
			return nil, fmt.Errorf("decoding the CPU profile: %w", err)
		}
		for layer, share := range shares {
			vals["cpu_share."+layer] = share
		}
		if traced.pointsPerS > 0 {
			vals["trace_overhead"] = plain.pointsPerS/traced.pointsPerS - 1
		}
		for _, def := range perLayer {
			res.Metrics[def.name] = metric{vals[def.name], def.unit}
			delete(vals, def.name)
		}
		if len(vals) > 0 {
			return nil, fmt.Errorf("measured but not declared in perLayer: %v", sortedKeys(vals))
		}
		spans := o.spans
		if spans == "" {
			spans = filepath.Join(scratchRoot, "spans-"+o.workload+".json")
		}
		n, err := tr.writeFile(spans)
		if err != nil {
			return nil, err
		}
		fmt.Printf("spans: %d written to %s\n", n, spans)
	}
	res.Attempted, res.Failed, res.Failures, res.Notes = b.attempted, b.failed, b.failures, b.notes
	res.Correct = b.failed == 0 && b.attempted > 0
	return res, nil
}

// loop runs unit until the budget is spent (and at least min times) and
// returns each unit's wall time in seconds.
func loop(budget time.Duration, min int, unit func() time.Duration) (units []float64) {
	start := time.Now()
	for len(units) < min || time.Since(start) < budget {
		units = append(units, unit().Seconds())
	}
	return units
}
