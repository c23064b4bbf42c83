package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime/debug"
	"strings"

	"smappic/internal/cache"
	"smappic/internal/ckpt"
	"smappic/internal/core"
	"smappic/internal/fault"
	"smappic/internal/kernel"
	"smappic/internal/sim"
	"smappic/internal/workload"
)

// Result is one job's outcome — everything the aggregate needs, in a form
// that round-trips through JSON byte-exactly (the cache stores results as
// JSON, and a cache hit must be indistinguishable from a fresh run).
//
// A Result handed out by the cache or the fleet server is read-only: the
// server shares one record per key among every campaign that resolves it,
// Stats map included, so a caller that needs to change one copies it first.
type Result struct {
	Label  string `json:"label"`
	Key    string `json:"key"`
	Params Params `json:"params"`

	// Cycles is the workload's own measurement: IS runtime, probe round
	// trip, or the store stream's duration. RunCycles is the full
	// simulated time including drain.
	Cycles    uint64  `json:"cycles"`
	RunCycles uint64  `json:"run_cycles"`
	Seconds   float64 `json:"seconds"` // Cycles at the prototype clock

	// Checksum is the IS output hash (hex); empty for other workloads.
	Checksum string `json:"checksum,omitempty"`
	Sorted   bool   `json:"sorted,omitempty"`

	// Attempts is always 1, set by ExecuteWithOpts: a job runs once, and
	// its failure is its answer. The field stays so that cached results
	// and the report's attempts column keep their bytes, and because the
	// benchmark harness reads it.
	Attempts int `json:"attempts"`

	// FPGAHours is the job's modeled FPGA time: prototype wall time times
	// the FPGA count — what the cloud bill is computed from.
	FPGAHours float64 `json:"fpga_hours"`

	// Stats is the run's counter snapshot (sim.Stats.CounterSnapshot);
	// campaign aggregation merges these. Metrics is the full MetricsJSON
	// document, cached so re-runs can serve it without re-simulating.
	Stats   map[string]uint64 `json:"stats"`
	Metrics json.RawMessage   `json:"metrics,omitempty"`
}

// StallError reports a job whose simulation wedged (typically under injected
// faults): it drained with transactions still in flight, and the drain's
// diagnosis (core.Prototype.StallDiagnosis) is its outcome.
type StallError struct{ Diagnosis string }

// Error summarizes the stall; the full diagnosis is preserved.
func (e *StallError) Error() string {
	first, _, _ := strings.Cut(e.Diagnosis, "\n")
	return "campaign: job stalled: " + first
}

// PanicError reports a job whose execution panicked. The executor recovers
// the panic instead of taking the whole campaign down: one job's crash is
// that job's failure, while the worker pool keeps draining the rest of the
// sweep.
type PanicError struct {
	Value string // the panic value, rendered
	Stack string // the goroutine stack at recovery
}

func (e *PanicError) Error() string { return "campaign: job panicked: " + e.Value }

// aborted carries a cancellation/timeout/stall out of the run loop; it is
// recovered at the top of Execute.
type aborted struct{ err error }

// ExecuteOpts tune how a job is executed. None of them change what the job
// computes: periodic checkpointing and crash resume reproduce the cold
// run's result byte-for-byte.
type ExecuteOpts struct {
	// CheckpointPath + CheckpointEvery enable periodic checkpointing (IS
	// only): every CheckpointEvery simulated cycles the run cuts at the
	// next phase barrier, writes a state snapshot to CheckpointPath, and
	// continues from its own snapshot — so every written file is a
	// self-tested restore.
	CheckpointPath  string
	CheckpointEvery uint64
	// ResumeFrom, when set, starts the job from this state snapshot
	// (written by a previous, interrupted execution of the same job).
	ResumeFrom string
}

// Execute runs one job to completion and returns its Result. It honors
// ctx cancellation and deadline between synchronization windows, and
// returns a *StallError when the simulation drains wedged.
// Execution is fully deterministic: equal Params produce byte-identical
// Results.
func Execute(ctx context.Context, p Params) (*Result, error) {
	return ExecuteWithOpts(ctx, p, ExecuteOpts{})
}

// configFor derives the prototype configuration of a job.
func configFor(p Params) (core.Config, error) {
	a, b, c, _ := core.ParseShape(p.Shape)
	cfg := core.DefaultConfig(a, b, c)
	cfg.Core = core.CoreNone
	cfg.Seed = p.Seed
	cfg.GlobalInterleaveHoming = p.Homing == HomingInterleave
	if p.Credits > 0 {
		cfg.Bridge.CreditsPerDst = p.Credits
	}
	cfg.Bridge.ExtraLatency = sim.Time(p.ExtraLatency)
	var err error
	cfg.Faults, err = fault.Parse(p.Faults, p.FaultSeed)
	return cfg, err
}

// ExecuteWithOpts is Execute with checkpoint/resume policies.
func ExecuteWithOpts(ctx context.Context, p Params, opts ExecuteOpts) (res *Result, err error) {
	if verr := p.Validate(); verr != nil {
		return nil, verr
	}
	defer func() {
		if r := recover(); r != nil {
			if a, ok := r.(aborted); ok {
				res, err = nil, a.err
				return
			}
			// Any other panic is a crashed job, not a crashed campaign:
			// surface it as the job's error with the stack preserved.
			res, err = nil, &PanicError{Value: fmt.Sprint(r), Stack: string(debug.Stack())}
		}
	}()

	cfg, err := configFor(p)
	if err != nil {
		return nil, err
	}

	var proto *core.Prototype
	// Every exit path — result, error, abort or job panic — releases the
	// processes a cut-short run leaves parked (isSegment does the same for
	// the prototypes a checkpointing run drops on the way).
	defer func() {
		if proto != nil {
			proto.Close()
		}
	}()
	var cycles sim.Time
	checksum := ""
	sorted := false
	switch p.Workload {
	case WorkloadIS:
		var r workload.ISResult
		proto, r, err = runIS(ctx, p, cfg, opts)
		if err != nil {
			return nil, err
		}
		cycles = r.Cycles
		checksum = fmt.Sprintf("%016x", r.Checksum)
		sorted = r.Sorted

	case WorkloadProbe:
		// One warm dirty-line read from node 0 to node 1, exactly the
		// Fig. 7 measurement (seq 1 keeps the probe line off the warmup
		// line). MeasureLatency drains the run itself; under an injected
		// hang the drain ends in a stall diagnosis.
		proto, err = core.Build(cfg)
		if err != nil {
			return nil, err
		}
		cycles = proto.MeasureLatency(cache.GID{Node: 0, Tile: 0}, cache.GID{Node: 1, Tile: 0}, 1)

	case WorkloadStores:
		proto, err = core.Build(cfg)
		if err != nil {
			return nil, err
		}
		port := proto.PortAt(cache.GID{Node: 0, Tile: 0})
		remote := proto.Map.NodeDRAMBase(1) + 0x100000
		done := false
		sim.Go(proto.EngineForNode(0), "wl", func(proc *sim.Process) {
			start := proc.Now()
			for i := uint64(0); i < uint64(p.Keys); i++ {
				port.Store(proc, remote+i*64, 8, i) // one miss per line
			}
			cycles = proc.Now() - start
			done = true
		})
		drive(ctx, proto, p.MaxCycles)
		if !done {
			return nil, fmt.Errorf("campaign: %s wedged without a stall diagnosis", p.Label())
		}
	}
	if proto.StallDiagnosis != "" {
		return nil, &StallError{Diagnosis: proto.StallDiagnosis}
	}

	metrics, err := proto.MetricsJSON()
	if err != nil {
		return nil, err
	}
	return &Result{
		Label:     p.Label(),
		Key:       p.Key(),
		Params:    p,
		Cycles:    uint64(cycles),
		RunCycles: uint64(proto.Now()),
		Seconds:   proto.Seconds(cycles),
		Checksum:  checksum,
		Sorted:    sorted,
		Attempts:  1,
		FPGAHours: proto.Seconds(proto.Now()) * float64(cfg.FPGAs) / 3600,
		Stats:     proto.Stats.CounterSnapshot(),
		Metrics:   metrics,
	}, nil
}

// isSetup builds one IS execution: prototype, booted kernel with the
// ctx-aware runner installed, and resolved sort parameters.
func isSetup(ctx context.Context, p Params, cfg core.Config) (*core.Prototype, *kernel.Kernel, workload.ISParams, error) {
	proto, err := core.Build(cfg)
	if err != nil {
		return nil, nil, workload.ISParams{}, err
	}
	kc := kernel.DefaultConfig()
	kc.NUMA = p.NUMA
	k := kernel.New(proto, kc)
	k.SetRunner(func() sim.Time { return drive(ctx, proto, p.MaxCycles) })
	return proto, k, sortParams(p, cfg), nil
}

// sortParams resolves a job's sort parameters on cfg's shape: the threads
// (one per hart unless the job names a count) run on the harts of the first
// ActiveNodes nodes, or of every node. Nothing in them needs a build, so a
// snapshot's workload tag is checked before one.
func sortParams(p Params, cfg core.Config) workload.ISParams {
	threads := p.Threads
	if threads == 0 {
		threads = cfg.TotalTiles()
	}
	ip := workload.DefaultISParams(threads)
	ip.Keys = p.Keys
	ip.Seed = p.Seed
	nodes := cfg.TotalNodes()
	if p.ActiveNodes > 0 {
		nodes = p.ActiveNodes
	}
	ip.Affinity = make([]int, nodes*cfg.TilesPerNode)
	for h := range ip.Affinity {
		ip.Affinity[h] = h
	}
	return ip
}

// snapshotCut assembles and encodes the full state snapshot of a just-cut,
// quiescent run.
func snapshotCut(proto *core.Prototype, cfg core.Config, ic *workload.ISCut) (*ckpt.Snapshot, error) {
	st, err := proto.CaptureState()
	if err != nil {
		return nil, err
	}
	st.Kernel = ic.KernelState()
	st.Workload = ic.WorkloadState()
	return &ckpt.Snapshot{
		Kind:       ckpt.KindState,
		ConfigHash: cfg.ConfigHash(),
		Workload:   proto.WorkloadTag,
		Now:        uint64(proto.Now()),
		State:      st,
	}, nil
}

// runIS executes the IS workload under the checkpoint/resume policies: cold,
// or from the job's own periodic checkpoint. It returns the final prototype
// (quiescent, fully drained) and the sort result.
func runIS(ctx context.Context, p Params, cfg core.Config, opts ExecuteOpts) (*core.Prototype, workload.ISResult, error) {
	var from *ckpt.Snapshot // the cut the next segment starts from; nil: cold
	if opts.ResumeFrom != "" {
		snap, err := ckpt.ReadFile(opts.ResumeFrom)
		if err != nil {
			return nil, workload.ISResult{}, err
		}
		if snap.ConfigHash != cfg.ConfigHash() {
			return nil, workload.ISResult{}, &ckpt.MismatchError{Field: "configuration", Got: snap.ConfigHash, Want: cfg.ConfigHash()}
		}
		// The workload tag covers the sort parameters that neither the
		// configuration hash nor the job's key names (the key range, the
		// compute per key), so a snapshot written before DefaultISParams
		// changed resumes nothing.
		if tag := sortParams(p, cfg).Tag(); snap.Workload != tag {
			return nil, workload.ISResult{}, &ckpt.MismatchError{Field: "workload", Got: snap.Workload, Want: tag}
		}
		from = snap
	}

	for {
		proto, r, cut, err := isSegment(ctx, p, cfg, opts, from)
		if err != nil {
			return nil, workload.ISResult{}, err
		}
		if cut == nil {
			return proto, r, nil
		}
		// Periodic checkpoint: persist the cut, then continue from our own
		// file — the continuation doubles as a restore self-test, and a
		// SIGKILL at any point leaves a usable snapshot behind.
		if err := cut.WriteFile(opts.CheckpointPath); err != nil {
			return nil, workload.ISResult{}, err
		}
		if from, err = ckpt.ReadFile(opts.CheckpointPath); err != nil {
			return nil, workload.ISResult{}, err
		}
	}
}

// isSegment runs IS on a fresh prototype, from a cut (nil: cold) to the
// next periodic checkpoint cut or to completion. At a cut it returns the
// snapshot; on completion it returns the final prototype (quiescent, fully
// drained), which the caller closes. On every other path — an error, a
// stall, an abort or job panic unwinding through here — the prototype is
// closed before it is dropped, so the threads the run left parked exit.
func isSegment(ctx context.Context, p Params, cfg core.Config, opts ExecuteOpts, from *ckpt.Snapshot) (final *core.Prototype, r workload.ISResult, cut *ckpt.Snapshot, err error) {
	proto, k, ip, err := isSetup(ctx, p, cfg)
	if err != nil {
		return nil, workload.ISResult{}, nil, err
	}
	defer func() {
		if final == nil {
			proto.Close()
		}
	}()
	var startNow uint64
	if from != nil {
		if err := proto.ApplyState(from.State, false); err != nil {
			return nil, workload.ISResult{}, nil, err
		}
		startNow = from.Now
	}
	var plan *workload.CutPlan
	if opts.CheckpointEvery > 0 && opts.CheckpointPath != "" {
		plan = &workload.CutPlan{After: sim.Time(startNow + opts.CheckpointEvery)}
	}
	var ic *workload.ISCut
	if from != nil {
		r, ic, err = workload.ResumeIS(k, ip, from.State.Kernel, from.State.Workload, plan)
		if err != nil {
			return nil, workload.ISResult{}, nil, err
		}
	} else {
		r, ic = workload.RunISCut(k, ip, plan)
	}
	if ic == nil {
		return proto, r, nil, nil
	}
	cut, err = snapshotCut(proto, cfg, ic)
	return nil, workload.ISResult{}, cut, err
}

// drive runs the prototype to quiescence through its one run entry. The
// job's limits are that entry's stop predicate, evaluated at every window
// barrier: a wall-clock timeout or campaign cancellation and the max_cycles
// bound (passed by at most one window before it is noticed) each end the
// run mid-simulation. A run that wedges drains, and only a drain records a
// stall diagnosis, so the diagnosis is checked after the loop.
func drive(ctx context.Context, proto *core.Prototype, maxCycles uint64) sim.Time {
	var abort error
	now := proto.RunUntil(func() bool {
		switch err := ctx.Err(); {
		case err != nil:
			abort = fmt.Errorf("campaign: job aborted at cycle %d: %w", proto.Now(), err)
		case maxCycles > 0 && uint64(proto.Now()) > maxCycles:
			abort = fmt.Errorf("campaign: job exceeded max_cycles %d", maxCycles)
		}
		return abort != nil
	})
	if abort == nil && proto.StallDiagnosis != "" {
		abort = &StallError{Diagnosis: proto.StallDiagnosis}
	}
	if abort != nil {
		panic(aborted{abort})
	}
	return now
}
