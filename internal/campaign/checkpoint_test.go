package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"smappic/internal/ckpt"
	"smappic/internal/ckpt/ckpttest"
)

// isParams is a small real-simulation IS job used by the checkpoint tests.
func isParams() Params {
	return Params{
		Shape:    "1x1x2",
		Workload: WorkloadIS,
		Homing:   HomingRegion,
		NUMA:     true,
		Seed:     3,
		Keys:     1 << 10,
	}
}

// resultBytes renders a Result for byte comparison, with the runner-owned
// Attempts field masked out.
func resultBytes(t *testing.T, r *Result) []byte {
	t.Helper()
	c := *r
	c.Attempts = 0
	b, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestExecuteRecoversPanic wedges an IS job (hang fault, no watchdog) so the
// kernel's Join panics on a drained queue, and requires ExecuteWithOpts to
// convert that into a typed, retryable PanicError instead of crashing.
func TestExecuteRecoversPanic(t *testing.T) {
	p := isParams()
	p.Shape = "2x1x2" // multi-node, so the hang wedges real PCIe traffic
	p.Faults = "pcie.*.hang:after=10"
	_, err := Execute(context.Background(), p)
	if !IsPanic(err) {
		t.Fatalf("error %T (%v), want PanicError", err, err)
	}
	var pe *PanicError
	errors.As(err, &pe)
	if pe.Stack == "" {
		t.Error("PanicError carries no stack trace")
	}
}

// TestPanicRetriedThenSucceeds drives the runner's retry policy with an
// executor that panics (as a recovered PanicError) once per job before
// succeeding: every job must finish StatusRun on attempt 2 with a
// panic_retry event in between.
func TestPanicRetriedThenSucceeds(t *testing.T) {
	spec := testSpec()
	spec.Retries = 1
	var mu sync.Mutex
	failed := map[string]bool{}
	var events []EventType
	r := &Runner{
		Workers: 2,
		Exec: func(ctx context.Context, p Params) (*Result, error) {
			mu.Lock()
			first := !failed[p.Key()]
			failed[p.Key()] = true
			mu.Unlock()
			if first {
				return nil, &PanicError{Value: "injected", Stack: "stack"}
			}
			return fakeResult(p), nil
		},
		OnEvent: func(ev Event) {
			mu.Lock()
			events = append(events, ev.Type)
			mu.Unlock()
		},
	}
	res, err := r.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != 4 || res.Failed != 0 {
		t.Fatalf("executed %d failed %d, want 4/0", res.Executed, res.Failed)
	}
	retries := 0
	for _, out := range res.Jobs {
		if out.Result.Attempts != 2 {
			t.Errorf("job %s: %d attempts, want 2", out.Job.Params.Label(), out.Result.Attempts)
		}
	}
	for _, ev := range events {
		if ev == EventPanicRetry {
			retries++
		}
	}
	if retries != 4 {
		t.Errorf("%d panic_retry events, want 4", retries)
	}
}

// TestExecuteCheckpointResumeByteIdentical interrupts a checkpointing job by
// construction — the periodic checkpoint file it leaves behind IS the state
// of an interrupted run — and requires the resumed execution to reproduce
// the cold run byte for byte, including metrics and cycle accounting.
func TestExecuteCheckpointResumeByteIdentical(t *testing.T) {
	ctx := context.Background()
	p := isParams()
	cold, err := Execute(ctx, p)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ckptFile := filepath.Join(dir, "job.ckpt")
	mid, err := ExecuteWithOpts(ctx, p, ExecuteOpts{CheckpointPath: ckptFile, CheckpointEvery: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resultBytes(t, mid), resultBytes(t, cold)) {
		t.Fatal("periodic checkpointing perturbed the result")
	}
	if _, err := os.Stat(ckptFile); err != nil {
		t.Fatalf("no checkpoint file left behind: %v", err)
	}

	resumed, err := ExecuteWithOpts(ctx, p, ExecuteOpts{ResumeFrom: ckptFile})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resultBytes(t, resumed), resultBytes(t, cold)) {
		t.Fatal("resumed result diverges from the cold run")
	}
	if resumed.SimulatedCycles != cold.SimulatedCycles {
		t.Errorf("resume changed SimulatedCycles: %d vs %d (resume must not re-base accounting)",
			resumed.SimulatedCycles, cold.SimulatedCycles)
	}
}

// TestResumeRefusesAnotherSort edits the workload tag of a job's own state
// snapshot to name another key range — a checkpoint written before
// DefaultISParams changed, which neither the configuration hash nor the job
// key tells apart — and re-seals it. Resuming it is a typed workload
// mismatch, the error on which the executor discards the file and starts
// cold.
func TestResumeRefusesAnotherSort(t *testing.T) {
	ctx := context.Background()
	p := isParams()
	path := filepath.Join(t.TempDir(), "job.ckpt")
	if _, err := ExecuteWithOpts(ctx, p, ExecuteOpts{CheckpointPath: path, CheckpointEvery: 10_000}); err != nil {
		t.Fatal(err)
	}
	snap, err := ckpt.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tag := snap.Workload
	if snap.Workload = strings.Replace(tag, "maxkey=1024;", "maxkey=2048;", 1); snap.Workload == tag {
		t.Fatalf("workload tag %q names no max key of 1024", tag)
	}
	if err := snap.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	_, err = ExecuteWithOpts(ctx, p, ExecuteOpts{ResumeFrom: path})
	var me *ckpt.MismatchError
	if !errors.As(err, &me) || me.Field != "workload" || me.Want != tag {
		t.Fatalf("resuming another sort: error %T (%v), want a workload MismatchError wanting %q", err, err, tag)
	}
}

// TestRunnerResumesFromCheckpointFile plants an interrupted job's checkpoint
// in the cache directory and verifies the runner picks it up (resumed
// event), completes it, serves a byte-identical result, and cleans the file
// up on success. A corrupt checkpoint must be discarded — cold restart —
// without failing the job or burning a retry attempt.
func TestRunnerResumesFromCheckpointFile(t *testing.T) {
	ctx := context.Background()
	spec := Spec{
		Name:            "resume",
		Shapes:          []string{"1x1x2"},
		Workloads:       []string{WorkloadIS},
		NUMA:            []bool{true},
		Seeds:           []uint64{3},
		Keys:            1 << 10,
		CheckpointEvery: 10_000,
	}
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	p := jobs[0].Params // the exact params (with defaults) the runner will key by
	cold, err := Execute(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	newRunner := func(dir string, events *[]EventType) *Runner {
		cache, err := OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		return &Runner{Cache: cache, OnEvent: func(ev Event) {
			mu.Lock()
			*events = append(*events, ev.Type)
			mu.Unlock()
		}}
	}
	sawEvent := func(events []EventType, want EventType) bool {
		for _, ev := range events {
			if ev == want {
				return true
			}
		}
		return false
	}

	t.Run("valid", func(t *testing.T) {
		dir := t.TempDir()
		// Fabricate the interruption: run once with checkpointing to get a
		// real mid-run snapshot, then plant it where the runner looks.
		ckptFile := filepath.Join(dir, p.Key()+".ckpt")
		if _, err := ExecuteWithOpts(ctx, p, ExecuteOpts{CheckpointPath: ckptFile, CheckpointEvery: 10_000}); err != nil {
			t.Fatal(err)
		}
		var events []EventType
		res, err := newRunner(dir, &events).Run(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Executed != 1 || res.Failed != 0 {
			t.Fatalf("executed %d failed %d, want 1/0", res.Executed, res.Failed)
		}
		if !sawEvent(events, EventResumed) {
			t.Errorf("no resumed event; saw %v", events)
		}
		if !bytes.Equal(resultBytes(t, res.Jobs[0].Result), resultBytes(t, cold)) {
			t.Error("resumed job result diverges from cold run")
		}
		if _, err := os.Stat(ckptFile); !os.IsNotExist(err) {
			t.Error("checkpoint file not removed after success")
		}
	})

	// An unusable resume file — damaged, or sealed under format version 1 —
	// is discarded for a cold restart that burns no attempt.
	for name, file := range map[string][]byte{
		"corrupt":  []byte("not a snapshot"),
		"version1": version1State,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			ckptFile := filepath.Join(dir, p.Key()+".ckpt")
			if err := os.WriteFile(ckptFile, file, 0o644); err != nil {
				t.Fatal(err)
			}
			var events []EventType
			res, err := newRunner(dir, &events).Run(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.Executed != 1 || res.Failed != 0 {
				t.Fatalf("executed %d failed %d, want 1/0", res.Executed, res.Failed)
			}
			if res.Jobs[0].Result.Attempts != 1 {
				t.Errorf("cold restart after discarded checkpoint burned attempts: %d", res.Jobs[0].Result.Attempts)
			}
			if !bytes.Equal(resultBytes(t, res.Jobs[0].Result), resultBytes(t, cold)) {
				t.Error("job result after discarded checkpoint diverges from cold run")
			}
		})
	}
}

// TestWarmStartForksAndSavesCycles runs the same job cold and warm-started:
// the warm run must simulate strictly fewer cycles, produce the same sorted
// output, and — for a fault-free default-bridge job, where the prefix
// configuration equals the full configuration — the same metrics document.
func TestWarmStartForksAndSavesCycles(t *testing.T) {
	ctx := context.Background()
	cold, err := Execute(ctx, isParams())
	if err != nil {
		t.Fatal(err)
	}
	wp := isParams()
	wp.WarmStart = true
	warm, err := ExecuteWithOpts(ctx, wp, ExecuteOpts{}) // no path: prefix built in-process
	if err != nil {
		t.Fatal(err)
	}
	if warm.SimulatedCycles >= cold.SimulatedCycles {
		t.Errorf("warm start saved nothing: %d simulated cycles vs cold %d",
			warm.SimulatedCycles, cold.SimulatedCycles)
	}
	if warm.Checksum != cold.Checksum || !warm.Sorted {
		t.Errorf("warm output wrong: checksum %s sorted=%v, cold %s", warm.Checksum, warm.Sorted, cold.Checksum)
	}
	// Exact equality holds only on single-node shapes: the fork skips
	// bridge/injector restore, so multi-node warm runs are
	// result-identical but not cycle-identical to cold.
	if warm.RunCycles != cold.RunCycles || !bytes.Equal(warm.Metrics, cold.Metrics) {
		t.Error("fault-free warm run should equal the cold run's simulation exactly")
	}
	if warm.Key == cold.Key {
		t.Error("warm_start does not change the cache key")
	}
}

// warmSpec is a two-point warm-started sweep whose fault variants share one
// prefix identity.
func warmSpec() Spec {
	return Spec{
		Name:      "warm",
		Shapes:    []string{"1x1x2"},
		Workloads: []string{WorkloadIS},
		NUMA:      []bool{true},
		Seeds:     []uint64{3},
		Faults:    []string{"", "node0.bridge.delay:p=0.02,cycles=400"},
		Keys:      1 << 10,
		WarmStart: true,
	}
}

// TestRunnerWarmStartSharesPrefix runs a multi-seed warm-started sweep and
// verifies the prefix snapshot is generated once in the cache directory,
// every point succeeds, and its recorded prefix identity matches PrefixKey.
func TestRunnerWarmStartSharesPrefix(t *testing.T) {
	spec := warmSpec()
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Workers: 2, Cache: cache}
	res, err := r.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != len(jobs) || res.Failed != 0 {
		t.Fatalf("executed %d failed %d, want %d/0", res.Executed, res.Failed, len(jobs))
	}
	// Both fault variants share one prefix identity (faults are excluded
	// from the prefix), so exactly one warm-*.ckpt exists.
	warmFiles, err := filepath.Glob(filepath.Join(dir, "warm-*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(warmFiles) != 1 {
		t.Fatalf("%d warm prefix files, want 1: %v", len(warmFiles), warmFiles)
	}
	snap, err := ckpt.ReadFile(warmFiles[0])
	if err != nil {
		t.Fatal(err)
	}
	if snap.PrefixHash != jobs[0].Params.PrefixKey() {
		t.Error("prefix snapshot's identity does not match PrefixKey")
	}
	for _, out := range res.Jobs {
		if out.Result.SimulatedCycles >= out.Result.RunCycles {
			t.Errorf("job %s: warm start simulated %d of %d cycles — no savings",
				out.Job.Params.Label(), out.Result.SimulatedCycles, out.Result.RunCycles)
		}
	}
}

// version1State is a format-version-1 state snapshot file: the envelope this
// build still writes, around the JSON payload it no longer reads.
var version1State = ckpttest.Seal(1, ckpt.KindState, []byte(`{"kind":2,"config_hash":"x","now":1,"state":{}}`))

// TestUnusableWarmPrefixIsReplaced plants garbage, a truncated prefix, a
// version-1 file and a prefix of another sort where a warm-started campaign
// keeps its shared prefix. The file must cost nothing but a rebuild: every
// job completes on its first attempt with the result a clean cache gives,
// and the first job to find the file unusable replaces it in place —
// through the Runner and through a bare Executor (the fleet worker path)
// alike.
func TestUnusableWarmPrefixIsReplaced(t *testing.T) {
	ctx := context.Background()
	spec := warmSpec()
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	prefix, err := BuildPrefix(ctx, jobs[0].Params)
	if err != nil {
		t.Fatal(err)
	}
	run := func(dir string) *CampaignResult {
		t.Helper()
		cache, err := OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		res, err := (&Runner{Workers: 2, Cache: cache}).Run(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean := run(t.TempDir())
	if clean.Executed != len(jobs) {
		t.Fatalf("clean-cache run executed %d of %d jobs", clean.Executed, len(jobs))
	}
	sameAsClean := func(t *testing.T, out JobOutcome) {
		t.Helper()
		if out.Status != StatusRun {
			t.Fatalf("job %s: status %s (%s), want run", out.Job.Params.Label(), out.Status, out.Err)
		}
		if out.Result.Attempts != 1 {
			t.Errorf("job %s: the bad prefix burned attempts: %d", out.Job.Params.Label(), out.Result.Attempts)
		}
		want, err := json.Marshal(clean.Jobs[out.Job.Index].Result)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(out.Result)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("job %s: result differs from the clean-cache run", out.Job.Params.Label())
		}
	}

	rebuiltInPlace := func(t *testing.T, path string) {
		t.Helper()
		if snap, err := ckpt.ReadFile(path); err != nil {
			t.Errorf("warm prefix not rebuilt in place: %v", err)
		} else if snap.PrefixHash != jobs[0].Params.PrefixKey() || snap.Workload != prefix.Workload {
			t.Error("rebuilt prefix has the wrong identity")
		}
	}

	var valid, otherSort bytes.Buffer
	if err := prefix.Write(&valid); err != nil {
		t.Fatal(err)
	}
	// The right prefix identity around another sort: a prefix written before
	// DefaultISParams changed.
	stale := *prefix
	stale.Workload += ";stale"
	if err := stale.Write(&otherSort); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		file []byte
	}{
		{"garbage", []byte("not a snapshot")},
		{"truncated", valid.Bytes()[:valid.Len()/2]},
		{"version1", version1State},
		{"another sort", otherSort.Bytes()},
	} {
		t.Run("runner/"+c.name, func(t *testing.T) {
			dir := t.TempDir()
			path := warmPathIn(dir, jobs[0].Params)
			if err := os.WriteFile(path, c.file, 0o644); err != nil {
				t.Fatal(err)
			}
			res := run(dir)
			for _, out := range res.Jobs {
				sameAsClean(t, out)
			}
			rebuiltInPlace(t, path)
		})
		t.Run("executor/"+c.name, func(t *testing.T) {
			dir := t.TempDir()
			path := warmPathIn(dir, jobs[0].Params)
			if err := os.WriteFile(path, c.file, 0o644); err != nil {
				t.Fatal(err)
			}
			for _, job := range jobs {
				sameAsClean(t, (&Executor{Dir: dir}).RunJob(ctx, job, spec.Policy(), len(jobs)))
			}
			rebuiltInPlace(t, path)
		})
	}

	// The file vanishes between the executor's stat and the job's read (a
	// cache directory being cleaned): the job sees "no such file", not a
	// snapshot error, and must rebuild it the same way.
	t.Run("executor/removed under the job", func(t *testing.T) {
		dir := t.TempDir()
		path := warmPathIn(dir, jobs[0].Params)
		if err := os.WriteFile(path, version1State, 0o644); err != nil {
			t.Fatal(err)
		}
		e := &Executor{Dir: dir}
		e.execOpts = func(ctx context.Context, p Params, opts ExecuteOpts) (*Result, error) {
			os.Remove(path)
			return ExecuteWithOpts(ctx, p, opts)
		}
		sameAsClean(t, e.RunJob(ctx, jobs[0], spec.Policy(), len(jobs)))
		rebuiltInPlace(t, path)
	})
}

// TestEveryBarrierCutMatchesPlainRun cuts an IS job at every phase barrier —
// capture, write, re-read, restore into a fresh build, four times over — and
// requires the whole Result of the plain run, byte for byte: every seed 1–40
// of 2x1x2 and 1–20 of 2x2x2 at 512 keys, and the 48-core 4x1x12 shape.
//
// The seeds in known are pinned as known different, not as passes: they are
// what is left of ROADMAP's open item. A credit-return read is in flight when
// the threads leave the barrier; the drain before the capture completes it,
// so the restored sender starts with the credits back and stalls once less.
// That moves node1.bridge.credit_stall alone, except at seed 27, where the
// earlier send also shifts a few NoC hops and the end by one cycle. The cut
// would have to carry an in-flight AXI read to close it; no field of the
// quiescent state can.
func TestEveryBarrierCutMatchesPlainRun(t *testing.T) {
	type row struct {
		shape string
		keys  int
		seed  uint64
	}
	rows := []row{{"4x1x12", 8192, 1000}}
	for seed := uint64(1); seed <= 40; seed++ {
		rows = append(rows, row{"2x1x2", 512, seed})
	}
	for seed := uint64(1); seed <= 20; seed++ {
		rows = append(rows, row{"2x2x2", 512, seed})
	}
	// known maps a row to cut minus plain for every counter that differs, and
	// for run_cycles; the checksum must not.
	stall := "node1.bridge.credit_stall"
	known := map[string]map[string]int64{
		"2x1x2-seed17": {stall: -1},
		"2x1x2-seed27": {stall: -1, "run_cycles": 1,
			"node0.mesh.noc1.hop_cycles": -8, "node0.mesh.noc1.wait_cycles": -8,
			"node1.mesh.noc2.hop_cycles": 1, "node1.mesh.noc2.wait_cycles": 1},
		"2x1x2-seed34": {stall: -1},
		"2x1x2-seed36": {stall: -1},
	}
	for _, row := range rows {
		row := row
		name := fmt.Sprintf("%s-seed%d", row.shape, row.seed)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p := Params{Shape: row.shape, Workload: WorkloadIS, Homing: HomingRegion, NUMA: true, Seed: row.seed, Keys: row.keys}
			plain, err := Execute(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			cut, err := ExecuteWithOpts(context.Background(), p,
				ExecuteOpts{CheckpointPath: filepath.Join(t.TempDir(), "job.ckpt"), CheckpointEvery: 1})
			if err != nil {
				t.Fatal(err)
			}
			same := bytes.Equal(resultBytes(t, plain), resultBytes(t, cut))
			want := known[name]
			if want == nil {
				if !same {
					t.Errorf("every-barrier cuts perturbed the result: run_cycles %d vs %d", plain.RunCycles, cut.RunCycles)
				}
				return
			}
			if same {
				t.Fatal("known-different row is now byte-identical: move it to the passing rows and close the ROADMAP item")
			}
			if plain.Checksum != cut.Checksum {
				t.Errorf("checksum %s vs %s; the known difference leaves the output alone", plain.Checksum, cut.Checksum)
			}
			if d := int64(cut.RunCycles) - int64(plain.RunCycles); d != want["run_cycles"] {
				t.Errorf("run_cycles %d vs %d: moved by %d, want %d", plain.RunCycles, cut.RunCycles, d, want["run_cycles"])
			}
			for name := range plain.Stats {
				if d := int64(cut.Stats[name]) - int64(plain.Stats[name]); d != want[name] {
					t.Errorf("%s: %d vs %d: moved by %d, want %d", name, plain.Stats[name], cut.Stats[name], d, want[name])
				}
			}
			for name := range cut.Stats {
				if _, ok := plain.Stats[name]; !ok {
					t.Errorf("%s: only the cut run has it", name)
				}
			}
		})
	}
}
