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

// resultBytes renders a Result for byte comparison.
func resultBytes(t *testing.T, r *Result) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestExecuteRecoversPanic gives an IS job fewer keys than threads, which
// the workload refuses with a panic inside the model, and requires
// ExecuteWithOpts to convert that into a typed PanicError — the job's
// failure — instead of crashing the pool. A wedged IS job (a hang fault) is
// no panic: its drain fails it as a StallError with a diagnosis.
func TestExecuteRecoversPanic(t *testing.T) {
	p := isParams()
	p.Keys = 1 // two harts, so two threads
	_, err := Execute(context.Background(), p)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T (%v), want PanicError", err, err)
	}
	if pe.Stack == "" {
		t.Error("PanicError carries no stack trace")
	}

	hung := isParams()
	hung.Shape = "2x1x2" // multi-node, so the hang wedges real PCIe traffic
	hung.Faults = "pcie.*.hang:after=10"
	_, err = Execute(context.Background(), hung)
	var se *StallError
	if !errors.As(err, &se) || !strings.HasPrefix(se.Diagnosis, "WATCHDOG: drained at cycle ") {
		t.Fatalf("hung IS job: error %T (%v), want a StallError with a drain diagnosis", err, err)
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
// up on success. A corrupt, truncated or version-1 checkpoint must be
// discarded — cold restart — without failing the job.
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
	// Fabricate the interruption: run once with checkpointing to get a real
	// mid-run snapshot, which the subtests plant where the runner looks.
	mid := filepath.Join(t.TempDir(), "mid.ckpt")
	if _, err := ExecuteWithOpts(ctx, p, ExecuteOpts{CheckpointPath: mid, CheckpointEvery: 10_000}); err != nil {
		t.Fatal(err)
	}
	valid, err := os.ReadFile(mid)
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
		ckptFile := filepath.Join(dir, p.Key()+".ckpt")
		if err := os.WriteFile(ckptFile, valid, 0o644); err != nil {
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

	// An unusable resume file — damaged, cut short, or sealed under format
	// version 1 — is discarded for a cold restart.
	for name, file := range map[string][]byte{
		"corrupt":   []byte("not a snapshot"),
		"truncated": valid[:len(valid)/2],
		"version1":  version1State,
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
			if !bytes.Equal(resultBytes(t, res.Jobs[0].Result), resultBytes(t, cold)) {
				t.Error("job result after discarded checkpoint diverges from cold run")
			}
		})
	}
}

// version1State is a format-version-1 state snapshot file: the envelope this
// build still writes, around the JSON payload it no longer reads.
var version1State = ckpttest.Seal(1, ckpt.KindState, []byte(`{"kind":2,"config_hash":"x","now":1,"state":{}}`))

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
