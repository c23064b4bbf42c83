package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testSpec is a small grid used by the runner tests (4 points).
func testSpec() Spec {
	return Spec{
		Name:      "test",
		Shapes:    []string{"1x1x2"},
		Workloads: []string{WorkloadIS},
		Seeds:     []uint64{1, 2, 3, 4},
		Keys:      1 << 8,
	}
}

// fakeResult builds a deterministic Result for an executor stub.
func fakeResult(p Params) *Result {
	return &Result{
		Label:    p.Label(),
		Key:      p.Key(),
		Params:   p,
		Cycles:   1000 + p.Seed,
		Attempts: 1,
		Stats:    map[string]uint64{"fake.cycles": 1000 + p.Seed},
	}
}

func TestSpecExpansionGridAndOrder(t *testing.T) {
	s := Spec{
		Name:      "grid",
		Shapes:    []string{"1x1x2", "2x1x2"},
		Workloads: []string{WorkloadIS},
		NUMA:      []bool{true, false},
		Seeds:     []uint64{1, 2, 3},
		Keys:      1 << 8,
	}
	jobs, err := s.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2*2*3 {
		t.Fatalf("%d jobs, want 12", len(jobs))
	}
	keys := map[string]bool{}
	for i, j := range jobs {
		if j.Index != i {
			t.Fatalf("job %d has index %d", i, j.Index)
		}
		if keys[j.Params.Key()] {
			t.Fatalf("duplicate cache key at job %d (%s)", i, j.Params.Label())
		}
		keys[j.Params.Key()] = true
	}
	// Seed is the innermost dimension: the first points differ only by seed.
	if jobs[0].Params.Seed != 1 || jobs[1].Params.Seed != 2 || jobs[2].Params.Seed != 3 {
		t.Fatalf("seed not innermost: %d %d %d", jobs[0].Params.Seed, jobs[1].Params.Seed, jobs[2].Params.Seed)
	}
	if jobs[0].Params.Shape != jobs[5].Params.Shape || jobs[0].Params.Shape == jobs[6].Params.Shape {
		t.Fatal("shape should change every 6 jobs (numa x seeds)")
	}
	// Expansion is deterministic.
	again, _ := s.Jobs()
	for i := range jobs {
		if jobs[i].Params != again[i].Params {
			t.Fatalf("expansion not deterministic at job %d", i)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	cases := []Spec{
		{Shapes: []string{"1x1x2"}, Workloads: []string{WorkloadIS}},          // no name
		{Name: "x", Workloads: []string{WorkloadIS}},                          // no shapes
		{Name: "x", Shapes: []string{"1x1x2"}, Workloads: []string{"bogus"}},  // unknown workload
		{Name: "x", Shapes: []string{"1x1x2"}, Workloads: []string{"probe"}},  // probe needs 2 nodes
		{Name: "x", Shapes: []string{"zzz"}, Workloads: []string{WorkloadIS}}, // bad shape
		{Name: "x", Shapes: []string{"1x1x2"}, Workloads: []string{WorkloadIS}, Homing: []string{"bogus"}},
		{Name: "x", Shapes: []string{"1x1x2"}, Workloads: []string{WorkloadIS}, ActiveNodes: []int{5}},
		{Name: "x", Shapes: []string{"1x1x2"}, Workloads: []string{WorkloadIS}, Faults: []string{"pcie.drop:q=1"}},
		{Name: "x", Shapes: []string{"1x1x2"}, Workloads: []string{WorkloadIS}, TimeoutSec: -1},   // negative timeout
		{Name: "x", Shapes: []string{"1x1x2"}, Workloads: []string{WorkloadIS}, TimeoutSec: 1e10}, // overflows a Duration
		{Name: "x", Shapes: []string{"1x5x2"}, Workloads: []string{WorkloadIS}},                   // F1 has 4 DRAM channels
		{Name: "x", Shapes: []string{"9x1x2"}, Workloads: []string{WorkloadIS}},                   // 8 FPGAs at most
		{Name: "x", Shapes: []string{"1x1x13"}, Workloads: []string{WorkloadIS}},                  // 12 tiles at most
		{Name: "x", Shapes: []string{"1x1x2"}, Workloads: []string{WorkloadIS}, Threads: []int{-3}},
		{Name: "x", Shapes: []string{"1x1x2"}, Workloads: []string{WorkloadIS}, Credits: []int{-5}},
		{Name: "x", Shapes: []string{"1x1x2"}, Workloads: []string{WorkloadIS}, ActiveNodes: []int{-1}},
	}
	for i, s := range cases {
		if _, err := s.Jobs(); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
}

// hugeSpec names 100^10 points in ten 100-entry axes — a few KB of JSON.
// The entries are zero values: sizing comes before validating any of them.
func hugeSpec() Spec {
	return Spec{
		Name:      "huge",
		Workloads: make([]string, 100), Shapes: make([]string, 100), Homing: make([]string, 100),
		NUMA: make([]bool, 100), Threads: make([]int, 100), ActiveNodes: make([]int, 100),
		Credits: make([]int, 100), ExtraLatency: make([]uint64, 100),
		Faults: make([]string, 100), Seeds: make([]uint64, 100),
	}
}

// TestSpecExpansionBounded: the grid is sized before it is built. A spec
// past MaxPoints is an error naming the count, reached in a handful of
// allocations whatever the count — none of them a Job; the limit itself
// still expands.
func TestSpecExpansionBounded(t *testing.T) {
	huge := hugeSpec()
	_, err := huge.Jobs()
	if err == nil || !strings.Contains(err.Error(), "100000000000000000000 points") {
		t.Fatalf("10^20-point spec: error %v, want one naming the count", err)
	}
	if n := testing.AllocsPerRun(20, func() { huge.Jobs() }); n > 40 {
		t.Errorf("refusing the 10^20-point spec takes %.0f allocations; the grid must not be touched", n)
	}

	edge := testSpec()
	edge.Seeds = make([]uint64, 256)
	edge.Credits = make([]int, 256)
	if jobs, err := edge.Jobs(); err != nil || len(jobs) != MaxPoints {
		t.Fatalf("spec of exactly MaxPoints: %d jobs, %v", len(jobs), err)
	}
	edge.Credits = append(edge.Credits, 0)
	if _, err := edge.Jobs(); err == nil || !strings.Contains(err.Error(), fmt.Sprint(257*256)) {
		t.Fatalf("spec of MaxPoints+256: error %v, want one naming the count", err)
	}
}

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	for _, field := range []string{`"seedz":[1]`, `"retries":1`} {
		if _, err := ParseSpec([]byte(`{"name":"x","shapes":["1x1x2"],"workloads":["is"],` + field + `}`)); err == nil {
			t.Errorf("unknown field %s accepted", field)
		}
	}
	s, err := ParseSpec([]byte(`{"name":"x","shapes":["1x1x2"],"workloads":["is"],"seeds":[1,2]}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "x" || len(s.Seeds) != 2 {
		t.Fatalf("parsed %+v", s)
	}
}

func TestCacheRoundTripAndCorruption(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := testSpec()
	jobs, _ := p.Jobs()
	r := fakeResult(jobs[0].Params)
	if _, ok := c.Get(r.Key); ok {
		t.Fatal("hit on empty cache")
	}
	if err := c.Put(r); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(r.Key)
	if !ok {
		t.Fatal("miss after Put")
	}
	if got.Cycles != r.Cycles || got.Label != r.Label || got.Stats["fake.cycles"] != r.Stats["fake.cycles"] {
		t.Fatalf("cache returned %+v, want %+v", got, r)
	}
	// A corrupted entry is a miss, not an error or a poisoned result.
	if err := os.WriteFile(filepath.Join(dir, r.Key+".json"), []byte("{garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(r.Key); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	// An entry whose body does not match its address is a miss too.
	other := fakeResult(jobs[1].Params)
	body, _ := os.ReadFile(filepath.Join(dir, func() string { c.Put(other); return other.Key }()+".json"))
	os.WriteFile(filepath.Join(dir, r.Key+".json"), body, 0o644)
	if _, ok := c.Get(r.Key); ok {
		t.Fatal("mis-addressed entry served as a hit")
	}
}

// The core caching contract: an immediate re-run of the same spec executes
// zero jobs, and the aggregate is byte-identical to the first run's.
func TestSecondRunFullyCacheServed(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	exec := func(ctx context.Context, p Params) (*Result, error) {
		calls.Add(1)
		return fakeResult(p), nil
	}
	r := &Runner{Workers: 2, Cache: cache, Exec: exec}

	first, err := r.Run(context.Background(), testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if first.Executed != 4 || first.Cached != 0 || calls.Load() != 4 {
		t.Fatalf("first run: executed %d cached %d calls %d", first.Executed, first.Cached, calls.Load())
	}

	second, err := r.Run(context.Background(), testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if second.Executed != 0 || second.Cached != 4 || calls.Load() != 4 {
		t.Fatalf("second run: executed %d cached %d calls %d", second.Executed, second.Cached, calls.Load())
	}

	j1, err := first.Aggregate().JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := second.Aggregate().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatalf("cache-served aggregate differs from fresh aggregate:\n%s\nvs\n%s", j1, j2)
	}
}

// isStall reports whether err is (or wraps) a stall.
func isStall(err error) bool {
	var s *StallError
	return errors.As(err, &s)
}

// A job is a pure function of its Params, so its failure is its answer:
// a stall, a recovered panic and any other error each execute exactly once.
func TestFailedJobRunsOnce(t *testing.T) {
	spec := testSpec()
	spec.Seeds = []uint64{1}
	for name, fail := range map[string]error{
		"stall": &StallError{Diagnosis: "WATCHDOG: drained at cycle 1 with transactions in flight"},
		"panic": &PanicError{Value: "injected", Stack: "stack"},
		"other": fmt.Errorf("build exploded"),
	} {
		var calls atomic.Int64
		exec := func(ctx context.Context, p Params) (*Result, error) {
			calls.Add(1)
			return nil, fail
		}
		res, err := (&Runner{Exec: exec}).Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 1 || calls.Load() != 1 {
			t.Errorf("%s: failed %d after %d executions, want 1 after 1", name, res.Failed, calls.Load())
		}
		if res.Jobs[0].Err != fail.Error() {
			t.Errorf("%s: failure %q, want %q", name, res.Jobs[0].Err, fail.Error())
		}
	}
}

// Cancelling a campaign mid-run leaves resumable state: completed jobs are
// cached, interrupted and undispatched jobs are skipped (not failed), and a
// re-run finishes the campaign serving the completed prefix from cache.
func TestCancellationLeavesResumableState(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	exec := func(ctx context.Context, p Params) (*Result, error) {
		n := calls.Add(1)
		if n >= 2 {
			// Simulate a job interrupted by campaign cancellation: the
			// driver observes ctx and aborts mid-simulation.
			cancel()
			return nil, fmt.Errorf("campaign: job aborted at cycle 12345: %w", ctx.Err())
		}
		return fakeResult(p), nil
	}
	r := &Runner{Workers: 1, Cache: cache, Exec: exec}
	res, err := r.Run(ctx, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != 1 || res.Failed != 0 || res.Skipped != 3 {
		t.Fatalf("after cancel: executed %d failed %d skipped %d, want 1/0/3", res.Executed, res.Failed, res.Skipped)
	}

	// Resume: same cache, working executor, fresh context.
	var resumed atomic.Int64
	r2 := &Runner{Workers: 1, Cache: cache, Exec: func(ctx context.Context, p Params) (*Result, error) {
		resumed.Add(1)
		return fakeResult(p), nil
	}}
	res2, err := r2.Run(context.Background(), testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Cached != 1 || res2.Executed != 3 || resumed.Load() != 3 {
		t.Fatalf("resume: cached %d executed %d calls %d, want 1/3/3", res2.Cached, res2.Executed, resumed.Load())
	}
}

// stallOf executes p and returns its stall diagnosis, failing the test
// unless p stalls.
func stallOf(t *testing.T, p Params) string {
	t.Helper()
	_, err := Execute(context.Background(), p)
	var s *StallError
	if !errors.As(err, &s) {
		t.Fatalf("%s: error %v, want a StallError", p.Label(), err)
	}
	return s.Diagnosis
}

// A real stall end to end: a hung PCIe endpoint under the stores workload
// drains the run wedged, Execute converts the drain's diagnosis into a
// StallError, and the runner fails the job with it. The stall is deterministic — a second
// execution wedges at the same cycle with the same diagnosis, byte for byte —
// which is why a failed job is never run again.
func TestExecuteRealWatchdogStall(t *testing.T) {
	p := Params{
		Shape:     "2x1x2",
		Workload:  WorkloadStores,
		Homing:    HomingRegion,
		Keys:      16,
		Seed:      1,
		Faults:    "pcie.ep0.link.hang:after=4",
		FaultSeed: 1,
	}
	first := stallOf(t, p)
	if !strings.HasPrefix(first, "WATCHDOG: drained at cycle ") {
		t.Fatalf("diagnosis %q is not a drain's", first)
	}
	if again := stallOf(t, p); again != first {
		t.Fatalf("the same job stalled differently twice:\n%s\n---\n%s", first, again)
	}

	// The hung IS job wedges at the same cycle every time too.
	is := Params{
		Shape: "2x1x2", Workload: WorkloadIS, NUMA: true, Homing: HomingRegion,
		Keys: 1 << 10, Seed: 1, Faults: "pcie.ep1.link.hang:after=40", FaultSeed: 1,
	}
	isFirst := stallOf(t, is)
	if !strings.HasPrefix(isFirst, "WATCHDOG: drained at cycle 24614 ") {
		t.Fatalf("hung IS job: diagnosis %q, want a stall at cycle 24614", isFirst)
	}
	if again := stallOf(t, is); again != isFirst {
		t.Fatalf("the same IS job stalled differently twice:\n%s\n---\n%s", isFirst, again)
	}

	// The probe workload drains inside MeasureLatency rather than under the
	// job's stop predicate; its drain is checked all the same.
	probe := p
	probe.Workload, probe.Keys, probe.Faults = WorkloadProbe, 0, "pcie.ep0.link.hang:after=0"
	stallOf(t, probe)

	spec := Spec{
		Name:      "stall",
		Shapes:    []string{"2x1x2"},
		Workloads: []string{WorkloadStores},
		Keys:      16,
		Faults:    []string{"pcie.ep0.link.hang:after=4"},
	}
	res, err := (&Runner{}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 {
		t.Fatalf("stalling job not failed: %+v", res.Jobs[0])
	}
	if !strings.Contains(res.Jobs[0].Err, "WATCHDOG: drained at cycle ") {
		t.Fatalf("failure lost the stall diagnosis: %q", res.Jobs[0].Err)
	}
}

// MaxCycles bounds a runaway job.
func TestExecuteMaxCycles(t *testing.T) {
	p := Params{
		Shape:     "1x1x2",
		Workload:  WorkloadIS,
		NUMA:      true,
		Homing:    HomingRegion,
		Keys:      1 << 10,
		Seed:      1,
		MaxCycles: 1000, // far too few for IS
	}
	_, err := Execute(context.Background(), p)
	if err == nil || !strings.Contains(err.Error(), "max_cycles") {
		t.Fatalf("runaway job not bounded: %v", err)
	}
	if isStall(err) {
		t.Fatal("max_cycles abort must not read as a stall")
	}
}

// Jobs cut short must not leave their kernel threads parked forever: each
// leaked goroutine pins its whole prototype, which is unbounded growth in a
// resident worker. Covers the abort (max_cycles) and stall exits, from the
// first and from a later segment of a checkpointing run; the goroutine
// count must return to its baseline.
func TestAbortedJobsLeakNoGoroutines(t *testing.T) {
	is := Params{
		Shape: "2x1x2", Workload: WorkloadIS, NUMA: true,
		Homing: HomingRegion, Keys: 1 << 9, Seed: 1,
	}
	aborted := is
	aborted.MaxCycles = 2000
	stalled := Params{
		Shape: "2x1x2", Workload: WorkloadStores, Homing: HomingRegion,
		Keys: 16, Seed: 1, Faults: "pcie.ep0.link.hang:after=4", FaultSeed: 1,
	}
	ckptPath := filepath.Join(t.TempDir(), "job.ckpt")

	base := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		if _, err := Execute(context.Background(), aborted); err == nil {
			t.Fatal("max_cycles did not abort the job")
		}
		if _, err := Execute(context.Background(), stalled); !isStall(err) {
			t.Fatalf("hung link did not stall the job: %v", err)
		}
	}
	// An abort in a later segment of a checkpointing run, whose prototype
	// ExecuteWithOpts itself never sees.
	late := is
	late.MaxCycles = 20_000
	if _, err := ExecuteWithOpts(context.Background(), late,
		ExecuteOpts{CheckpointPath: ckptPath, CheckpointEvery: 1}); err == nil {
		t.Fatal("max_cycles did not abort the checkpointing job")
	} else if _, serr := os.Stat(ckptPath); serr != nil {
		t.Fatalf("job aborted (%v) before its first checkpoint: %v", err, serr)
	}
	// A closed process has handed control back but may not have finished
	// exiting; give the scheduler a moment before counting.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines before, %d after: cut-short jobs leaked their processes", base, n)
	}
}

// Cancelling the context aborts a real simulation between event slices.
func TestExecuteHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := Params{
		Shape: "1x1x2", Workload: WorkloadIS, NUMA: true,
		Homing: HomingRegion, Keys: 1 << 10, Seed: 1,
	}
	_, err := Execute(ctx, p)
	if err == nil || !strings.Contains(err.Error(), "aborted") {
		t.Fatalf("cancelled job did not abort: %v", err)
	}
}

// The acceptance criterion: a >= 20-point campaign over the real simulator
// produces a byte-identical aggregate for 1 worker, 8 workers, and a fully
// cache-served re-run.
func TestWorkerCountInvariance(t *testing.T) {
	spec := Spec{
		Name:      "invariance",
		Shapes:    []string{"1x1x2", "2x1x2"},
		Workloads: []string{WorkloadIS},
		NUMA:      []bool{true, false},
		Seeds:     []uint64{1, 2, 3, 4, 5},
		Keys:      1 << 8,
	}
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) < 20 {
		t.Fatalf("spec expands to %d points, need >= 20", len(jobs))
	}

	serial, err := (&Runner{Workers: 1}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := serial.Aggregate().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if serial.Executed != len(jobs) || serial.Failed != 0 {
		t.Fatalf("serial run: executed %d failed %d", serial.Executed, serial.Failed)
	}

	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := (&Runner{Workers: 8, Cache: cache}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := parallel.Aggregate().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("8-worker aggregate differs from serial:\n%s\nvs\n%s", want, got)
	}

	rerun, err := (&Runner{Workers: 8, Cache: cache}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if rerun.Executed != 0 || rerun.Cached != len(jobs) {
		t.Fatalf("re-run not cache-served: executed %d cached %d", rerun.Executed, rerun.Cached)
	}
	cached, err := rerun.Aggregate().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, cached) {
		t.Fatal("cache-served aggregate differs from fresh serial aggregate")
	}

	// Sanity on the content itself: every job sorted its output, and the
	// cost estimate prices the 2-FPGA shape on the 2-FPGA instance.
	agg := rerun.Aggregate()
	for _, r := range agg.Results {
		if !r.Sorted {
			t.Fatalf("%s: IS output not sorted", r.Label)
		}
		if r.Checksum == "" || r.Cycles == 0 {
			t.Fatalf("%s: empty measurement", r.Label)
		}
	}
	if agg.Cost == nil || agg.Cost.Instance != "f1.4xl" {
		t.Fatalf("cost estimate %+v, want f1.4xl", agg.Cost)
	}
	if agg.Cost.CloudUSD != agg.Cost.FPGAHours*1.65 {
		t.Fatalf("cloud bill %.6f != %.6f FPGA-hours at $1.65", agg.Cost.CloudUSD, agg.Cost.FPGAHours)
	}
}

// Seeds must actually reach the simulation: different seeds, different
// answers; same seed, byte-identical result.
func TestSeedsChangeResults(t *testing.T) {
	base := Params{
		Shape: "1x1x2", Workload: WorkloadIS, NUMA: true,
		Homing: HomingRegion, Keys: 1 << 8, Seed: 1,
	}
	r1, err := Execute(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	r1again, err := Execute(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r1again.Cycles || r1.Checksum != r1again.Checksum {
		t.Fatal("same params, different result")
	}
	other := base
	other.Seed = 2
	r2, err := Execute(context.Background(), other)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Checksum == r1.Checksum {
		t.Fatal("seed did not reach the workload input")
	}
}

func TestAggregateCSV(t *testing.T) {
	exec := func(ctx context.Context, p Params) (*Result, error) { return fakeResult(p), nil }
	res, err := (&Runner{Exec: exec}).Run(context.Background(), testSpec())
	if err != nil {
		t.Fatal(err)
	}
	csv := res.Aggregate().CSV()
	lines := strings.Split(strings.TrimSuffix(csv, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("%d CSV lines, want header + 4 rows", len(lines))
	}
	if !strings.HasPrefix(lines[0], "index,label,workload,shape") {
		t.Fatalf("bad header %q", lines[0])
	}
	sum := res.Summary()
	if !strings.Contains(sum, "executed 4, cached 0, failed 0, skipped 0") {
		t.Fatalf("summary missing counts:\n%s", sum)
	}
}

// TestRunnerEmitsLifecycleEvents pins the OnEvent hook: every job produces a
// coherent event sequence (started, then done or failed), cache hits are reported without execution, and Total is carried
// on every event.
func TestRunnerEmitsLifecycleEvents(t *testing.T) {
	var mu sync.Mutex
	events := map[int][]Event{}
	record := func(ev Event) {
		mu.Lock()
		events[ev.Index] = append(events[ev.Index], ev)
		mu.Unlock()
	}

	// Seed 3 fails hard; the rest are clean.
	exec := func(ctx context.Context, p Params) (*Result, error) {
		if p.Seed == 3 {
			return nil, fmt.Errorf("build exploded")
		}
		return fakeResult(p), nil
	}
	spec := testSpec()
	r := &Runner{Workers: 2, Exec: exec, OnEvent: record}
	res, err := r.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != 3 || res.Failed != 1 {
		t.Fatalf("executed %d failed %d, want 3/1", res.Executed, res.Failed)
	}

	types := func(idx int) []EventType {
		var ts []EventType
		for _, ev := range events[idx] {
			ts = append(ts, ev.Type)
			if ev.Total != 4 {
				t.Errorf("job %d event %s has Total %d, want 4", idx, ev.Type, ev.Total)
			}
			if ev.Label == "" {
				t.Errorf("job %d event %s has no label", idx, ev.Type)
			}
		}
		return ts
	}
	want := map[int][]EventType{
		0: {EventStarted, EventDone},   // seed 1
		1: {EventStarted, EventDone},   // seed 2
		2: {EventStarted, EventFailed}, // seed 3
		3: {EventStarted, EventDone},   // seed 4
	}
	for idx, w := range want {
		got := types(idx)
		if fmt.Sprint(got) != fmt.Sprint(w) {
			t.Errorf("job %d events = %v, want %v", idx, got, w)
		}
	}
	if doneEv := events[1][len(events[1])-1]; doneEv.Cycles == 0 {
		t.Errorf("done event = %+v, want its cycles", doneEv)
	}
	if events[2][1].Err == "" {
		t.Error("failed event lost its error")
	}

	// Second run over a cache: every job is a cache_hit with cycles, and the
	// failed one re-runs.
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	r2 := &Runner{Workers: 2, Exec: exec, Cache: cache, OnEvent: record}
	if _, err := r2.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	events = map[int][]Event{}
	mu.Unlock()
	if _, err := r2.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < 4; idx++ {
		got := types(idx)
		w := []EventType{EventCacheHit}
		if idx == 2 { // the hard failure is never cached
			w = []EventType{EventStarted, EventFailed}
		}
		if fmt.Sprint(got) != fmt.Sprint(w) {
			t.Errorf("cached run: job %d events = %v, want %v", idx, got, w)
		}
	}
}

// TestRunnerEmitsSkippedOnCancellation checks that jobs cancelled before
// dispatch surface as skipped events.
func TestRunnerEmitsSkippedOnCancellation(t *testing.T) {
	var mu sync.Mutex
	var got []Event
	ctx, cancel := context.WithCancel(context.Background())
	exec := func(c context.Context, p Params) (*Result, error) {
		cancel() // first job cancels the campaign
		return fakeResult(p), nil
	}
	r := &Runner{Workers: 1, Exec: exec, OnEvent: func(ev Event) {
		mu.Lock()
		got = append(got, ev)
		mu.Unlock()
	}}
	res, err := r.Run(ctx, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped == 0 {
		t.Fatal("cancellation produced no skipped jobs")
	}
	skipped := 0
	for _, ev := range got {
		if ev.Type == EventSkipped {
			skipped++
			if ev.Err == "" {
				t.Error("skipped event lost the cancellation cause")
			}
		}
	}
	if skipped != res.Skipped {
		t.Fatalf("%d skipped events for %d skipped jobs", skipped, res.Skipped)
	}
}
