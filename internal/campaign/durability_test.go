package campaign

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestOpenCacheSweepsStaleOrphans: a writer SIGKILLed between CreateTemp and
// rename leaks its temp file; OpenCache must collect stale ones while
// leaving fresh temps (a live writer in another process) alone.
func TestOpenCacheSweepsStaleOrphans(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "deadbeef.tmp-123456")
	fresh := filepath.Join(dir, "cafef00d.tmp-654321")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * orphanAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCache(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale orphan temp file not collected")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Error("fresh temp file (possibly a live writer's) was collected")
	}
}

// TestCacheEmptyAndTruncatedEntriesAreMisses: a zero-length or truncated
// entry (the crash shapes the fsync-before-rename discipline prevents going
// forward, but old caches may carry) must read as a miss and be recoverable
// by a fresh Put.
func TestCacheEmptyAndTruncatedEntriesAreMisses(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	jobs, _ := testSpec().Jobs()
	r := fakeResult(jobs[0].Params)
	if err := c.Put(r); err != nil {
		t.Fatal(err)
	}
	entry := filepath.Join(dir, r.Key+".json")

	// Zero-length entry.
	if err := os.Truncate(entry, 0); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(r.Key); ok {
		t.Fatal("zero-length entry served as a hit")
	}

	// Truncated entry: a valid JSON prefix cut mid-document.
	if err := c.Put(r); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(entry)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(entry, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(r.Key); ok {
		t.Fatal("truncated entry served as a hit")
	}

	// A fresh Put recovers the slot, and leaves no temp files behind.
	if err := c.Put(r); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Get(r.Key); !ok || got.Cycles != r.Cycles {
		t.Fatal("re-Put over a truncated entry did not recover it")
	}
	temps, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*"))
	if len(temps) != 0 {
		t.Fatalf("Put left temp files behind: %v", temps)
	}
}

// TestStatExistsDistinguishesErrors: absence is (false, nil); a stat that
// fails for any other reason (here ENOTDIR: a path component is a file)
// must surface its error instead of silently reading as absence.
func TestStatExistsDistinguishesErrors(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "plain")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if ok, err := statExists(file); !ok || err != nil {
		t.Fatalf("existing file: ok=%v err=%v", ok, err)
	}
	if ok, err := statExists(filepath.Join(dir, "missing")); ok || err != nil {
		t.Fatalf("missing file: ok=%v err=%v", ok, err)
	}
	ok, err := statExists(filepath.Join(file, "child"))
	if ok || err == nil {
		t.Fatalf("stat through a file: ok=%v err=%v, want an error", ok, err)
	}
	if os.IsNotExist(err) {
		t.Fatal("ENOTDIR misclassified as not-exists")
	}

	// The classic shape of the bug — an unreadable parent directory — needs
	// non-root credentials to manifest (root bypasses permission checks).
	if os.Geteuid() != 0 {
		locked := filepath.Join(dir, "locked")
		if err := os.Mkdir(locked, 0o755); err != nil {
			t.Fatal(err)
		}
		inner := filepath.Join(locked, "snap.ckpt")
		if err := os.WriteFile(inner, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chmod(locked, 0o000); err != nil {
			t.Fatal(err)
		}
		defer os.Chmod(locked, 0o755)
		ok, err := statExists(inner)
		if ok || err == nil || os.IsNotExist(err) {
			t.Fatalf("permission error: ok=%v err=%v, want a non-IsNotExist error", ok, err)
		}
	}
}

// TestExecutorSurfacesStatErrors: when the checkpoint stat fails for a reason
// other than absence, the job still runs (degraded to a cold start) but the
// failure is logged — never silently swallowed.
func TestExecutorSurfacesStatErrors(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "plain")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var logged []string
	ex := &Executor{
		// A directory path routed through a plain file: every stat under it
		// fails with ENOTDIR, the deterministic stand-in for a permission
		// error on the snapshot.
		Dir: filepath.Join(file, "cachedir"),
		Log: func(format string, args ...any) {
			mu.Lock()
			logged = append(logged, strings.TrimSpace(format))
			mu.Unlock()
		},
		execOpts: func(ctx context.Context, p Params, opts ExecuteOpts) (*Result, error) {
			if opts.ResumeFrom != "" {
				t.Errorf("stat failure must degrade to a cold run, got opts %+v", opts)
			}
			return fakeResult(p), nil
		},
	}
	spec := testSpec()
	spec.Seeds = []uint64{1}
	spec.CheckpointEvery = 10_000
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	out := ex.RunJob(context.Background(), jobs[0], spec.Policy(), 1)
	if out.Status != StatusRun {
		t.Fatalf("job did not run: %+v", out)
	}
	sawCkpt := false
	for _, line := range logged {
		if strings.Contains(line, "checkpoint unreadable") {
			sawCkpt = true
		}
	}
	if !sawCkpt {
		t.Fatalf("stat failure not surfaced through Log: %q", logged)
	}
}

// TestStalledJobLeavesNoCheckpoint: a checkpointing IS job that wedges
// fails on its only execution, and the periodic checkpoint it wrote before
// the stall is gone — resuming it would only wedge again, and a resumed
// campaign must not warm-resume a failure.
func TestStalledJobLeavesNoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		Name:            "stall",
		Shapes:          []string{"2x1x2"},
		Workloads:       []string{WorkloadIS},
		Keys:            1 << 10,
		Faults:          []string{"pcie.ep1.link.hang:after=40"},
		CheckpointEvery: 1_000,
	}
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	ckptFile := filepath.Join(dir, jobs[0].Params.Key()+".ckpt")

	executions, wrote := 0, false
	r := &Runner{Cache: cache}
	r.execOpts = func(ctx context.Context, p Params, opts ExecuteOpts) (*Result, error) {
		executions++
		res, err := ExecuteWithOpts(ctx, p, opts)
		wrote, _ = statExists(ckptFile)
		return res, err
	}
	res, err := r.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 || executions != 1 {
		t.Fatalf("failed %d after %d executions, want 1 after 1", res.Failed, executions)
	}
	if !strings.Contains(res.Jobs[0].Err, "stalled: WATCHDOG: drained at cycle ") {
		t.Fatalf("failure %q is not a stall's", res.Jobs[0].Err)
	}
	if !wrote {
		t.Fatal("the job stalled before its first checkpoint; the test checks nothing")
	}
	if ok, _ := statExists(ckptFile); ok {
		t.Fatal("the stalled job's checkpoint is still on disk")
	}
}
