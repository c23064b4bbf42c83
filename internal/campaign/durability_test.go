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

// TestStallRetryDeletesCheckpointBeforeRetry: attempt 1 writes its periodic
// checkpoint and stalls; the retry must start with the checkpoint deleted
// and no ResumeFrom — resuming the pre-stall state would deterministically
// stall again.
func TestStallRetryDeletesCheckpointBeforeRetry(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec()
	spec.Seeds = []uint64{1}
	spec.Retries = 1
	spec.CheckpointEvery = 10_000
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	ckptFile := filepath.Join(dir, jobs[0].Params.Key()+".ckpt")

	var mu sync.Mutex
	attempts := 0
	retrySawCkpt, retryResume := false, "unset"
	r := &Runner{Cache: cache}
	r.execOpts = func(ctx context.Context, p Params, opts ExecuteOpts) (*Result, error) {
		mu.Lock()
		defer mu.Unlock()
		attempts++
		if attempts == 1 {
			// The attempt checkpoints mid-run, then trips the watchdog.
			if err := os.WriteFile(opts.CheckpointPath, []byte("pre-stall state"), 0o644); err != nil {
				t.Error(err)
			}
			return nil, &StallError{Diagnosis: "WATCHDOG: injected pre-retry"}
		}
		retrySawCkpt, _ = statExists(ckptFile)
		retryResume = opts.ResumeFrom
		return fakeResult(p), nil
	}
	res, err := r.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != 1 || res.Failed != 0 || attempts != 2 {
		t.Fatalf("executed %d failed %d attempts %d, want 1/0/2", res.Executed, res.Failed, attempts)
	}
	if retrySawCkpt {
		t.Error("stalled attempt's checkpoint still on disk when the retry started")
	}
	if retryResume != "" {
		t.Errorf("retry resumed from %q, want a cold start", retryResume)
	}
}

// TestInterruptedStallRetryStartsCold is the crash shape from the field: a
// job stalls through its whole retry budget (each attempt leaving a periodic
// checkpoint), the campaign dies, and the resumed campaign must start the
// job cold — not ResumeFrom the pre-stall snapshot and deterministically
// burn the budget again.
func TestInterruptedStallRetryStartsCold(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec()
	spec.Seeds = []uint64{1}
	spec.Retries = 1
	spec.CheckpointEvery = 10_000
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	ckptFile := filepath.Join(dir, jobs[0].Params.Key()+".ckpt")

	// First campaign: every attempt checkpoints then stalls; the job fails
	// terminally (standing in for "the process died mid-retry" — either way
	// the checkpoint has been written and no retry has overwritten it).
	cache1, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	r1 := &Runner{Cache: cache1}
	var mu sync.Mutex
	r1.execOpts = func(ctx context.Context, p Params, opts ExecuteOpts) (*Result, error) {
		mu.Lock()
		defer mu.Unlock()
		if err := os.WriteFile(opts.CheckpointPath, []byte("pre-stall state"), 0o644); err != nil {
			t.Error(err)
		}
		return nil, &StallError{Diagnosis: "WATCHDOG: injected stall"}
	}
	res, err := r1.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 {
		t.Fatalf("failed %d, want 1", res.Failed)
	}
	if ok, _ := statExists(ckptFile); ok {
		t.Fatal("stalling campaign left its poison checkpoint on disk")
	}

	// Resumed campaign: the job must start cold — no resumed event, no
	// ResumeFrom — and succeed on its first attempt.
	cache2, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	var events []EventType
	r2 := &Runner{Cache: cache2, OnEvent: func(ev Event) {
		mu.Lock()
		events = append(events, ev.Type)
		mu.Unlock()
	}}
	r2.execOpts = func(ctx context.Context, p Params, opts ExecuteOpts) (*Result, error) {
		if opts.ResumeFrom != "" {
			t.Errorf("resumed campaign warm-resumed the stalled state from %q", opts.ResumeFrom)
		}
		return fakeResult(p), nil
	}
	res2, err := r2.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Executed != 1 || res2.Failed != 0 {
		t.Fatalf("resumed campaign: executed %d failed %d, want 1/0", res2.Executed, res2.Failed)
	}
	for _, ev := range events {
		if ev == EventResumed {
			t.Fatal("resumed campaign emitted a resumed event for a job that must start cold")
		}
	}
	if res2.Jobs[0].Result.Attempts != 1 {
		t.Fatalf("cold restart took %d attempts, want 1", res2.Jobs[0].Result.Attempts)
	}
}
