package campaign

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"time"

	"smappic/internal/ckpt"
)

// ExecPolicy is the execution policy one job runs under: how long it may
// take and how often it checkpoints. Policy never changes what a job
// computes — only how its result is won — so it travels outside Params and
// outside the cache key.
type ExecPolicy struct {
	TimeoutSec      float64 `json:"timeout_sec,omitempty"`
	CheckpointEvery uint64  `json:"checkpoint_every,omitempty"`
}

// Policy extracts the execution policy from a spec.
func (s Spec) Policy() ExecPolicy {
	return ExecPolicy{TimeoutSec: s.TimeoutSec, CheckpointEvery: s.CheckpointEvery}
}

// ckptPathIn is where a job's in-flight periodic checkpoint lives. It is
// keyed by the job's full identity, written during execution, and deleted
// once the job has an outcome — so its existence means "this exact job was
// interrupted mid-run and its state is worth resuming".
func ckptPathIn(dir string, p Params) string {
	return filepath.Join(dir, p.Key()+".ckpt")
}

// statExists reports whether path names an existing file, distinguishing
// genuine absence from stat failures (permission errors, a file where a
// directory was expected, I/O errors). Callers that used to collapse both
// into "not exists" silently downgraded resumable runs to cold ones.
func statExists(path string) (bool, error) {
	_, err := os.Stat(path)
	switch {
	case err == nil:
		return true, nil
	case os.IsNotExist(err):
		return false, nil
	default:
		return false, err
	}
}

// Executor runs single jobs under an ExecPolicy: a per-job timeout and
// periodic checkpointing with crash resume. It is the bottom layer of the
// campaign engine — the in-process Runner drives it from a goroutine pool,
// and a fleet worker process drives it from a network lease — so a job's
// outcome is byte-identical wherever it executes.
type Executor struct {
	// Dir is the checkpoint directory (normally the result cache's
	// directory, shared between workers so a re-leased job can resume its
	// predecessor's checkpoint). Empty disables checkpointing.
	Dir string
	// Exec substitutes the simulator; nil means ExecuteWithOpts. Tests and
	// fleet protocol tests put instrumented executors here. When set,
	// checkpoint setup is skipped (the stub has no opts).
	Exec func(ctx context.Context, p Params) (*Result, error)
	// Log, when non-nil, receives diagnostics (discarded checkpoints,
	// degraded stat failures).
	Log func(format string, args ...any)
	// OnEvent, when non-nil, receives structured lifecycle events. Called
	// from the executing goroutine; must be safe for concurrent use when
	// the caller runs jobs concurrently.
	OnEvent func(Event)

	// execOpts is the test seam for the checkpoint machinery: like Exec,
	// but it receives the resolved ExecuteOpts of each execution, and —
	// unlike Exec — checkpoint bookkeeping runs exactly as for the real
	// simulator.
	execOpts func(ctx context.Context, p Params, opts ExecuteOpts) (*Result, error)
}

// emit delivers an event to the OnEvent hook, if any.
func (e *Executor) emit(ev Event) {
	if e.OnEvent != nil {
		e.OnEvent(ev)
	}
}

// logf logs through the Log hook, if any.
func (e *Executor) logf(format string, args ...any) {
	if e.Log != nil {
		e.Log(format, args...)
	}
}

// RunJob executes one job under pol. A job is a pure function of its
// Params, so a stall, a recovered panic or a timeout is its outcome: running
// it again would only repeat it. The one second execution is a cold restart
// when the resume snapshot is unusable (corrupt, truncated or from another
// format version) — a bad file, not a bad job. The job's checkpoint is
// removed once it has an outcome; only a skipped (cancelled) job keeps it
// for the resumed campaign.
func (e *Executor) RunJob(ctx context.Context, job Job, pol ExecPolicy, total int) JobOutcome {
	label := job.Params.Label()
	if ctx.Err() != nil {
		e.emit(Event{Type: EventSkipped, Index: job.Index, Label: label, Total: total, Err: ctx.Err().Error()})
		return JobOutcome{Job: job, Status: StatusSkipped, Err: ctx.Err().Error()}
	}
	exec := e.Exec
	var opts ExecuteOpts
	ckptFile := ""
	if exec == nil {
		if e.Dir != "" && pol.CheckpointEvery > 0 && job.Params.Workload == WorkloadIS {
			ckptFile = ckptPathIn(e.Dir, job.Params)
			opts.CheckpointPath = ckptFile
			opts.CheckpointEvery = pol.CheckpointEvery
			ok, serr := statExists(ckptFile)
			if serr != nil {
				e.logf("job %d %s: checkpoint unreadable (starting cold): %v", job.Index, label, serr)
			}
			if ok {
				opts.ResumeFrom = ckptFile
				e.emit(Event{Type: EventResumed, Index: job.Index, Label: label, Total: total})
			}
		}
		if e.execOpts != nil {
			exec = func(c context.Context, p Params) (*Result, error) { return e.execOpts(c, p, opts) }
		} else {
			exec = func(c context.Context, p Params) (*Result, error) { return ExecuteWithOpts(c, p, opts) }
		}
	}
	e.emit(Event{Type: EventStarted, Index: job.Index, Label: label, Total: total})
	jctx, cancel := ctx, context.CancelFunc(func() {})
	if pol.TimeoutSec > 0 {
		jctx, cancel = context.WithTimeout(ctx, time.Duration(pol.TimeoutSec*float64(time.Second)))
	}
	defer cancel()
	result, err := exec(jctx, job.Params)
	if err != nil && opts.ResumeFrom != "" && ckpt.IsSnapshotError(err) {
		e.logf("job %d %s: discarding unusable checkpoint: %v", job.Index, label, err)
		os.Remove(ckptFile)
		opts.ResumeFrom = ""
		result, err = exec(jctx, job.Params)
	}
	var stall *StallError
	var crash *PanicError
	if err != nil && ctx.Err() != nil && !errors.As(err, &stall) && !errors.As(err, &crash) {
		// The campaign was cancelled out from under the job; it never
		// completed, so it stays resumable rather than failed, and its
		// periodic checkpoint stays on disk for the resumed campaign.
		e.emit(Event{Type: EventSkipped, Index: job.Index, Label: label, Total: total, Err: err.Error()})
		return JobOutcome{Job: job, Status: StatusSkipped, Err: err.Error()}
	}
	if ckptFile != "" {
		if rmErr := os.Remove(ckptFile); rmErr != nil && !os.IsNotExist(rmErr) {
			e.logf("job %d %s: removing checkpoint: %v", job.Index, label, rmErr)
		}
	}
	if err != nil {
		e.emit(Event{Type: EventFailed, Index: job.Index, Label: label, Total: total, Err: err.Error()})
		return JobOutcome{Job: job, Status: StatusFailed, Err: err.Error()}
	}
	e.emit(Event{Type: EventDone, Index: job.Index, Label: label, Total: total, Cycles: result.Cycles})
	return JobOutcome{Job: job, Status: StatusRun, Result: result}
}
