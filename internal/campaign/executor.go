package campaign

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"smappic/internal/ckpt"
)

// ExecPolicy is the execution policy one job runs under: how long it may
// take, how many extra attempts a stall or panic earns, and how often it
// checkpoints. Policy never changes what a job computes — only how its
// result is won — so it travels outside Params and outside the cache key.
type ExecPolicy struct {
	TimeoutSec      float64 `json:"timeout_sec,omitempty"`
	Retries         int     `json:"retries,omitempty"`
	CheckpointEvery uint64  `json:"checkpoint_every,omitempty"`
}

// Policy extracts the execution policy from a spec.
func (s Spec) Policy() ExecPolicy {
	return ExecPolicy{
		TimeoutSec:      s.TimeoutSec,
		Retries:         s.Retries,
		CheckpointEvery: s.CheckpointEvery,
	}
}

// ckptPathIn is where a job's in-flight periodic checkpoint lives. It is
// keyed by the job's full identity, written during execution, and deleted on
// success or on a stall/panic — so its existence means "this exact job was
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

// Executor runs single jobs under an ExecPolicy: per-attempt timeouts,
// stall/panic retries, and periodic checkpointing with crash resume. It is
// the bottom layer of the campaign engine — the in-process Runner drives it
// from a goroutine pool, and a fleet worker process drives it from a network
// lease — so a job's outcome is byte-identical wherever it executes.
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

	// execOpts is the test seam for the checkpoint/retry machinery: like
	// Exec, but it receives the resolved ExecuteOpts of each attempt, and —
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

// RunJob executes one job under pol. Stalls and recovered panics are
// retryable; a corrupt or version-skewed resume snapshot is discarded and the
// job restarts without it, burning no retry attempt. A
// stalled or panicked attempt's periodic checkpoint is deleted before the
// next attempt (and on terminal stall/panic failure): resuming the pre-stall
// state would deterministically stall again, so that snapshot is poison, not
// progress.
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
	e.emit(Event{Type: EventStarted, Index: job.Index, Label: label, Total: total, Attempt: 1})
	var lastErr error
	for attempt := 1; attempt <= pol.Retries+1; {
		jctx := ctx
		cancel := context.CancelFunc(func() {})
		if pol.TimeoutSec > 0 {
			jctx, cancel = context.WithTimeout(ctx, time.Duration(pol.TimeoutSec*float64(time.Second)))
		}
		result, err := exec(jctx, job.Params)
		cancel()
		if err == nil {
			result.Attempts = attempt
			if ckptFile != "" {
				os.Remove(ckptFile)
			}
			e.emit(Event{Type: EventDone, Index: job.Index, Label: label, Total: total,
				Attempt: attempt, Cycles: result.Cycles})
			return JobOutcome{Job: job, Status: StatusRun, Result: result}
		}
		lastErr = err
		if opts.ResumeFrom != "" && ckpt.IsSnapshotError(err) {
			// The resume snapshot is corrupt, truncated, or from another
			// format version — a bad file, not a bad job. Discard it and
			// restart cold; this costs no retry attempt.
			os.Remove(ckptFile)
			opts.ResumeFrom = ""
			e.logf("job %d %s: discarding unusable checkpoint: %v", job.Index, label, err)
			continue
		}
		if (IsStall(err) || IsPanic(err)) && ckptFile != "" {
			// The stalled/panicked attempt left its periodic checkpoint on
			// disk, and that snapshot deterministically reproduces the
			// stall. Keeping it is worse than useless: if the campaign
			// process dies before a retry overwrites it, the resumed
			// campaign warm-resumes into the same stall and burns its whole
			// retry budget. Delete it now, before any retry, so both the
			// retry and any future resume of this job start cold.
			if rmErr := os.Remove(ckptFile); rmErr != nil && !os.IsNotExist(rmErr) {
				e.logf("job %d %s: removing stalled attempt's checkpoint: %v", job.Index, label, rmErr)
			}
			opts.ResumeFrom = ""
		}
		// Retry watchdog stalls and recovered panics: the failure modes
		// where another attempt is meaningful policy (and what the retry
		// budget exists for). Cancellations and timeouts burn no further
		// attempts.
		if (!IsStall(err) && !IsPanic(err)) || ctx.Err() != nil {
			break
		}
		if attempt <= pol.Retries {
			typ := EventStallRetry
			if IsPanic(err) {
				typ = EventPanicRetry
			}
			e.emit(Event{Type: typ, Index: job.Index, Label: label, Total: total,
				Attempt: attempt, Err: err.Error()})
		}
		attempt++
	}
	if ctx.Err() != nil && !IsStall(lastErr) && !IsPanic(lastErr) {
		// The campaign was cancelled out from under the job; it never
		// completed, so it stays resumable rather than failed. Any periodic
		// checkpoint it wrote stays on disk for the resumed campaign.
		e.emit(Event{Type: EventSkipped, Index: job.Index, Label: label, Total: total, Err: lastErr.Error()})
		return JobOutcome{Job: job, Status: StatusSkipped, Err: lastErr.Error()}
	}
	e.emit(Event{Type: EventFailed, Index: job.Index, Label: label, Total: total, Err: fmt.Sprintf("%v", lastErr)})
	return JobOutcome{Job: job, Status: StatusFailed, Err: fmt.Sprintf("%v", lastErr)}
}
