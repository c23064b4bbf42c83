package campaign

import (
	"context"
	"sync"
	"time"
)

// Status classifies how a job's slot in the campaign was filled.
type Status string

const (
	// StatusRun: executed in this campaign run.
	StatusRun Status = "run"
	// StatusCached: served from the result cache without executing.
	StatusCached Status = "cached"
	// StatusFailed: executed and failed (stall, panic, timeout, build
	// error).
	StatusFailed Status = "failed"
	// StatusSkipped: never executed — the campaign was cancelled before
	// the job was dispatched. Skipped jobs are what a resumed campaign
	// picks up.
	StatusSkipped Status = "skipped"
)

// EventType classifies a job lifecycle event (see Runner.OnEvent).
type EventType string

const (
	// EventStarted: the job was dispatched to a worker.
	EventStarted EventType = "started"
	// EventCacheHit: the job was served from the result cache unexecuted.
	EventCacheHit EventType = "cache_hit"
	// EventResumed: a checkpoint file from an interrupted run of this exact
	// job was found; the job restarts from that snapshot instead of cycle 0.
	EventResumed EventType = "resumed"
	// EventDone: the job completed successfully; Cycles is set.
	EventDone EventType = "done"
	// EventFailed: the job failed; Err is set.
	EventFailed EventType = "failed"
	// EventSkipped: the job was never executed (campaign cancelled).
	EventSkipped EventType = "skipped"
	// EventRequeued: fleet only — the job's lease expired (its worker died
	// or lost its heartbeat) and the job went back on the queue for another
	// worker to pick up.
	EventRequeued EventType = "requeued"
)

// Event is one structured job lifecycle notification. The zero Total means
// the expansion failed before any event was emitted (never seen by hooks).
type Event struct {
	Type   EventType `json:"type"`
	Index  int       `json:"index"`
	Label  string    `json:"label"`
	Total  int       `json:"total"`            // jobs in the campaign
	Cycles uint64    `json:"cycles,omitempty"` // workload cycles, for done
	Err    string    `json:"err,omitempty"`    // for failed/skipped
}

// JobOutcome pairs a job with how it went.
type JobOutcome struct {
	Job    Job
	Status Status
	// Result is set for StatusRun and StatusCached.
	Result *Result
	// Err describes the failure for StatusFailed.
	Err string
}

// CampaignResult is everything a campaign run produced, in job-index order.
type CampaignResult struct {
	Spec     Spec
	Jobs     []JobOutcome
	Executed int
	Cached   int
	Failed   int
	Skipped  int
	// Elapsed is wall-clock; it never enters the deterministic reports.
	Elapsed time.Duration
}

// Tally recounts Executed / Cached / Failed / Skipped from the job outcomes.
func (r *CampaignResult) Tally() {
	r.Executed, r.Cached, r.Failed, r.Skipped = 0, 0, 0, 0
	for i := range r.Jobs {
		switch r.Jobs[i].Status {
		case StatusRun:
			r.Executed++
		case StatusCached:
			r.Cached++
		case StatusFailed:
			r.Failed++
		default:
			r.Skipped++
		}
	}
}

// Runner executes campaigns in-process: it is the single-tenant composition
// of the campaign engine's three layers — the job list is the queue (cache
// hits resolved up front), the bounded goroutine pool is the scheduler, and
// Executor runs each job. The fleet server (internal/fleetsrv) recomposes
// the same layers across a network: a tenant-aware Queue, lease-based
// scheduling over worker processes, and the same Executor inside each
// worker — which is why a campaign's aggregate is byte-identical whichever
// composition ran it.
type Runner struct {
	// Workers bounds concurrent jobs; <= 0 means 1. Worker count affects
	// only wall-clock time: the aggregate output is byte-identical for
	// any value.
	Workers int
	// Cache, when non-nil, is consulted before executing and updated
	// after every successful job.
	Cache *Cache
	// Exec runs one job; nil means Execute (the real simulator). Tests
	// substitute instrumented executors here.
	Exec func(ctx context.Context, p Params) (*Result, error)
	// Log, when non-nil, receives one line per job as it completes.
	Log func(format string, args ...any)
	// OnEvent, when non-nil, receives structured job lifecycle events
	// (started, cache_hit, resumed, done, failed, skipped) as they
	// happen. It is called concurrently from worker goroutines and must be
	// safe for concurrent use; the fleet CLI's -v flag and the live
	// dashboard both hang off this hook.
	OnEvent func(Event)

	// execOpts forwards the Executor's test seam (see Executor.execOpts).
	execOpts func(ctx context.Context, p Params, opts ExecuteOpts) (*Result, error)
}

// emit delivers an event to the OnEvent hook, if any.
func (r *Runner) emit(ev Event) {
	if r.OnEvent != nil {
		r.OnEvent(ev)
	}
}

// Run expands the spec and executes every point not already in the cache.
// Cancellation via ctx is graceful: in-flight jobs are interrupted at their
// next event slice, undispatched jobs are marked skipped, and everything
// already completed is in the cache — re-running the same campaign resumes
// from there. Run returns the partial CampaignResult in that case, never an
// error for cancellation itself.
func (r *Runner) Run(ctx context.Context, spec Spec) (*CampaignResult, error) {
	jobs, err := spec.Jobs()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res := &CampaignResult{Spec: spec, Jobs: make([]JobOutcome, len(jobs))}

	// Resolve cache hits up front (cheap, serial, deterministic), then
	// fan the remainder out to the pool.
	var todo []Job
	for _, job := range jobs {
		if r.Cache != nil {
			if cached, ok := r.Cache.Get(job.Params.Key()); ok {
				res.Jobs[job.Index] = JobOutcome{Job: job, Status: StatusCached, Result: cached}
				r.emit(Event{Type: EventCacheHit, Index: job.Index, Label: job.Params.Label(),
					Total: len(jobs), Cycles: cached.Cycles})
				continue
			}
		}
		todo = append(todo, job)
	}

	workers := r.Workers
	if workers <= 0 {
		workers = 1
	}
	if workers > len(todo) && len(todo) > 0 {
		workers = len(todo)
	}
	ch := make(chan Job)
	var wg sync.WaitGroup
	var mu sync.Mutex // guards res.Jobs writes from workers
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range ch {
				out := r.runJob(ctx, job, spec, len(jobs))
				mu.Lock()
				res.Jobs[job.Index] = out
				mu.Unlock()
				if r.Log != nil {
					switch out.Status {
					case StatusFailed:
						r.Log("job %d %s: FAILED: %s", job.Index, job.Params.Label(), out.Err)
					case StatusRun:
						r.Log("job %d %s: %d cycles", job.Index, job.Params.Label(), out.Result.Cycles)
					}
				}
			}
		}()
	}
	for _, job := range todo {
		ch <- job
	}
	close(ch)
	wg.Wait()

	res.Tally()
	res.Elapsed = time.Since(start)
	return res, nil
}

// runJob executes one job through the Executor layer with the spec's
// timeout and checkpoint/resume policy, then records the result in the
// cache.
func (r *Runner) runJob(ctx context.Context, job Job, spec Spec, total int) JobOutcome {
	ex := &Executor{Exec: r.Exec, Log: r.Log, OnEvent: r.OnEvent, execOpts: r.execOpts}
	if r.Cache != nil {
		ex.Dir = r.Cache.Dir()
	}
	out := ex.RunJob(ctx, job, spec.Policy(), total)
	if out.Status == StatusRun && r.Cache != nil {
		if cerr := r.Cache.Put(out.Result); cerr != nil && r.Log != nil {
			r.Log("job %d: cache write failed: %v", job.Index, cerr)
		}
	}
	return out
}
