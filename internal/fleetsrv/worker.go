package fleetsrv

import (
	"context"
	"errors"
	"time"

	"smappic/internal/campaign"
)

// Worker is the remote executor process: it registers with a fleet server,
// leases jobs, heartbeats while running them through the same
// campaign.Executor the in-process Runner uses, and posts results back.
// Determinism rides on the Executor — the worker adds only transport.
type Worker struct {
	// Server is the fleet server base URL (http://host:port).
	Server string
	// Name is the human-readable label sent at registration.
	Name string
	// CacheDir, when non-empty, is the shared checkpoint directory
	// (normally the same filesystem as the server's cache). With it, a job
	// re-leased from a dead worker resumes that worker's last periodic
	// checkpoint; without it, re-leased jobs restart cold —
	// correct either way, the checkpoint only buys time back.
	CacheDir string
	// Poll is the idle re-poll interval when the server has no work;
	// 0 means 200ms.
	Poll time.Duration
	// Exec substitutes the simulator (tests); nil runs the real one.
	Exec func(ctx context.Context, p campaign.Params) (*campaign.Result, error)
	// Log, when non-nil, receives one line per lease lifecycle step.
	Log func(format string, args ...any)

	client   *Client
	workerID string
	ttl      time.Duration
}

func (w *Worker) logf(format string, args ...any) {
	if w.Log != nil {
		w.Log(format, args...)
	}
}

func (w *Worker) poll() time.Duration {
	if w.Poll > 0 {
		return w.Poll
	}
	return 200 * time.Millisecond
}

// register joins the server and takes the identity and lease TTL it assigns.
func (w *Worker) register(ctx context.Context) error {
	reg, err := w.client.register(ctx, RegisterRequest{Name: w.Name})
	if err != nil {
		return err
	}
	w.workerID = reg.WorkerID
	w.ttl = time.Duration(reg.LeaseTTLSec * float64(time.Second))
	w.logf("registered as %s (lease TTL %s)", w.workerID, w.ttl)
	return nil
}

// Run registers and serves leases until ctx is cancelled. A worker shut
// down mid-job gives the job back (the server re-queues it); a worker
// killed outright simply stops heartbeating and the lease expires. A server
// that restarted has forgotten its workers (they are not persisted): the
// worker registers again and carries on.
func (w *Worker) Run(ctx context.Context) error {
	w.client = &Client{Server: w.Server}
	if err := w.register(ctx); err != nil {
		return err
	}
	for ctx.Err() == nil {
		resp, err := w.client.lease(ctx, LeaseRequest{WorkerID: w.workerID})
		if errors.Is(err, errUnknownWorker) {
			if err = w.register(ctx); err == nil {
				continue
			}
		}
		if err != nil {
			if ctx.Err() != nil {
				break
			}
			w.logf("lease: %v", err)
			resp = &LeaseResponse{}
		}
		if resp.Job == nil {
			select {
			case <-time.After(w.poll()):
			case <-ctx.Done():
			}
			continue
		}
		w.runLease(ctx, resp.Job)
	}
	return ctx.Err()
}

// runLease executes one leased job under heartbeat protection.
func (w *Worker) runLease(ctx context.Context, lj *LeasedJob) {
	w.logf("lease %s: job %d of %s (%s)", lj.LeaseID, lj.Index, lj.CampaignID, lj.Params.Label())
	jctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Heartbeat at a third of the TTL. A stale answer means the server
	// already re-queued the job — abandon it; finishing would only produce
	// a result the server rejects.
	hbDone := make(chan struct{})
	stale := false
	go func() {
		defer close(hbDone)
		interval := w.ttl / 3
		if interval <= 0 {
			interval = time.Second
		}
		for {
			select {
			case <-jctx.Done():
				return
			case <-time.After(interval):
			}
			err := w.client.heartbeat(jctx, HeartbeatRequest{WorkerID: w.workerID, LeaseID: lj.LeaseID})
			if isStale(err) {
				w.logf("lease %s: gone stale, abandoning job", lj.LeaseID)
				stale = true
				cancel()
				return
			}
			if err != nil && jctx.Err() == nil {
				w.logf("lease %s: heartbeat: %v", lj.LeaseID, err)
			}
		}
	}()

	ex := &campaign.Executor{Dir: w.CacheDir, Exec: w.Exec, Log: w.Log}
	out := ex.RunJob(jctx, campaign.Job{Index: lj.Index, Params: lj.Params}, lj.Policy, lj.Total)
	cancel()
	<-hbDone
	if stale {
		return // the job is someone else's now
	}

	req := ResultRequest{
		WorkerID:   w.workerID,
		LeaseID:    lj.LeaseID,
		CampaignID: lj.CampaignID,
		Index:      lj.Index,
		Status:     out.Status,
		Result:     out.Result,
		Err:        out.Err,
	}
	// Use a fresh context: the worker may be shutting down (ctx cancelled),
	// and giving the job back cleanly beats leaving the lease to expire.
	pctx, pcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer pcancel()
	if err := w.client.result(pctx, req); err != nil {
		if isStale(err) {
			// Late delivery after expiry: the server holds the truth.
			w.logf("lease %s: result rejected as stale", lj.LeaseID)
			return
		}
		w.logf("lease %s: result delivery: %v", lj.LeaseID, err)
	}
}
