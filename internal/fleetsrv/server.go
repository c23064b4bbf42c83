package fleetsrv

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"smappic/internal/campaign"
	"smappic/internal/obs"
)

// DefaultLeaseTTL is the lease deadline when the operator sets none: long
// enough to ride out GC pauses and load spikes on a healthy worker, short
// enough that a dead worker's jobs re-queue promptly.
const DefaultLeaseTTL = 30 * time.Second

// Server is the resident fleet campaign server. Construct with New, then
// mount Handler (or Start). All mutable state sits behind one mutex — the
// protocol is low-rate control traffic (leases, heartbeats, results), never
// simulation data, so a single lock is simplicity, not a bottleneck.
type Server struct {
	// Cache is the shared content-addressed result store; required. It
	// answers jobs before any lease is granted and absorbs every completed
	// result, so identical sweep points across tenants simulate once. The
	// server decodes a key's entry once, the first time the key is asked
	// for; its record in results answers from then on.
	Cache *campaign.Cache
	// StateDir, when non-empty, persists every submission and every failed
	// job as lines of one journal, so a restarted server resumes where it
	// stopped: the cache answers every job that completed, failures stay
	// failed, the rest re-queue. Empty keeps everything in-memory.
	StateDir string
	// LeaseTTL is the heartbeat deadline for granted leases; 0 means
	// DefaultLeaseTTL.
	LeaseTTL time.Duration
	// Log, when non-nil, receives one line per protocol event of note.
	Log func(format string, args ...any)

	// now is the injectable clock; tests freeze and step it to drive lease
	// expiry deterministically.
	now func() time.Time
	// epoch tags this boot's worker and lease IDs (wEPOCH-001,
	// lEPOCH-000001): their counters restart with the server, and a
	// survivor's ID from the previous boot must never match one issued
	// since. Drawn from the clock at New; tests pin it.
	epoch string

	mu        sync.Mutex
	queue     *campaign.Queue
	campaigns map[string]*campaignRun
	order     []string // campaign admission order, for status output
	workers   map[string]*workerState
	leases    map[string]*lease
	// results holds one slim record (Metrics stripped) per cache key the
	// server has resolved or been delivered, shared read-only by every
	// outcome of the key. It is not persisted — the cache is the durable
	// record, and Load's resolve rebuilds it — and it holds exactly the
	// results the retained campaigns point at, so it needs no eviction.
	results map[string]*campaign.Result
	// reports holds, per spec, the last report rendered for a campaign of
	// it (see report). Like results it is not persisted: a restarted server
	// renders each report once more.
	reports   map[string]*reportMemo
	nextSeq   uint64
	nextCamp  int
	nextLease int
	nextWkr   int
	// journal is the journal in StateDir, open for appending from the first
	// record written until Close.
	journal *os.File

	httpSrv *http.Server
}

// campaignRun is one submitted campaign's server-side state.
type campaignRun struct {
	id       string
	tenant   string
	priority int
	spec     campaign.Spec
	jobs     []campaign.Job
	// outcomes holds each slot's terminal outcome; a slot is filled once its
	// Status is set. pending counts jobs sitting on the queue, inflight the
	// leased ones.
	outcomes []campaign.JobOutcome
	pending  int
	inflight int
	failed   int
	done     int
	hub      *obs.Hub // per-campaign progress stream (SSE)
}

// complete reports whether every slot is filled: the server never fills a
// slot as skipped, so each one is done or failed.
func (run *campaignRun) complete() bool { return run.done+run.failed == len(run.jobs) }

// workerState tracks one registered worker.
type workerState struct {
	id       string
	name     string
	lastSeen time.Time
	leases   map[string]struct{}
}

// lease is one granted job with its heartbeat deadline.
type lease struct {
	id         string
	workerID   string
	campaignID string
	tj         *campaign.TenantJob
	deadline   time.Time
}

// New returns a server over a result cache. Call Load afterwards when
// StateDir is set, then Handler/Start.
func New(cache *campaign.Cache) *Server {
	return &Server{
		Cache:     cache,
		now:       time.Now,
		epoch:     strconv.FormatInt(time.Now().UnixNano(), 36),
		queue:     campaign.NewQueue(0),
		campaigns: map[string]*campaignRun{},
		workers:   map[string]*workerState{},
		leases:    map[string]*lease{},
		results:   map[string]*campaign.Result{},
		reports:   map[string]*reportMemo{},
	}
}

// SetQuota overrides one tenant's concurrency quota (<= 0 = unlimited).
func (s *Server) SetQuota(tenant string, quota int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.queue.SetQuota(tenant, quota)
}

// SetDefaultQuota bounds the concurrent leases of every tenant SetQuota has
// not named, restored tenants included (<= 0 = unlimited).
func (s *Server) SetDefaultQuota(quota int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.queue.SetDefaultQuota(quota)
}

func (s *Server) logf(format string, args ...any) {
	if s.Log != nil {
		s.Log(format, args...)
	}
}

func (s *Server) leaseTTL() time.Duration {
	if s.LeaseTTL > 0 {
		return s.LeaseTTL
	}
	return DefaultLeaseTTL
}

// ---- submission ----------------------------------------------------------

// submit expands a spec, admits it and resolves its jobs.
func (s *Server) submit(req SubmitRequest) (*SubmitResponse, error) {
	tenant := req.Tenant
	if tenant == "" {
		tenant = "default"
	}
	jobs, err := req.Spec.Jobs()
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	s.nextCamp++
	id := fmt.Sprintf("c%04d", s.nextCamp)
	// The record is durable before any job of the campaign can be leased or
	// its failure journaled, and the submission is refused if it is not.
	if err := s.persistLocked(journalRecord{ID: id, Tenant: tenant, Priority: req.Priority, Spec: &req.Spec}, true); err != nil {
		s.logf("persist campaign %s: %v", id, err)
		return nil, fmt.Errorf("%w: %w", errPersist, err)
	}
	run := s.admitLocked(id, tenant, req.Priority, req.Spec, jobs)
	cached := s.resolveLocked(run)
	s.logf("campaign %s (%s): %d jobs, %d cached, tenant %s", run.id, req.Spec.Name, len(jobs), cached, tenant)
	return &SubmitResponse{CampaignID: run.id, Jobs: len(jobs), Cached: cached}, nil
}

// admitLocked registers a campaign with every slot open. Caller holds s.mu.
func (s *Server) admitLocked(id, tenant string, priority int, spec campaign.Spec, jobs []campaign.Job) *campaignRun {
	run := &campaignRun{
		id: id, tenant: tenant, priority: priority, spec: spec,
		jobs:     jobs,
		outcomes: make([]campaign.JobOutcome, len(jobs)),
		hub:      obs.NewHub(),
	}
	s.campaigns[run.id] = run
	s.order = append(s.order, run.id)
	return run
}

// resolveLocked is the server-side twin of Runner.Run's setup phase, for a
// new submission and a restored one alike: every open slot whose job the
// cache answers is filled as cached, the rest go to the scheduler. It
// returns the number of cache hits. Caller holds s.mu.
func (s *Server) resolveLocked(run *campaignRun) int {
	cached := 0
	for _, job := range run.jobs {
		if run.outcomes[job.Index].Status != "" {
			continue // a journaled failure
		}
		if res, ok := s.lookupLocked(job.Params.Key()); ok {
			s.fillLocked(run, campaign.JobOutcome{Job: job, Status: campaign.StatusCached, Result: res},
				campaign.Event{Type: campaign.EventCacheHit, Index: job.Index,
					Label: job.Params.Label(), Total: len(run.jobs), Cycles: res.Cycles})
			cached++
			continue
		}
		s.enqueueLocked(run, job)
	}
	return cached
}

// lookupLocked answers a key from the server's record, reading and decoding
// the cache entry only the first time the key is asked for. It is the one
// read of the cache on the server. Caller holds s.mu.
func (s *Server) lookupLocked(key string) (*campaign.Result, bool) {
	if res, ok := s.results[key]; ok {
		return res, true
	}
	res, ok := s.Cache.Get(key)
	if !ok {
		return nil, false
	}
	return s.keepLocked(res), true
}

// keepLocked makes a slim copy of res the record for its key and returns it:
// the bulky Metrics stay in the cache entry, and no report serves them.
// Caller holds s.mu.
func (s *Server) keepLocked(res *campaign.Result) *campaign.Result {
	slim := *res
	slim.Metrics = nil
	s.results[slim.Key] = &slim
	return &slim
}

// enqueueLocked puts one open slot's job on the scheduler queue. Caller holds
// s.mu.
func (s *Server) enqueueLocked(run *campaignRun, job campaign.Job) {
	s.nextSeq++
	s.queue.Push(&campaign.TenantJob{
		Tenant: run.tenant, CampaignID: run.id, Priority: run.priority,
		Seq: s.nextSeq, Job: job,
	})
	run.pending++
}

// fill books a terminal outcome into its job slot — the accounting only, no
// journal, no stream — and reports whether the slot was still open.
func (run *campaignRun) fill(out campaign.JobOutcome) bool {
	if run.outcomes[out.Job.Index].Status != "" {
		return false
	}
	run.outcomes[out.Job.Index] = out
	switch out.Status {
	case campaign.StatusRun, campaign.StatusCached:
		run.done++
	case campaign.StatusFailed:
		run.failed++
	}
	return true
}

// fillLocked records a terminal outcome for one job slot, journals it if it
// is a failure (a success is in the cache) and streams its event. Caller
// holds s.mu.
func (s *Server) fillLocked(run *campaignRun, out campaign.JobOutcome, ev campaign.Event) {
	if !run.fill(out) {
		return
	}
	if out.Status == campaign.StatusFailed {
		// Not fsynced: a failure lost in a crash re-runs its job.
		index := out.Job.Index
		if err := s.persistLocked(journalRecord{ID: run.id, Failed: &index, Err: out.Err}, false); err != nil {
			s.logf("persist outcome %s/%d: %v", run.id, index, err)
		}
	}
	run.hub.Broadcast("job", ev)
	if run.complete() {
		run.hub.Broadcast("complete", s.statusLocked(run))
		s.logf("campaign %s complete: %d done, %d failed", run.id, run.done, run.failed)
	}
}

// ---- lease lifecycle -----------------------------------------------------

// expireLocked re-queues every lease whose heartbeat deadline has passed —
// the lazy half of expiry; Start also runs a janitor tick so expiry does not
// depend on traffic. Caller holds s.mu.
func (s *Server) expireLocked() {
	now := s.now()
	for id, l := range s.leases {
		if !l.deadline.Before(now) {
			continue
		}
		delete(s.leases, id)
		if w, ok := s.workers[l.workerID]; ok {
			delete(w.leases, id)
		}
		run := s.campaigns[l.campaignID]
		s.queue.Requeue(l.tj)
		if run != nil {
			run.inflight--
			run.pending++
			run.hub.Broadcast("job", campaign.Event{
				Type: campaign.EventRequeued, Index: l.tj.Job.Index,
				Label: l.tj.Job.Params.Label(), Total: len(run.jobs),
				Err: "lease expired: worker " + l.workerID + " lost",
			})
		}
		s.logf("lease %s (job %d of %s) expired on worker %s: re-queued", id, l.tj.Job.Index, l.campaignID, l.workerID)
	}
}

// register admits a worker and assigns its identity.
func (s *Server) register(req RegisterRequest) *RegisterResponse {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextWkr++
	w := &workerState{
		id:       fmt.Sprintf("w%s-%03d", s.epoch, s.nextWkr),
		name:     req.Name,
		lastSeen: s.now(),
		leases:   map[string]struct{}{},
	}
	s.workers[w.id] = w
	s.logf("worker %s (%q) registered", w.id, w.name)
	return &RegisterResponse{WorkerID: w.id, LeaseTTLSec: s.leaseTTL().Seconds()}
}

// leaseNext grants the scheduler's next job to a worker. Jobs that became
// cache hits while queued (another tenant's identical point completed) are
// answered through lookupLocked without a lease — the "ask the server
// before executing" half of the cache protocol.
func (s *Server) leaseNext(req LeaseRequest) (*LeaseResponse, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	w, ok := s.workers[req.WorkerID]
	if !ok {
		return nil, errUnknownWorker
	}
	w.lastSeen = s.now()
	for {
		tj := s.queue.Next()
		if tj == nil {
			return &LeaseResponse{}, nil
		}
		run := s.campaigns[tj.CampaignID]
		if run == nil || run.outcomes[tj.Job.Index].Status != "" {
			// The campaign vanished (bad persistence edit) or the slot was
			// filled by an idempotent duplicate; drop the queue entry.
			s.queue.Release(tj.Tenant)
			continue
		}
		if res, ok := s.lookupLocked(tj.Job.Params.Key()); ok {
			s.queue.Release(tj.Tenant)
			run.pending--
			s.fillLocked(run, campaign.JobOutcome{Job: tj.Job, Status: campaign.StatusCached, Result: res},
				campaign.Event{Type: campaign.EventCacheHit, Index: tj.Job.Index,
					Label: tj.Job.Params.Label(), Total: len(run.jobs), Cycles: res.Cycles})
			continue
		}
		s.nextLease++
		l := &lease{
			id:         fmt.Sprintf("l%s-%06d", s.epoch, s.nextLease),
			workerID:   w.id,
			campaignID: tj.CampaignID,
			tj:         tj,
			deadline:   s.now().Add(s.leaseTTL()),
		}
		s.leases[l.id] = l
		w.leases[l.id] = struct{}{}
		run.pending--
		run.inflight++
		run.hub.Broadcast("job", campaign.Event{
			Type: campaign.EventStarted, Index: tj.Job.Index,
			Label: tj.Job.Params.Label(), Total: len(run.jobs),
		})
		return &LeaseResponse{Job: &LeasedJob{
			LeaseID:    l.id,
			CampaignID: tj.CampaignID,
			Tenant:     tj.Tenant,
			Index:      tj.Job.Index,
			Total:      len(run.jobs),
			Params:     tj.Job.Params,
			Policy:     run.spec.Policy(),
		}}, nil
	}
}

// heartbeat extends a live lease. A stale lease (expired, or re-queued to
// another worker) answers errStaleLease, telling the worker to abandon the
// job — the server has already re-queued it.
func (s *Server) heartbeat(req HeartbeatRequest) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	if w, ok := s.workers[req.WorkerID]; ok {
		w.lastSeen = s.now()
	}
	l, ok := s.leases[req.LeaseID]
	if !ok || l.workerID != req.WorkerID {
		return errStaleLease
	}
	l.deadline = s.now().Add(s.leaseTTL())
	return nil
}

// result lands a finished job. Three paths:
//
//   - live lease: record the outcome, publish to the cache, keep its slim
//     record, free the slot;
//   - stale lease but the slot already completed with the same content key:
//     an idempotent duplicate (the job's first worker was slow, a second
//     re-ran it — deterministic jobs produce byte-identical results), so
//     absorb it with a fresh idempotent cache put;
//   - stale lease, slot incomplete: reject — the job is back on the queue
//     and this worker's state is untrusted.
func (s *Server) result(req ResultRequest) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	if w, ok := s.workers[req.WorkerID]; ok {
		w.lastSeen = s.now()
	}
	l, ok := s.leases[req.LeaseID]
	if !ok || l.workerID != req.WorkerID {
		run := s.campaigns[req.CampaignID]
		if run != nil && req.Index >= 0 && req.Index < len(run.outcomes) && run.outcomes[req.Index].Status != "" {
			prev := run.outcomes[req.Index]
			if req.Status == campaign.StatusRun && req.Result != nil && prev.Result != nil &&
				prev.Result.Key == req.Result.Key {
				// Duplicate delivery of a completed job: absorb it, which
				// keeps the worker's exit path simple, and write nothing —
				// the entry stored under this key is the first delivery's,
				// and a replay without a lease has no say over it.
				return nil
			}
		}
		return errStaleLease
	}
	// A malformed delivery is refused before the lease is consumed: the lease
	// stays live, so its expiry re-queues the job. The cache is
	// content-addressed and shared by every tenant: a result goes in only
	// under the key of the job this lease was granted for.
	if req.Status == campaign.StatusRun {
		if req.Result == nil {
			return fmt.Errorf("fleetsrv: run status without a result")
		}
		if req.Result.Key != l.tj.Job.Params.Key() {
			return fmt.Errorf("fleetsrv: result key %q is not the key of leased job %d", req.Result.Key, l.tj.Job.Index)
		}
	}
	delete(s.leases, l.id)
	if w, ok := s.workers[l.workerID]; ok {
		delete(w.leases, l.id)
	}
	run := s.campaigns[l.campaignID]
	if run == nil {
		s.queue.Release(l.tj.Tenant)
		return errUnknownCampaign
	}
	run.inflight--
	switch req.Status {
	case campaign.StatusRun:
		s.queue.Release(l.tj.Tenant)
		if err := s.Cache.Put(req.Result); err != nil {
			s.logf("campaign %s job %d: cache put: %v", run.id, req.Index, err)
		}
		res := s.keepLocked(req.Result)
		s.fillLocked(run, campaign.JobOutcome{Job: l.tj.Job, Status: campaign.StatusRun, Result: res},
			campaign.Event{Type: campaign.EventDone, Index: l.tj.Job.Index,
				Label: l.tj.Job.Params.Label(), Total: len(run.jobs), Cycles: res.Cycles})
	case campaign.StatusFailed:
		s.queue.Release(l.tj.Tenant)
		s.fillLocked(run, campaign.JobOutcome{Job: l.tj.Job, Status: campaign.StatusFailed, Err: req.Err},
			campaign.Event{Type: campaign.EventFailed, Index: l.tj.Job.Index,
				Label: l.tj.Job.Params.Label(), Total: len(run.jobs), Err: req.Err})
	default:
		// The worker gave the job back (shutdown mid-lease): re-queue it.
		s.queue.Requeue(l.tj)
		run.pending++
		run.hub.Broadcast("job", campaign.Event{
			Type: campaign.EventRequeued, Index: l.tj.Job.Index,
			Label: l.tj.Job.Params.Label(), Total: len(run.jobs),
			Err: "returned by worker " + req.WorkerID,
		})
	}
	return nil
}

// ---- status and reports --------------------------------------------------

// statusLocked builds one campaign's status row. Caller holds s.mu.
func (s *Server) statusLocked(run *campaignRun) CampaignStatus {
	return CampaignStatus{
		CampaignID: run.id,
		Tenant:     run.tenant,
		Name:       run.spec.Name,
		Total:      len(run.jobs),
		Done:       run.done,
		Failed:     run.failed,
		Pending:    run.pending,
		InFlight:   run.inflight,
		Complete:   run.complete(),
	}
}

// campaignStatus returns one campaign's progress.
func (s *Server) campaignStatus(id string) (CampaignStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	run, ok := s.campaigns[id]
	if !ok {
		return CampaignStatus{}, errUnknownCampaign
	}
	return s.statusLocked(run), nil
}

// campaignResult assembles the completed campaign's CampaignResult — the
// exact structure the in-process Runner produces, so Aggregate() renders a
// byte-identical report.
func (s *Server) campaignResult(id string) (*campaign.CampaignResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	run, ok := s.campaigns[id]
	if !ok {
		return nil, errUnknownCampaign
	}
	if !run.complete() {
		return nil, errIncomplete
	}
	cr := &campaign.CampaignResult{Spec: run.spec, Jobs: append([]campaign.JobOutcome(nil), run.outcomes...)}
	cr.Tally()
	return cr, nil
}

// report returns a completed campaign's canonical JSON report. It renders
// outside s.mu, and answers from s.reports instead when a campaign of the
// same spec was rendered from the very same outcomes: every slot pointing at
// the same record, or failed with the same error. A record replaced by a
// later live delivery, or a failure that completed on resubmission, renders
// afresh. The bytes are kept only once a second campaign of the spec asks —
// a spec submitted once, as every fresh sweep is, keeps its slot pointers
// alone. A complete campaign's outcomes never change and a memo entry is
// replaced, never modified, so both are read outside the lock. The returned
// slice may be the memo's: callers must not modify it.
func (s *Server) report(id string) ([]byte, error) {
	cr, err := s.campaignResult(id)
	if err != nil {
		return nil, err
	}
	key := specKey(cr.Spec)
	s.mu.Lock()
	memo := s.reports[key]
	s.mu.Unlock()
	if memo != nil && memo.doc != nil && memo.renders(cr.Jobs) {
		return memo.doc, nil
	}

	doc, err := cr.Aggregate().JSON()
	if err != nil {
		return nil, fmt.Errorf("%w: %w", errRender, err)
	}
	next := &reportMemo{campaignID: id, slots: make([]reportSlot, len(cr.Jobs))}
	for i, out := range cr.Jobs {
		next.slots[i] = reportSlot{out.Result, out.Err}
	}
	s.mu.Lock()
	// Keep the bytes once another campaign of the spec has rendered, whether
	// its entry was read above or was stored while this one rendered.
	if cur := s.reports[key]; memo != nil && memo.campaignID != id || cur != nil && cur.campaignID != id {
		next.doc = doc
	}
	s.reports[key] = next
	s.mu.Unlock()
	return doc, nil
}

// reportMemo is the last report rendered for one spec: the campaign it was
// rendered for, what it read of each slot, and — when that campaign was not
// the first of its spec to ask — the rendered bytes.
type reportMemo struct {
	campaignID string
	slots      []reportSlot
	doc        []byte
}

// reportSlot is what a report reads of one filled slot: the shared record
// of a result, or the error of a failure.
type reportSlot struct {
	res *campaign.Result
	err string
}

// renders reports whether the memo was rendered from exactly these
// outcomes.
func (m *reportMemo) renders(outcomes []campaign.JobOutcome) bool {
	for i, out := range outcomes {
		if m.slots[i] != (reportSlot{out.Result, out.Err}) {
			return false
		}
	}
	return true
}

// specKey names a spec in the report memo: the SHA-256 of its JSON, whose
// field order is fixed, so two campaigns share an entry only when they
// expand to the same jobs under the same name. An admitted spec always
// marshals: Jobs refuses the one value JSON cannot hold, a non-finite
// timeout.
func specKey(spec campaign.Spec) string {
	doc, _ := json.Marshal(spec)
	sum := sha256.Sum256(doc)
	return string(sum[:])
}

// fleetStatus builds the whole-fleet view.
func (s *Server) fleetStatus() *StatusView {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	now := s.now()
	view := &StatusView{Queue: s.queue.Tenants()}
	ids := make([]string, 0, len(s.workers))
	for id := range s.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		w := s.workers[id]
		view.Workers = append(view.Workers, WorkerView{
			WorkerID: w.id, Name: w.name, Leases: len(w.leases),
			IdleSec: now.Sub(w.lastSeen).Seconds(),
		})
	}
	for _, id := range s.order {
		view.Campaigns = append(view.Campaigns, s.statusLocked(s.campaigns[id]))
	}
	return view
}

// ---- persistence ---------------------------------------------------------

// journalFile is StateDir's one file: every submission and every failed
// job, one compact journalRecord per line, in the order they happened.
const journalFile = "campaigns.jsonl"

// journalRecord is one line of the journal: a submission, which carries the
// spec, or a failed job of a campaign admitted on an earlier line, which
// carries the job's index. A completed job needs no line: its result is in
// the content-addressed cache, which Load consults by the job's own key.
type journalRecord struct {
	ID       string         `json:"id"`
	Tenant   string         `json:"tenant,omitempty"`
	Priority int            `json:"priority,omitempty"`
	Spec     *campaign.Spec `json:"spec,omitempty"`
	Failed   *int           `json:"failed,omitempty"`
	Err      string         `json:"err,omitempty"`
}

// persistLocked appends rec to the journal as one line, fsynced when sync
// is set. Caller holds s.mu.
func (s *Server) persistLocked(rec journalRecord, sync bool) error {
	if s.StateDir == "" {
		return nil
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return s.appendLocked(append(line, '\n'), sync)
}

// appendLocked appends data to the journal, opening it at the first append,
// and fsyncs it when sync is set. A failed append is cut back out, so no
// fragment of it glues onto the next record. Caller holds s.mu.
func (s *Server) appendLocked(data []byte, sync bool) error {
	if s.journal == nil {
		f, err := os.OpenFile(filepath.Join(s.StateDir, journalFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		// The journal's name is durable once its directory is synced; each
		// submission is synced as it is appended.
		if err := syncDir(s.StateDir); err != nil {
			f.Close()
			return err
		}
		s.journal = f
	}
	info, err := s.journal.Stat()
	if err != nil {
		return err
	}
	if _, err = s.journal.Write(data); err == nil && sync {
		err = s.journal.Sync()
	}
	if err != nil {
		// Best effort: on a disk that fails this too, the fragment stays.
		_ = s.journal.Truncate(info.Size())
	}
	return err
}

// syncDir fsyncs a directory, making the names created in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Load restores the journal's campaigns. It reads the journal once, in
// order: a submission line admits its campaign, a failure line fills a slot
// of a campaign already admitted. Each restored campaign is then resolved,
// in admission order, exactly as a new submission is: the cache answers
// every job that completed, the rest re-queue. A line that does not parse,
// or a campaign whose spec no longer expands, is logged and skipped. A state
// dir that holds an older build's files is refused, and nothing is written
// to it. Call once, before serving.
func (s *Server) Load() error {
	if s.StateDir == "" {
		return nil
	}
	if err := os.MkdirAll(s.StateDir, 0o755); err != nil {
		return fmt.Errorf("fleetsrv: state dir: %w", err)
	}
	entries, err := os.ReadDir(s.StateDir)
	if err != nil {
		return fmt.Errorf("fleetsrv: state dir: %w", err)
	}
	for _, e := range entries {
		if name := e.Name(); strings.HasSuffix(name, ".campaign.json") || strings.HasSuffix(name, ".outcomes.jsonl") {
			return fmt.Errorf("fleetsrv: %s is an older build's state, which this build does not read; start from an empty state dir",
				filepath.Join(s.StateDir, name))
		}
	}
	data, err := os.ReadFile(filepath.Join(s.StateDir, journalFile))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("fleetsrv: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(data); n > 0 && data[n-1] != '\n' {
		// A last line torn by a crash is ended first: otherwise the next
		// record appended would be glued to the fragment and lost with it.
		if err := s.appendLocked([]byte("\n"), false); err != nil {
			return fmt.Errorf("fleetsrv: %w", err)
		}
	}
	for i, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			// Torn by a crash mid-append. A submission line took the next
			// ID, so that ID is not reused; a failure line's job re-runs.
			s.nextCamp++
			s.logf("%s line %d: not restored: %v", journalFile, i+1, err)
			continue
		}
		if rec.Spec == nil {
			// A failure line, of a campaign admitted above or of none.
			if run := s.campaigns[rec.ID]; run != nil && rec.Failed != nil && *rec.Failed >= 0 && *rec.Failed < len(run.jobs) {
				run.fill(campaign.JobOutcome{Job: run.jobs[*rec.Failed], Status: campaign.StatusFailed, Err: rec.Err})
			}
			continue
		}
		s.nextCamp = max(s.nextCamp, campNum(rec.ID))
		jobs, err := rec.Spec.Jobs()
		if err != nil {
			// Admitted under an older, looser build that this one refuses:
			// serving it would run jobs it cannot trust. Skip it rather than
			// refuse to boot for every other tenant; its ID is not reused,
			// and its failure lines fill nothing.
			s.logf("campaign %s: not restored: %v", rec.ID, err)
			continue
		}
		s.admitLocked(rec.ID, rec.Tenant, rec.Priority, *rec.Spec, jobs)
	}
	for _, id := range s.order {
		run := s.campaigns[id]
		s.resolveLocked(run)
		s.logf("restored campaign %s: %d/%d complete, %d re-queued", run.id, run.done+run.failed, len(run.jobs), run.pending)
	}
	return nil
}

// campNum parses the counter out of a cNNNN campaign ID (0 if malformed).
func campNum(id string) int {
	n := 0
	if _, err := fmt.Sscanf(id, "c%d", &n); err != nil {
		return 0
	}
	return n
}
