package fleetsrv

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smappic/internal/campaign"
)

// fakeExec is the deterministic executor stub shared by every protocol
// test and by the in-process reference runs — identical inputs, identical
// Result, wherever it executes.
func fakeExec(_ context.Context, p campaign.Params) (*campaign.Result, error) {
	return &campaign.Result{
		Label:    p.Label(),
		Key:      p.Key(),
		Params:   p,
		Cycles:   1000 + p.Seed,
		Attempts: 1,
		Stats:    map[string]uint64{"fake.cycles": 1000 + p.Seed},
	}, nil
}

// failingExec is fakeExec with the jobs of the given seeds failing.
func failingExec(seeds ...uint64) func(context.Context, campaign.Params) (*campaign.Result, error) {
	return func(ctx context.Context, p campaign.Params) (*campaign.Result, error) {
		if slices.Contains(seeds, p.Seed) {
			return nil, fmt.Errorf("seed %d: boom", p.Seed)
		}
		return fakeExec(ctx, p)
	}
}

func testSpec(name string, seeds ...uint64) campaign.Spec {
	if len(seeds) == 0 {
		seeds = []uint64{1, 2, 3, 4}
	}
	return campaign.Spec{
		Name:      name,
		Shapes:    []string{"1x1x2"},
		Workloads: []string{campaign.WorkloadIS},
		Seeds:     seeds,
		Keys:      1 << 8,
	}
}

// referenceReport runs the spec through the in-process Runner (own cache
// dir, same fakeExec) and returns the canonical aggregate JSON and CSV —
// the bytes every fleet execution must reproduce exactly.
func referenceReport(t *testing.T, spec campaign.Spec) ([]byte, string) {
	t.Helper()
	return referenceReportWith(t, spec, fakeExec)
}

// referenceReportWith is referenceReport with exec as the simulator.
func referenceReportWith(t *testing.T, spec campaign.Spec, exec func(context.Context, campaign.Params) (*campaign.Result, error)) ([]byte, string) {
	t.Helper()
	cache, err := campaign.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := &campaign.Runner{Workers: 2, Cache: cache, Exec: exec}
	res, err := r.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	agg := res.Aggregate()
	doc, err := agg.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return doc, agg.CSV()
}

// testServer builds a server over a fresh cache with a stepped fake clock.
func testServer(t *testing.T) (*Server, *time.Time) {
	t.Helper()
	cache, err := campaign.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := New(cache)
	s.LeaseTTL = 10 * time.Second
	clock := time.Unix(1_700_000_000, 0)
	s.now = func() time.Time { return clock }
	return s, &clock
}

// completeAll drains the queue through the protocol as the given worker,
// executing with fakeExec, until no work remains.
func completeAll(t *testing.T, s *Server, workerID string) {
	t.Helper()
	deliverAll(t, s, workerID, fakeExec)
}

// deliverAll drains the queue through the protocol as the given worker until
// no work remains: each job runs through the Executor a Worker uses, with
// exec as the simulator, and its outcome — a result or a failure — is
// delivered.
func deliverAll(t *testing.T, s *Server, workerID string, exec func(context.Context, campaign.Params) (*campaign.Result, error)) {
	t.Helper()
	for {
		resp, err := s.leaseNext(LeaseRequest{WorkerID: workerID})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Job == nil {
			return
		}
		lj := resp.Job
		out := (&campaign.Executor{Exec: exec}).RunJob(context.Background(),
			campaign.Job{Index: lj.Index, Params: lj.Params}, lj.Policy, lj.Total)
		if err := s.result(ResultRequest{
			WorkerID: workerID, LeaseID: lj.LeaseID, CampaignID: lj.CampaignID,
			Index: lj.Index, Status: out.Status, Result: out.Result, Err: out.Err,
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// reportOf fetches a completed campaign's aggregate JSON through the method
// the HTTP handler serves, report memo included.
func reportOf(t *testing.T, s *Server, id string) []byte {
	t.Helper()
	doc, err := s.report(id)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestWorkerKilledMidLease: a worker leases a job and dies (never
// heartbeats). After the TTL the lease expires, the job re-queues keeping
// its place, a second worker completes the campaign, and the aggregate is
// byte-identical to the in-process run.
func TestWorkerKilledMidLease(t *testing.T) {
	spec := testSpec("killed")
	want, _ := referenceReport(t, spec)

	s, clock := testServer(t)
	sub, err := s.submit(SubmitRequest{Tenant: "alice", Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	w1 := s.register(RegisterRequest{Name: "doomed"})
	resp, err := s.leaseNext(LeaseRequest{WorkerID: w1.WorkerID})
	if err != nil || resp.Job == nil {
		t.Fatalf("lease: %v %+v", err, resp)
	}
	victim := resp.Job

	// The worker is SIGKILLed: no heartbeat, no result. Time passes.
	*clock = clock.Add(s.LeaseTTL + time.Second)

	w2 := s.register(RegisterRequest{Name: "survivor"})
	seen := map[int]bool{}
	for {
		r2, err := s.leaseNext(LeaseRequest{WorkerID: w2.WorkerID})
		if err != nil {
			t.Fatal(err)
		}
		if r2.Job == nil {
			break
		}
		seen[r2.Job.Index] = true
		res, _ := fakeExec(context.Background(), r2.Job.Params)
		if err := s.result(ResultRequest{
			WorkerID: w2.WorkerID, LeaseID: r2.Job.LeaseID, CampaignID: r2.Job.CampaignID,
			Index: r2.Job.Index, Status: campaign.StatusRun, Result: res,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if !seen[victim.Index] {
		t.Fatalf("the dead worker's job %d was never re-leased", victim.Index)
	}
	st, err := s.campaignStatus(sub.CampaignID)
	if err != nil || !st.Complete {
		t.Fatalf("campaign not complete: %+v (%v)", st, err)
	}
	if got := reportOf(t, s, sub.CampaignID); !bytes.Equal(got, want) {
		t.Fatalf("fleet report differs from in-process run\nfleet:\n%s\nin-process:\n%s", got, want)
	}
}

// TestLeaseForAGoneWorkerIsGivenBack: a lease request whose worker has gone
// by the time the job is granted (the request context is done) returns the
// job at once: it stays pending, and the next lease gets it, with no wait
// for the TTL.
func TestLeaseForAGoneWorkerIsGivenBack(t *testing.T) {
	s, _ := testServer(t)
	sub, err := s.submit(SubmitRequest{Tenant: "alice", Spec: testSpec("gone", 1)})
	if err != nil {
		t.Fatal(err)
	}
	w := s.register(RegisterRequest{Name: "gone"})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	body := strings.NewReader(`{"worker_id":"` + w.WorkerID + `"}`)
	s.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/api/workers/lease", body).WithContext(ctx))
	if st, err := s.campaignStatus(sub.CampaignID); err != nil || st.Pending != 1 || st.InFlight != 0 {
		t.Fatalf("after a lease nobody received: %+v, %v; want the job pending, not in flight", st, err)
	}
	if resp, err := s.leaseNext(LeaseRequest{WorkerID: w.WorkerID}); err != nil || resp.Job == nil {
		t.Fatalf("next lease: %+v, %v; want the returned job", resp, err)
	}
}

// TestHeartbeatLostStaleLeaseRejected: a worker loses connectivity, its
// lease expires, and when it comes back both its heartbeat and its result
// for the still-incomplete job are rejected as stale.
func TestHeartbeatLostStaleLeaseRejected(t *testing.T) {
	spec := testSpec("stale", 1)
	s, clock := testServer(t)
	if _, err := s.submit(SubmitRequest{Spec: spec}); err != nil {
		t.Fatal(err)
	}
	w1 := s.register(RegisterRequest{})
	resp, err := s.leaseNext(LeaseRequest{WorkerID: w1.WorkerID})
	if err != nil || resp.Job == nil {
		t.Fatalf("lease: %v %+v", err, resp)
	}
	lj := resp.Job

	// Heartbeats extend the deadline while they flow...
	*clock = clock.Add(s.LeaseTTL / 2)
	if err := s.heartbeat(HeartbeatRequest{WorkerID: w1.WorkerID, LeaseID: lj.LeaseID}); err != nil {
		t.Fatalf("live heartbeat rejected: %v", err)
	}
	// ...then the network partitions and the TTL lapses.
	*clock = clock.Add(s.LeaseTTL + time.Second)
	if err := s.heartbeat(HeartbeatRequest{WorkerID: w1.WorkerID, LeaseID: lj.LeaseID}); err != errStaleLease {
		t.Fatalf("stale heartbeat: got %v, want errStaleLease", err)
	}
	res, _ := fakeExec(context.Background(), lj.Params)
	err = s.result(ResultRequest{
		WorkerID: w1.WorkerID, LeaseID: lj.LeaseID, CampaignID: lj.CampaignID,
		Index: lj.Index, Status: campaign.StatusRun, Result: res,
	})
	if err != errStaleLease {
		t.Fatalf("stale result for incomplete job: got %v, want errStaleLease", err)
	}
}

// TestDuplicateResultIdempotent: the slow first worker's result arrives
// after a second worker already completed the job. The duplicate carries
// the same content key (deterministic jobs), so it is absorbed with an
// idempotent cache put rather than rejected — and the report is unaffected.
func TestDuplicateResultIdempotent(t *testing.T) {
	spec := testSpec("dup", 1)
	want, _ := referenceReport(t, spec)

	s, clock := testServer(t)
	sub, err := s.submit(SubmitRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	w1 := s.register(RegisterRequest{Name: "slow"})
	resp, err := s.leaseNext(LeaseRequest{WorkerID: w1.WorkerID})
	if err != nil || resp.Job == nil {
		t.Fatalf("lease: %v %+v", err, resp)
	}
	lj := resp.Job
	*clock = clock.Add(s.LeaseTTL + time.Second)

	w2 := s.register(RegisterRequest{Name: "fast"})
	completeAll(t, s, w2.WorkerID)

	// The slow worker finally finishes and delivers. Same job, same bytes.
	res, _ := fakeExec(context.Background(), lj.Params)
	if err := s.result(ResultRequest{
		WorkerID: w1.WorkerID, LeaseID: lj.LeaseID, CampaignID: lj.CampaignID,
		Index: lj.Index, Status: campaign.StatusRun, Result: res,
	}); err != nil {
		t.Fatalf("duplicate delivery of a completed job: got %v, want idempotent accept", err)
	}
	if got := reportOf(t, s, sub.CampaignID); !bytes.Equal(got, want) {
		t.Fatalf("report changed after duplicate delivery\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestDuplicateResultDoesNotRewriteCache: a replayed delivery of a completed
// job — same key, no live lease — is absorbed but never written: the entry
// under the key and the server's record of it stay the first delivery's
// even when the replay's body differs.
func TestDuplicateResultDoesNotRewriteCache(t *testing.T) {
	spec := testSpec("dup-rewrite", 1)
	s, clock := testServer(t)
	if _, err := s.submit(SubmitRequest{Spec: spec}); err != nil {
		t.Fatal(err)
	}
	w1 := s.register(RegisterRequest{Name: "slow"})
	resp, err := s.leaseNext(LeaseRequest{WorkerID: w1.WorkerID})
	if err != nil || resp.Job == nil {
		t.Fatalf("lease: %v %+v", err, resp)
	}
	lj := resp.Job
	*clock = clock.Add(s.LeaseTTL + time.Second)
	completeAll(t, s, s.register(RegisterRequest{Name: "fast"}).WorkerID)
	first, ok := s.Cache.Get(lj.Params.Key())
	if !ok {
		t.Fatal("completed job is not in the cache")
	}

	altered, _ := fakeExec(context.Background(), lj.Params)
	altered.Cycles = first.Cycles + 1
	if err := s.result(ResultRequest{
		WorkerID: w1.WorkerID, LeaseID: lj.LeaseID, CampaignID: lj.CampaignID,
		Index: lj.Index, Status: campaign.StatusRun, Result: altered,
	}); err != nil {
		t.Fatalf("duplicate delivery of a completed job: got %v, want it absorbed", err)
	}
	if got, ok := s.Cache.Get(lj.Params.Key()); !ok || got.Cycles != first.Cycles {
		t.Fatalf("duplicate delivery rewrote the cache entry: cycles %d, first delivery had %d", got.Cycles, first.Cycles)
	}
	again, err := s.submit(SubmitRequest{Spec: spec})
	if err != nil || again.Cached != 1 {
		t.Fatalf("resubmission: %+v, %v; want one cache hit", again, err)
	}
	cr, err := s.campaignResult(again.CampaignID)
	if err != nil {
		t.Fatal(err)
	}
	if rows := cr.Aggregate().Results; len(rows) != 1 || rows[0].Cycles != first.Cycles {
		t.Fatalf("resubmission serves %+v, want the first delivery's %d cycles", rows, first.Cycles)
	}
}

// TestRetainedOutcomeDropsMetrics: the full MetricsJSON of a delivered
// result goes to the cache; the record the server keeps for the key — which
// the delivering campaign and one answered from the cache at submit both
// point at — does not hold it, and the report does not change.
func TestRetainedOutcomeDropsMetrics(t *testing.T) {
	spec := testSpec("slim", 1)
	want, _ := referenceReport(t, spec)
	s, _ := testServer(t)
	first, err := s.submit(SubmitRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	w := s.register(RegisterRequest{})
	resp, err := s.leaseNext(LeaseRequest{WorkerID: w.WorkerID})
	if err != nil || resp.Job == nil {
		t.Fatalf("lease: %v %+v", err, resp)
	}
	res, _ := fakeExec(context.Background(), resp.Job.Params)
	res.Metrics = []byte(`{"stats":{}}`)
	if err := s.result(ResultRequest{
		WorkerID: w.WorkerID, LeaseID: resp.Job.LeaseID, CampaignID: resp.Job.CampaignID,
		Index: resp.Job.Index, Status: campaign.StatusRun, Result: res,
	}); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Cache.Get(res.Key); !ok || len(got.Metrics) == 0 {
		t.Fatalf("cache entry lost its metrics: %+v", got)
	}
	again, err := s.submit(SubmitRequest{Spec: spec})
	if err != nil || again.Cached != 1 {
		t.Fatalf("resubmission: %+v, %v; want one cache hit", again, err)
	}
	shared := s.campaigns[first.CampaignID].outcomes[0].Result
	if shared == nil || shared.Metrics != nil {
		t.Fatalf("campaign %s retains %+v", first.CampaignID, shared)
	}
	if kept := s.campaigns[again.CampaignID].outcomes[0].Result; kept != shared {
		t.Errorf("campaign %s holds its own copy of the result, not the shared record", again.CampaignID)
	}
	if got, ok := s.Cache.Get(res.Key); !ok || len(got.Metrics) == 0 {
		t.Fatalf("cache entry lost its metrics after the resubmission: %+v", got)
	}
	for _, id := range []string{first.CampaignID, again.CampaignID} {
		if got := reportOf(t, s, id); !bytes.Equal(got, want) {
			t.Errorf("campaign %s: report differs from the in-process run", id)
		}
	}
}

// TestConcurrentReportsOverSharedResults: reports of two campaigns that share
// every record are rendered over HTTP, outside the server lock, while a third
// campaign's results land and one of its points resolves to a shared record.
// The readers start together, so the first reports of the two campaigns race
// the report memo's first store and its keeping of the bytes; a third
// campaign of the same spec, admitted mid-read, is read from the memo. Every
// report stays byte-identical to the in-process run; the race detector checks
// that nothing writes what the readers share.
func TestConcurrentReportsOverSharedResults(t *testing.T) {
	spec := testSpec("shared-reads", 1, 2, 3, 4)
	want, _ := referenceReport(t, spec)
	s, _ := testServer(t)
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	cl := &Client{Server: hs.URL}
	worker := s.register(RegisterRequest{}).WorkerID

	var ids []string
	for range 2 {
		sub, err := s.submit(SubmitRequest{Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		completeAll(t, s, worker)
		ids = append(ids, sub.CampaignID)
	}
	if _, err := s.submit(SubmitRequest{Tenant: "bob", Spec: testSpec("landing", 4, 5, 6, 7, 8, 9)}); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	gate := make(chan struct{})
	read := func(id string) {
		defer wg.Done()
		<-gate
		// Every reader reads at least once: one that the scheduler starts
		// only after stop would otherwise leave a campaign unreported.
		for {
			got, err := cl.Report(context.Background(), id)
			if err != nil {
				t.Errorf("report %s: %v", id, err)
				return
			}
			if !bytes.Equal(got, want) {
				t.Errorf("report %s differs from the in-process run", id)
				return
			}
			if stop.Load() {
				return
			}
		}
	}
	for _, id := range ids {
		for range 2 {
			wg.Add(1)
			go read(id)
		}
	}
	close(gate)
	third, err := s.submit(SubmitRequest{Tenant: "carol", Spec: spec})
	if err != nil || third.Cached != third.Jobs {
		t.Fatalf("third submission: %+v, %v; want every point answered", third, err)
	}
	wg.Add(1)
	go read(third.CampaignID)
	completeAll(t, s, worker)
	stop.Store(true)
	wg.Wait()
	if got := reportOf(t, s, third.CampaignID); !bytes.Equal(got, want) {
		t.Errorf("report %s differs from the in-process run", third.CampaignID)
	}
	if memo := memoOf(s, spec); memo == nil || memo.doc == nil {
		t.Errorf("three campaigns of one spec reported, memo %+v holds no bytes", memo)
	}
}

// TestTenantQuotasFairness: two tenants saturate the fleet; quotas cap each
// tenant's concurrent leases, DRR keeps grants fair, and both campaigns'
// reports are byte-identical to their in-process runs.
func TestTenantQuotasFairness(t *testing.T) {
	specA := testSpec("tenant-a", 1, 2, 3, 4)
	specB := testSpec("tenant-b", 5, 6, 7, 8)
	wantA, _ := referenceReport(t, specA)
	wantB, _ := referenceReport(t, specB)

	s, _ := testServer(t)
	s.SetQuota("alice", 2)
	s.SetQuota("bob", 2)
	subA, err := s.submit(SubmitRequest{Tenant: "alice", Spec: specA})
	if err != nil {
		t.Fatal(err)
	}
	subB, err := s.submit(SubmitRequest{Tenant: "bob", Spec: specB})
	if err != nil {
		t.Fatal(err)
	}

	w := s.register(RegisterRequest{Name: "pool"})
	type granted struct {
		lj *LeasedJob
	}
	var held []granted
	inflight := map[string]int{}
	grants := map[string]int{}
	// Greedy lease-everything: the quota must stop each tenant at 2.
	for {
		resp, err := s.leaseNext(LeaseRequest{WorkerID: w.WorkerID})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Job == nil {
			break
		}
		held = append(held, granted{resp.Job})
		inflight[resp.Job.Tenant]++
		grants[resp.Job.Tenant]++
		if inflight[resp.Job.Tenant] > 2 {
			t.Fatalf("tenant %s exceeded its quota: %d in flight", resp.Job.Tenant, inflight[resp.Job.Tenant])
		}
	}
	if inflight["alice"] != 2 || inflight["bob"] != 2 {
		t.Fatalf("saturated fleet in-flight %v, want 2 per tenant", inflight)
	}
	// Complete held leases, re-leasing greedily after each, until done.
	for len(held) > 0 {
		g := held[0]
		held = held[1:]
		inflight[g.lj.Tenant]--
		res, _ := fakeExec(context.Background(), g.lj.Params)
		if err := s.result(ResultRequest{
			WorkerID: w.WorkerID, LeaseID: g.lj.LeaseID, CampaignID: g.lj.CampaignID,
			Index: g.lj.Index, Status: campaign.StatusRun, Result: res,
		}); err != nil {
			t.Fatal(err)
		}
		for {
			resp, err := s.leaseNext(LeaseRequest{WorkerID: w.WorkerID})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Job == nil {
				break
			}
			held = append(held, granted{resp.Job})
			inflight[resp.Job.Tenant]++
			grants[resp.Job.Tenant]++
			if inflight[resp.Job.Tenant] > 2 {
				t.Fatalf("tenant %s exceeded its quota mid-drain: %d", resp.Job.Tenant, inflight[resp.Job.Tenant])
			}
		}
	}
	if grants["alice"] != 4 || grants["bob"] != 4 {
		t.Fatalf("grants %v, want 4 per tenant", grants)
	}
	for id, want := range map[string][]byte{subA.CampaignID: wantA, subB.CampaignID: wantB} {
		if got := reportOf(t, s, id); !bytes.Equal(got, want) {
			t.Fatalf("campaign %s report differs from in-process run", id)
		}
	}
}

// leaseAll leases greedily as one fresh worker until the queue gives nothing
// more, and returns the grants per tenant.
func leaseAll(t *testing.T, s *Server) map[string]int {
	t.Helper()
	w := s.register(RegisterRequest{Name: "pool"})
	got := map[string]int{}
	for {
		resp, err := s.leaseNext(LeaseRequest{WorkerID: w.WorkerID})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Job == nil {
			return got
		}
		got[resp.Job.Tenant]++
	}
}

// TestExplicitZeroQuotaBeatsDefault: -quota alice=0 pins alice unlimited
// under -default-quota 2, at her first submit as at every later one.
func TestExplicitZeroQuotaBeatsDefault(t *testing.T) {
	s, _ := testServer(t)
	s.SetDefaultQuota(2)
	s.SetQuota("alice", 0)
	for _, tenant := range []string{"alice", "bob"} {
		if _, err := s.submit(SubmitRequest{Tenant: tenant, Spec: testSpec(tenant, 1, 2, 3, 4)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := leaseAll(t, s); got["alice"] != 4 || got["bob"] != 2 {
		t.Fatalf("in flight %v, want alice 4 (explicitly unlimited) and bob 2 (the default)", got)
	}
}

// TestRestoredTenantGetsDefaultQuota: a tenant whose campaign Load restored
// is held to the default quota before it submits anything to this boot.
func TestRestoredTenantGetsDefaultQuota(t *testing.T) {
	cacheDir, stateDir := t.TempDir(), t.TempDir()
	cache, err := campaign.OpenCache(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := loadedServer(t, cache, stateDir)
	if _, err := s1.submit(SubmitRequest{Tenant: "alice", Spec: testSpec("restored", 1, 2, 3, 4)}); err != nil {
		t.Fatal(err)
	}
	s2 := loadedServer(t, cache, stateDir)
	s2.SetDefaultQuota(2)
	if got := leaseAll(t, s2); got["alice"] != 2 {
		t.Fatalf("in flight %v after restart, want alice 2 (the default)", got)
	}
}

// TestCrossTenantCacheSharing: tenant B submits the same sweep tenant A
// already completed; every point answers from the shared cache at submit
// time and B's report is byte-identical to A's.
func TestCrossTenantCacheSharing(t *testing.T) {
	spec := testSpec("shared")
	s, _ := testServer(t)
	subA, err := s.submit(SubmitRequest{Tenant: "alice", Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	w := s.register(RegisterRequest{})
	completeAll(t, s, w.WorkerID)

	subB, err := s.submit(SubmitRequest{Tenant: "bob", Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if subB.Cached != subB.Jobs {
		t.Fatalf("tenant B: %d of %d cached, want all", subB.Cached, subB.Jobs)
	}
	a, b := reportOf(t, s, subA.CampaignID), reportOf(t, s, subB.CampaignID)
	if !bytes.Equal(a, b) {
		t.Fatal("cache-served campaign report differs from the executed one")
	}
}

// TestResultKeyMustMatchLease: the cache is content-addressed and shared by
// every tenant, so a worker holding one lease must not be able to write a
// result under another job's key. The forged delivery is a 400, the lease
// survives it (the honest result still lands), nothing reaches the cache
// under the victim's key, and the victim job later runs for real.
func TestResultKeyMustMatchLease(t *testing.T) {
	spec := testSpec("forged", 1, 2)
	want, _ := referenceReport(t, spec)
	s, _ := testServer(t)
	sub, err := s.submit(SubmitRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	w := s.register(RegisterRequest{})
	resp, err := s.leaseNext(LeaseRequest{WorkerID: w.WorkerID})
	if err != nil || resp.Job == nil {
		t.Fatalf("lease: %v %+v", err, resp)
	}
	lj := resp.Job
	victim := s.campaigns[sub.CampaignID].jobs[1-lj.Index].Params

	forged, _ := fakeExec(context.Background(), victim)
	forged.Cycles = 1
	deliver := func(res *campaign.Result) error {
		return s.result(ResultRequest{
			WorkerID: w.WorkerID, LeaseID: lj.LeaseID, CampaignID: lj.CampaignID,
			Index: lj.Index, Status: campaign.StatusRun, Result: res,
		})
	}
	if err := deliver(forged); err == nil || httpStatus(err) != http.StatusBadRequest {
		t.Errorf("result under another job's key: got %v, want a 400", err)
	}
	if got, ok := s.Cache.Get(victim.Key()); ok {
		t.Fatalf("forged result served from the shared cache: %+v", got)
	}
	victimSub, err := s.submit(SubmitRequest{Tenant: "victim", Spec: testSpec("victim", victim.Seed)})
	if err != nil {
		t.Fatal(err)
	}
	if victimSub.Cached != 0 || s.campaigns[victimSub.CampaignID].jobs[0].Params.Key() != victim.Key() {
		t.Fatalf("victim's resubmission: %+v; want its one point a cache miss", victimSub)
	}
	honest, _ := fakeExec(context.Background(), lj.Params)
	if err := deliver(honest); err != nil {
		t.Fatalf("honest result after the refused one: %v (the refusal consumed the lease)", err)
	}
	completeAll(t, s, w.WorkerID)
	if got := reportOf(t, s, sub.CampaignID); !bytes.Equal(got, want) {
		t.Fatalf("report differs from the in-process run\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestRunWithoutResultKeepsTheLease: a worker that reports a run but sends
// no result is refused before its lease is consumed, so the lease expires as
// any abandoned one does, the job re-queues, and both tenants' campaigns
// complete with the in-process reports.
func TestRunWithoutResultKeepsTheLease(t *testing.T) {
	specA, specB := testSpec("nil-a", 1, 2), testSpec("nil-b", 3, 4)
	wantA, _ := referenceReport(t, specA)
	wantB, _ := referenceReport(t, specB)
	s, clock := testServer(t)
	subA, err := s.submit(SubmitRequest{Tenant: "alice", Spec: specA})
	if err != nil {
		t.Fatal(err)
	}
	subB, err := s.submit(SubmitRequest{Tenant: "bob", Spec: specB})
	if err != nil {
		t.Fatal(err)
	}
	bad := s.register(RegisterRequest{Name: "bad"})
	resp, err := s.leaseNext(LeaseRequest{WorkerID: bad.WorkerID})
	if err != nil || resp.Job == nil {
		t.Fatalf("lease: %v %+v", err, resp)
	}
	lj := resp.Job
	err = s.result(ResultRequest{
		WorkerID: bad.WorkerID, LeaseID: lj.LeaseID, CampaignID: lj.CampaignID,
		Index: lj.Index, Status: campaign.StatusRun,
	})
	if err == nil || httpStatus(err) != http.StatusBadRequest {
		t.Fatalf("run status without a result: got %v, want a 400", err)
	}
	if st, _ := s.campaignStatus(lj.CampaignID); st.InFlight != 1 {
		t.Fatalf("after the refused delivery: %+v; want the job still in flight", st)
	}

	*clock = clock.Add(s.LeaseTTL + time.Second)
	good := s.register(RegisterRequest{Name: "good"})
	completeAll(t, s, good.WorkerID)
	for _, c := range []struct {
		id   string
		want []byte
	}{{subA.CampaignID, wantA}, {subB.CampaignID, wantB}} {
		if st, _ := s.campaignStatus(c.id); !st.Complete || st.Done != st.Total {
			t.Fatalf("campaign %s after the healthy worker drained the queue: %+v", c.id, st)
		}
		if got := reportOf(t, s, c.id); !bytes.Equal(got, c.want) {
			t.Fatalf("campaign %s report differs from the in-process run\ngot:\n%s\nwant:\n%s", c.id, got, c.want)
		}
	}
}

// TestServerRestartPersistence: the server dies mid-campaign; a new one
// over the same StateDir and cache resumes — completed jobs stay completed,
// the rest re-queue — and the final report matches the in-process run.
func TestServerRestartPersistence(t *testing.T) {
	spec := testSpec("restart")
	want, _ := referenceReport(t, spec)

	cacheDir, stateDir := t.TempDir(), t.TempDir()
	cache, err := campaign.OpenCache(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(cache)
	s1.StateDir = stateDir
	if err := s1.Load(); err != nil {
		t.Fatal(err)
	}
	sub, err := s1.submit(SubmitRequest{Tenant: "alice", Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	// Complete two jobs, leave one leased (in flight at crash time), one queued.
	w := s1.register(RegisterRequest{})
	for i := 0; i < 2; i++ {
		resp, err := s1.leaseNext(LeaseRequest{WorkerID: w.WorkerID})
		if err != nil || resp.Job == nil {
			t.Fatalf("lease %d: %v", i, err)
		}
		res, _ := fakeExec(context.Background(), resp.Job.Params)
		if err := s1.result(ResultRequest{
			WorkerID: w.WorkerID, LeaseID: resp.Job.LeaseID, CampaignID: resp.Job.CampaignID,
			Index: resp.Job.Index, Status: campaign.StatusRun, Result: res,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s1.leaseNext(LeaseRequest{WorkerID: w.WorkerID}); err != nil {
		t.Fatal(err)
	}
	// Server crashes here: s1 is abandoned, leases and queue state lost.

	cache2, err := campaign.OpenCache(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(cache2)
	s2.StateDir = stateDir
	if err := s2.Load(); err != nil {
		t.Fatal(err)
	}
	st, err := s2.campaignStatus(sub.CampaignID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 2 || st.Pending != 2 || st.Complete {
		t.Fatalf("restored status %+v, want 2 done, 2 re-queued", st)
	}
	w2 := s2.register(RegisterRequest{})
	completeAll(t, s2, w2.WorkerID)
	if got := reportOf(t, s2, sub.CampaignID); !bytes.Equal(got, want) {
		t.Fatalf("post-restart report differs from in-process run\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestEndToEndWorkersOverHTTP is the full transport path: a real HTTP
// server, two real Worker loops, one killed mid-job (context cancel, no
// goodbye), short TTL so its lease expires and the survivor picks the job
// up — final report byte-identical to the in-process run.
func TestEndToEndWorkersOverHTTP(t *testing.T) {
	spec := testSpec("e2e")
	want, wantCSV := referenceReport(t, spec)

	cache, err := campaign.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := New(cache)
	s.LeaseTTL = 500 * time.Millisecond
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cl := &Client{Server: ts.URL}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sub, err := cl.Submit(ctx, "alice", 0, spec)
	if err != nil {
		t.Fatal(err)
	}

	// Worker 1 hangs on its first job until killed: its exec blocks, its
	// heartbeats keep the lease alive, then the kill (context cancel)
	// silences it and the lease expires.
	w1ctx, killW1 := context.WithCancel(ctx)
	var wg sync.WaitGroup
	var w1got atomic.Bool
	w1 := &Worker{
		Server: ts.URL,
		Name:   "doomed",
		Poll:   20 * time.Millisecond,
		Exec: func(jctx context.Context, p campaign.Params) (*campaign.Result, error) {
			w1got.Store(true)
			<-jctx.Done() // hang until killed
			return nil, jctx.Err()
		},
	}
	wg.Add(1)
	go func() { defer wg.Done(); w1.Run(w1ctx) }()
	// Wait until worker 1 holds a job, then kill it mid-lease.
	for !w1got.Load() && ctx.Err() == nil {
		time.Sleep(5 * time.Millisecond)
	}
	killW1()

	w2 := &Worker{Server: ts.URL, Name: "survivor", Poll: 20 * time.Millisecond, Exec: fakeExec}
	wg.Add(1)
	go func() { defer wg.Done(); w2.Run(ctx) }()

	st, err := cl.Wait(ctx, sub.CampaignID, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Complete || st.Failed != 0 {
		t.Fatalf("final status %+v", st)
	}
	got, err := cl.Report(ctx, sub.CampaignID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fleet report differs from in-process run\nfleet:\n%s\nin-process:\n%s", got, want)
	}
	gotCSV, err := cl.ReportCSV(ctx, sub.CampaignID)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotCSV) != wantCSV {
		t.Fatal("fleet CSV differs from in-process run")
	}
	cancel()
	wg.Wait()
}

// postLog records the JSON bodies of every request to one API path before
// handing the request on to the server, so a test can see what its workers
// sent.
type postLog struct {
	path string
	next http.Handler

	mu     sync.Mutex
	bodies [][]byte
}

func (l *postLog) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == l.path {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		l.mu.Lock()
		l.bodies = append(l.bodies, body)
		l.mu.Unlock()
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	l.next.ServeHTTP(w, r)
}

// leaseIDs decodes the lease_id of every recorded body.
func (l *postLog) leaseIDs(t *testing.T) []string {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	var ids []string
	for _, b := range l.bodies {
		var req struct {
			LeaseID string `json:"lease_id"`
		}
		if err := json.Unmarshal(b, &req); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, req.LeaseID)
	}
	return ids
}

// TestHeartbeatsKeepALongJobLeased: over real HTTP, with a short lease TTL
// and one job that runs for several TTLs, the worker's heartbeats keep the
// lease alive. A second worker polls all along, so an expired lease would
// be re-queued and the job run twice; instead every job runs once and the
// report is byte-identical to the in-process run.
func TestHeartbeatsKeepALongJobLeased(t *testing.T) {
	spec := testSpec("heartbeat")
	want, _ := referenceReport(t, spec)

	cache, err := campaign.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := New(cache)
	// Heartbeats go out every TTL/3: a beat may run up to two intervals
	// late before the lease lapses.
	s.LeaseTTL = 600 * time.Millisecond
	beats := &postLog{path: "/api/workers/heartbeat", next: s.Handler()}
	ts := httptest.NewServer(beats)
	defer ts.Close()

	var mu sync.Mutex
	runs := map[uint64]int{}
	exec := func(jctx context.Context, p campaign.Params) (*campaign.Result, error) {
		mu.Lock()
		runs[p.Seed]++
		mu.Unlock()
		if p.Seed == 1 {
			select {
			case <-time.After(4 * s.LeaseTTL):
			case <-jctx.Done():
				return nil, jctx.Err()
			}
		}
		return fakeExec(jctx, p)
	}

	cl := &Client{Server: ts.URL}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	sub, err := cl.Submit(ctx, "alice", 0, spec)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, name := range []string{"a", "b"} {
		w := &Worker{Server: ts.URL, Name: name, Poll: 20 * time.Millisecond, Exec: exec}
		wg.Add(1)
		go func() { defer wg.Done(); w.Run(ctx) }()
	}
	st, err := cl.Wait(ctx, sub.CampaignID, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	wg.Wait()

	if !st.Complete || st.Failed != 0 {
		t.Fatalf("final status %+v", st)
	}
	if n := len(beats.leaseIDs(t)); n < 3 {
		t.Errorf("%d heartbeats during a job of four TTLs, want at least 3", n)
	}
	for _, seed := range spec.Seeds {
		if runs[seed] != 1 {
			t.Errorf("seed %d ran %d times, want once (runs: %v)", seed, runs[seed], runs)
		}
	}
	got, err := cl.Report(context.Background(), sub.CampaignID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fleet report differs from in-process run\nfleet:\n%s\nin-process:\n%s", got, want)
	}
}

// TestStaleHeartbeatAbandonsTheJob: the server's clock steps past a running
// lease's deadline, so the worker's next heartbeat is answered 409. The
// worker cancels the job and delivers no result for that lease; once it is
// gone, a second worker completes the campaign, byte-identical to the
// in-process run.
func TestStaleHeartbeatAbandonsTheJob(t *testing.T) {
	spec := testSpec("stale")
	want, _ := referenceReport(t, spec)

	cache, err := campaign.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := New(cache)
	// Heartbeats go out every TTL/3: a beat may run up to two intervals
	// late before the lease lapses on its own.
	s.LeaseTTL = 300 * time.Millisecond
	var skew atomic.Int64 // the server's clock runs this far ahead of real time
	s.now = func() time.Time { return time.Now().Add(time.Duration(skew.Load())) }
	results := &postLog{path: "/api/workers/result", next: s.Handler()}
	ts := httptest.NewServer(results)
	defer ts.Close()

	cl := &Client{Server: ts.URL}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	sub, err := cl.Submit(ctx, "alice", 0, spec)
	if err != nil {
		t.Fatal(err)
	}

	// Worker 1's jobs hang until cancelled. The first cancellation can only
	// come from the stale heartbeat: its own context is still live then.
	started, cancelled := make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	var logMu sync.Mutex
	var logged []string
	w1ctx, killW1 := context.WithCancel(ctx)
	w1 := &Worker{
		Server: ts.URL,
		Name:   "stale",
		Poll:   20 * time.Millisecond,
		Exec: func(jctx context.Context, p campaign.Params) (*campaign.Result, error) {
			first := calls.Add(1) == 1
			if first {
				close(started)
			}
			<-jctx.Done()
			if first {
				close(cancelled)
			}
			return nil, jctx.Err()
		},
		Log: func(format string, args ...any) {
			logMu.Lock()
			logged = append(logged, fmt.Sprintf(format, args...))
			logMu.Unlock()
		},
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); w1.Run(w1ctx) }()
	select {
	case <-started:
	case <-ctx.Done():
		t.Fatal("worker 1 never started a job")
	}
	skew.Add(int64(10 * s.LeaseTTL))
	select {
	case <-cancelled:
	case <-ctx.Done():
		t.Fatal("worker 1 kept running a job whose lease expired")
	}
	// A job worker 1 leased again before dying is re-queued when that
	// lease lapses.
	killW1()
	wg.Wait()

	var stale string
	logMu.Lock()
	for _, line := range logged {
		if id, ok := strings.CutSuffix(line, ": gone stale, abandoning job"); ok {
			stale = strings.TrimPrefix(id, "lease ")
		}
	}
	logMu.Unlock()
	if stale == "" {
		t.Fatalf("worker 1 never logged abandoning a stale lease: %q", logged)
	}

	w2 := &Worker{Server: ts.URL, Name: "survivor", Poll: 20 * time.Millisecond, Exec: fakeExec}
	wg.Add(1)
	go func() { defer wg.Done(); w2.Run(ctx) }()
	st, err := cl.Wait(ctx, sub.CampaignID, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	wg.Wait()

	if !st.Complete || st.Failed != 0 {
		t.Fatalf("final status %+v", st)
	}
	if slices.Contains(results.leaseIDs(t), stale) {
		t.Errorf("worker 1 delivered a result for its stale lease %s", stale)
	}
	got, err := cl.Report(context.Background(), sub.CampaignID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fleet report differs from in-process run\nfleet:\n%s\nin-process:\n%s", got, want)
	}
}

// TestOversizeBodyRefused: the server is shared, so a request body is read
// only up to maxBodyBytes. A tenant streaming more than that at POST
// /api/campaigns gets 413 with a JSON error while another tenant's campaign
// runs to completion through the same server, byte-identical to the
// in-process run — and a legitimate result of exactly the maximum size
// still lands, one byte more does not.
func TestOversizeBodyRefused(t *testing.T) {
	spec := testSpec("bystander")
	want, _ := referenceReport(t, spec)

	// serve starts a server over a cache of its own.
	serve := func() *httptest.Server {
		t.Helper()
		cache, err := campaign.OpenCache(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(New(cache).Handler())
		t.Cleanup(ts.Close)
		return ts
	}
	ts := serve()
	cl := &Client{Server: ts.URL}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	post := func(path string, body io.Reader) (int, string, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header.Get("Content-Type"), msg
	}

	// The bystander's campaign is in flight, on a slow worker, while the
	// oversize submit arrives.
	sub, err := cl.Submit(ctx, "bob", 0, spec)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	w := &Worker{Server: ts.URL, Name: "w", Poll: 5 * time.Millisecond,
		Exec: func(ctx context.Context, p campaign.Params) (*campaign.Result, error) {
			time.Sleep(20 * time.Millisecond)
			return fakeExec(ctx, p)
		}}
	wctx, stopWorker := context.WithCancel(ctx)
	wg.Add(1)
	go func() { defer wg.Done(); w.Run(wctx) }()

	// One JSON string that never ends within the limit: the decoder has to
	// keep reading, so only the bound stops it.
	huge := io.MultiReader(
		strings.NewReader(`{"tenant":"mallory","spec":{"name":"`),
		io.LimitReader(zeros{}, 2*maxBodyBytes),
		strings.NewReader(`"}}`))
	code, ctype, msg := post("/api/campaigns", huge)
	var refusal struct {
		Error string `json:"error"`
		Limit int64  `json:"limit_bytes"`
	}
	if code != http.StatusRequestEntityTooLarge || ctype != "application/json" ||
		json.Unmarshal(msg, &refusal) != nil || refusal.Error == "" || refusal.Limit != maxBodyBytes {
		t.Fatalf("oversize submit: status %d, content type %q, body %q", code, ctype, msg)
	}

	st, err := cl.Wait(ctx, sub.CampaignID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Complete || st.Failed != 0 {
		t.Fatalf("bystander's campaign after the oversize submit: %+v", st)
	}
	got, err := cl.Report(ctx, sub.CampaignID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("bystander's report differs from the in-process run\nfleet:\n%s\nin-process:\n%s", got, want)
	}
	if fs, err := cl.FleetStatus(ctx); err != nil || len(fs.Campaigns) != 1 {
		t.Fatalf("fleet status after the refusal: %+v, %v (the refused campaign must not exist)", fs, err)
	}
	stopWorker()
	wg.Wait()

	// A result padded to the limit, to the byte, by its metrics document —
	// on a server of its own: a lease request the stopped worker left in
	// flight must not take the job from the hand-made lease below.
	ts = serve()
	cl = &Client{Server: ts.URL}
	big, err := cl.Submit(ctx, "carol", 0, testSpec("big-result", 9))
	if err != nil {
		t.Fatal(err)
	}
	reg, err := cl.register(ctx, RegisterRequest{Name: "by-hand"})
	if err != nil {
		t.Fatal(err)
	}
	lease, err := cl.lease(ctx, LeaseRequest{WorkerID: reg.WorkerID})
	if err != nil || lease.Job == nil {
		t.Fatalf("lease: %+v, %v", lease, err)
	}
	res, _ := fakeExec(ctx, lease.Job.Params)
	req := ResultRequest{WorkerID: reg.WorkerID, LeaseID: lease.Job.LeaseID,
		CampaignID: lease.Job.CampaignID, Index: lease.Job.Index, Status: campaign.StatusRun, Result: res}
	body := func(size int) []byte {
		t.Helper()
		res.Metrics = json.RawMessage(`""`)
		empty, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		res.Metrics = json.RawMessage(`"` + strings.Repeat("m", size-len(empty)) + `"`)
		doc, err := json.Marshal(req)
		if err != nil || len(doc) != size {
			t.Fatalf("padded result is %d bytes, want %d (%v)", len(doc), size, err)
		}
		return doc
	}
	if code, _, msg := post("/api/workers/result", bytes.NewReader(body(maxBodyBytes+1))); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("result one byte over the limit: status %d, body %q", code, msg)
	}
	if code, _, msg := post("/api/workers/result", bytes.NewReader(body(maxBodyBytes))); code != http.StatusOK {
		t.Fatalf("result of exactly the limit: status %d, body %q", code, msg)
	}
	if st, err := cl.Campaign(ctx, big.CampaignID); err != nil || !st.Complete || st.Done != 1 {
		t.Fatalf("campaign after the maximum-size result: %+v, %v", st, err)
	}
}

// TestOversizeSpecRefused: a spec is sized before it is expanded. A body of
// a few KB whose ten axes multiply to 10^20 points gets 400 naming the
// count — the server does not try to build the grid — and the server
// answers the next request with no campaign created.
func TestOversizeSpecRefused(t *testing.T) {
	cache, err := campaign.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(cache).Handler())
	defer ts.Close()

	// Zero-valued entries: sizing comes before validating any of them.
	spec := campaign.Spec{
		Name:      "huge",
		Workloads: make([]string, 100), Shapes: make([]string, 100), Homing: make([]string, 100),
		NUMA: make([]bool, 100), Threads: make([]int, 100), ActiveNodes: make([]int, 100),
		Credits: make([]int, 100), ExtraLatency: make([]uint64, 100),
		Faults: make([]string, 100), Seeds: make([]uint64, 100),
	}
	body, err := json.Marshal(SubmitRequest{Tenant: "mallory", Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/api/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "100000000000000000000 points") {
		t.Fatalf("10^20-point submit (%d-byte body): status %d, body %q", len(body), resp.StatusCode, msg)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if fs, err := (&Client{Server: ts.URL}).FleetStatus(ctx); err != nil || len(fs.Campaigns) != 0 {
		t.Fatalf("fleet status after the refusal: %+v, %v", fs, err)
	}
}

// TestSubmitRefusesBadPolicy: a submit naming a field the spec no longer has
// (retries) or a timeout no time.Duration holds is a 400, and nothing is
// admitted.
func TestSubmitRefusesBadPolicy(t *testing.T) {
	cache, err := campaign.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(cache).Handler())
	defer ts.Close()
	for _, policy := range []string{
		`"shapes":["1x1x2"],"retries":1`, `"shapes":["1x1x2"],"timeout_sec":1e10`, `"shapes":["1x1x2"],"timeout_sec":-1`,
		`"shapes":["1x5x2"]`, `"shapes":["1x1x2"],"threads":[-3]`,
	} {
		body := `{"tenant":"alice","spec":{"name":"x","workloads":["is"],` + policy + `}}`
		resp, err := http.Post(ts.URL+"/api/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit with %s: status %d, body %q; want 400", policy, resp.StatusCode, msg)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if fs, err := (&Client{Server: ts.URL}).FleetStatus(ctx); err != nil || len(fs.Campaigns) != 0 {
		t.Fatalf("fleet status after the refusals: %+v, %v", fs, err)
	}
}

// zeros reads as an endless run of '0' characters.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = '0'
	}
	return len(p), nil
}
