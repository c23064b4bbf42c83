package fleetsrv

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smappic/internal/campaign"
)

// loadedServer is a server over cache that has restored stateDir — what a
// restarted smappic-fleetd -state is.
func loadedServer(t *testing.T, cache *campaign.Cache, stateDir string) *Server {
	t.Helper()
	s := New(cache)
	s.StateDir = stateDir
	if err := s.Load(); err != nil {
		t.Fatalf("Load: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestWorkersSurviveServerRestart: workers are not persisted, so a restarted
// server answers the survivors' next lease with 404 unknown worker. They must
// register again on their own: the server goes away mid-campaign with both
// workers holding a job, a new one comes up over the same state, cache and
// address, and the campaign completes with nobody touching the workers —
// report byte-identical to the in-process run.
func TestWorkersSurviveServerRestart(t *testing.T) {
	spec := testSpec("survivors", 1, 2, 3, 4, 5, 6)
	want, _ := referenceReport(t, spec)

	stateDir := t.TempDir()
	cache, err := campaign.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s1 := loadedServer(t, cache, stateDir)
	s1.LeaseTTL = 500 * time.Millisecond
	addr, err := s1.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	cl := &Client{Server: "http://" + addr}
	sub, err := cl.Submit(ctx, "alice", 0, spec)
	if err != nil {
		t.Fatal(err)
	}

	// The first two jobs run straight through; every later one holds its
	// worker until the second server is up.
	var started atomic.Int32
	restarted := make(chan struct{})
	exec := func(jctx context.Context, p campaign.Params) (*campaign.Result, error) {
		if started.Add(1) > 2 {
			select {
			case <-restarted:
			case <-jctx.Done():
				return nil, jctx.Err()
			}
		}
		return fakeExec(jctx, p)
	}
	var wg sync.WaitGroup
	for _, name := range []string{"a", "b"} {
		w := &Worker{Server: cl.Server, Name: name, Poll: 10 * time.Millisecond, Exec: exec}
		wg.Add(1)
		go func() { defer wg.Done(); w.Run(ctx) }()
	}
	for started.Load() < 4 && ctx.Err() == nil {
		time.Sleep(5 * time.Millisecond)
	}
	if st, err := s1.campaignStatus(sub.CampaignID); err != nil || st.Done != 2 || st.InFlight != 2 {
		t.Fatalf("before the restart: %+v, %v; want 2 done, 2 in flight", st, err)
	}
	s1.Close()

	s2 := loadedServer(t, cache, stateDir)
	s2.LeaseTTL = 500 * time.Millisecond
	if _, err := s2.Start(addr); err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	close(restarted)

	st, err := cl.Wait(ctx, sub.CampaignID, 20*time.Millisecond)
	if err != nil {
		t.Fatalf("campaign did not complete on the restarted server: %v (last status %+v)", err, st)
	}
	if !st.Complete || st.Failed != 0 {
		t.Fatalf("final status %+v", st)
	}
	got, err := cl.Report(ctx, sub.CampaignID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("report after the restart differs from the in-process run\nfleet:\n%s\nin-process:\n%s", got, want)
	}
	cancel()
	wg.Wait()
}

// TestIDsFromThePreviousBootNeverMatch: worker and lease counters restart
// with the server, so the first worker to register after a restart would be
// handed the very IDs a survivor of the previous boot still holds. The
// per-boot epoch keeps them apart: a survivor that speaks under its old IDs
// after someone else has re-registered is told 404 / 409 — it never extends,
// or delivers into, the newcomer's lease.
func TestIDsFromThePreviousBootNeverMatch(t *testing.T) {
	spec := testSpec("epochs", 1, 2)
	want, _ := referenceReport(t, spec)
	stateDir := t.TempDir()
	cache, err := campaign.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s1 := loadedServer(t, cache, stateDir)
	s1.epoch = "a"
	sub, err := s1.submit(SubmitRequest{Tenant: "alice", Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	survivor := s1.register(RegisterRequest{Name: "survivor"}).WorkerID
	held, err := s1.leaseNext(LeaseRequest{WorkerID: survivor})
	if err != nil || held.Job == nil {
		t.Fatalf("lease before the restart: %v %+v", err, held)
	}
	if survivor != "wa-001" || held.Job.LeaseID != "la-000001" {
		t.Fatalf("IDs %q / %q do not carry the boot's epoch", survivor, held.Job.LeaseID)
	}

	s2 := loadedServer(t, cache, stateDir)
	s2.epoch = "b"
	newcomer := s2.register(RegisterRequest{Name: "newcomer"}).WorkerID
	granted, err := s2.leaseNext(LeaseRequest{WorkerID: newcomer})
	if err != nil || granted.Job == nil {
		t.Fatalf("lease after the restart: %v %+v", err, granted)
	}
	if newcomer == survivor || granted.Job.LeaseID == held.Job.LeaseID {
		t.Fatalf("the restarted server reissued the survivor's IDs: worker %q, lease %q", newcomer, granted.Job.LeaseID)
	}

	if _, err := s2.leaseNext(LeaseRequest{WorkerID: survivor}); httpStatus(err) != http.StatusNotFound {
		t.Errorf("survivor's lease request: %v, want a 404", err)
	}
	if err := s2.heartbeat(HeartbeatRequest{WorkerID: survivor, LeaseID: held.Job.LeaseID}); httpStatus(err) != http.StatusConflict {
		t.Errorf("survivor's heartbeat: %v, want a 409", err)
	}
	res, _ := fakeExec(context.Background(), held.Job.Params)
	if err := s2.result(ResultRequest{
		WorkerID: survivor, LeaseID: held.Job.LeaseID, CampaignID: held.Job.CampaignID,
		Index: held.Job.Index, Status: campaign.StatusRun, Result: res,
	}); httpStatus(err) != http.StatusConflict {
		t.Errorf("survivor's result: %v, want a 409", err)
	}
	if st, err := s2.campaignStatus(sub.CampaignID); err != nil || st.Done != 0 || st.InFlight != 1 {
		t.Fatalf("after the survivor spoke: %+v, %v; want the newcomer's lease alone in flight", st, err)
	}

	res, _ = fakeExec(context.Background(), granted.Job.Params)
	if err := s2.result(ResultRequest{
		WorkerID: newcomer, LeaseID: granted.Job.LeaseID, CampaignID: granted.Job.CampaignID,
		Index: granted.Job.Index, Status: campaign.StatusRun, Result: res,
	}); err != nil {
		t.Fatalf("newcomer's result: %v", err)
	}
	completeAll(t, s2, newcomer)
	if got := reportOf(t, s2, sub.CampaignID); !bytes.Equal(got, want) {
		t.Fatalf("report differs from the in-process run\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestLoadSurvivesJournalTornAtEveryOffset: whatever a crash or a bad disk
// left of a campaign's failure journal — any prefix, or a corrupted line in
// the middle — Load restores exactly the failures whose records are whole,
// re-queues the rest, and the finished campaign serves the reference report.
// What the restored server then appends to the damaged file survives a
// further restart too.
func TestLoadSurvivesJournalTornAtEveryOffset(t *testing.T) {
	spec := testSpec("torn")
	fail := failingExec(1, 2, 3, 4)
	want, _ := referenceReportWith(t, spec, fail)

	cache, err := campaign.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stateDir := t.TempDir()
	s := loadedServer(t, cache, stateDir)
	sub, err := s.submit(SubmitRequest{Tenant: "alice", Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	deliverAll(t, s, s.register(RegisterRequest{}).WorkerID, fail)
	record, err := os.ReadFile(filepath.Join(stateDir, submissionJournal))
	if err != nil {
		t.Fatal(err)
	}
	journal, err := os.ReadFile(filepath.Join(stateDir, sub.CampaignID+".outcomes.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(journal, []byte("\n"))
	if lines = lines[:len(lines)-1]; len(lines) != 4 { // every record ends in a newline
		t.Fatalf("journal of a 4-point campaign that failed has %d lines:\n%s", len(lines), journal)
	}

	check := func(name string, damaged []byte, whole int) {
		t.Helper()
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, submissionJournal), record, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, sub.CampaignID+".outcomes.jsonl"), damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		s := loadedServer(t, cache, dir)
		st, err := s.campaignStatus(sub.CampaignID)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.Failed != whole || st.Pending != 4-whole || st.Done != 0 || st.InFlight != 0 {
			t.Fatalf("%s: restored %+v, want %d failed and %d re-queued", name, st, whole, 4-whole)
		}
		deliverAll(t, s, s.register(RegisterRequest{}).WorkerID, fail)
		if got := reportOf(t, s, sub.CampaignID); !bytes.Equal(got, want) {
			t.Fatalf("%s: report differs from the in-process run\ngot:\n%s\nwant:\n%s", name, got, want)
		}
		again, err := loadedServer(t, cache, dir).campaignStatus(sub.CampaignID)
		if err != nil || !again.Complete || again.Failed != 4 {
			t.Fatalf("%s: a second restart restored %+v, %v; want the 4 failures the first one completed", name, again, err)
		}
	}
	for n := 0; n <= len(journal); n++ {
		// A record is whole once its closing brace is there; the newline
		// after it is not part of it.
		whole, end := 0, 0
		for _, line := range lines {
			if end += len(line); n >= end-1 {
				whole++
			}
		}
		check(fmt.Sprintf("prefix of %d bytes", n), journal[:n], whole)
	}
	corrupt := bytes.Join([][]byte{lines[0], []byte("{\"index\":1,\"sta\x00\xff}}\n"), lines[2], lines[3]}, nil)
	check("corrupted second line", corrupt, 3)
}

// TestJournalHoldsOnlyFailures: the cache is the record of a completed job,
// so a campaign with no failure leaves no outcome journal, one with k
// failures leaves exactly k lines, and a resubmission the cache answers in
// full writes nothing but its line of the submission journal.
func TestJournalHoldsOnlyFailures(t *testing.T) {
	cache, err := campaign.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stateDir := t.TempDir()
	s := loadedServer(t, cache, stateDir)
	worker := s.register(RegisterRequest{}).WorkerID
	for _, c := range []struct {
		spec campaign.Spec
		exec func(context.Context, campaign.Params) (*campaign.Result, error)
	}{
		{testSpec("clean", 1, 2, 3, 4), fakeExec},
		{testSpec("flaky", 5, 6, 7, 8), failingExec(6, 8)},
		{testSpec("clean", 1, 2, 3, 4), nil}, // every point a cache hit
	} {
		sub, err := s.submit(SubmitRequest{Tenant: "alice", Spec: c.spec})
		if err != nil {
			t.Fatal(err)
		}
		if c.exec != nil {
			deliverAll(t, s, worker, c.exec)
		}
		if st, err := s.campaignStatus(sub.CampaignID); err != nil || !st.Complete {
			t.Fatalf("campaign %s: %+v, %v; want it complete", sub.CampaignID, st, err)
		}
	}
	entries, err := os.ReadDir(stateDir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := "c0002.outcomes.jsonl campaigns.jsonl"; strings.Join(names, " ") != want {
		t.Fatalf("state dir holds %q, want %q", names, want)
	}
	journal, err := os.ReadFile(filepath.Join(stateDir, "c0002.outcomes.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(journal, []byte("\n")); n != 2 || bytes.Count(journal, []byte(`"status":"failed"`)) != 2 {
		t.Fatalf("journal of a campaign with 2 failures has %d lines:\n%s", n, journal)
	}
}

// TestResultCachedWhileDownIsDoneAtLoad: a job's result that reached the
// shared cache while the server was down — a worker finishing after the
// crash, or another process's campaign — is the job's answer: the restored
// campaign shows it done right after Load, with no lease granted.
func TestResultCachedWhileDownIsDoneAtLoad(t *testing.T) {
	spec := testSpec("down")
	want, _ := referenceReport(t, spec)
	cache, err := campaign.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stateDir := t.TempDir()
	sub, err := loadedServer(t, cache, stateDir).submit(SubmitRequest{Tenant: "alice", Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	res, _ := fakeExec(context.Background(), jobs[2].Params)
	if err := cache.Put(res); err != nil {
		t.Fatal(err)
	}

	s := loadedServer(t, cache, stateDir)
	if st, err := s.campaignStatus(sub.CampaignID); err != nil || st.Done != 1 || st.Pending != 3 || st.InFlight != 0 {
		t.Fatalf("restored %+v, %v; want the cached job done and 3 pending", st, err)
	}
	if got := s.campaigns[sub.CampaignID].outcomes[2].Status; got != campaign.StatusCached {
		t.Fatalf("job 2 restored as %q, want %q", got, campaign.StatusCached)
	}
	completeAll(t, s, s.register(RegisterRequest{}).WorkerID)
	if got := reportOf(t, s, sub.CampaignID); !bytes.Equal(got, want) {
		t.Fatalf("report differs from the in-process run\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestResubmissionReadsNoCacheEntry: the server decodes a key's cache entry
// once. With every entry on disk overwritten by garbage, a resubmission of a
// completed spec is still answered in full from the server's records, byte
// for byte. A restarted server has no records: after Load it reads the
// entries, finds them corrupt, re-queues the jobs, and completing them puts
// the entries back.
func TestResubmissionReadsNoCacheEntry(t *testing.T) {
	spec := testSpec("decoded-once")
	want, _ := referenceReport(t, spec)
	cacheDir, stateDir := t.TempDir(), t.TempDir()
	cache, err := campaign.OpenCache(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	s := loadedServer(t, cache, stateDir)
	first, err := s.submit(SubmitRequest{Tenant: "alice", Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	completeAll(t, s, s.register(RegisterRequest{}).WorkerID)
	firstReport := reportOf(t, s, first.CampaignID)

	entries, err := filepath.Glob(filepath.Join(cacheDir, "*.json"))
	if err != nil || len(entries) != first.Jobs {
		t.Fatalf("cache holds %d entries (%v), want %d", len(entries), err, first.Jobs)
	}
	for _, path := range entries {
		if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	again, err := s.submit(SubmitRequest{Tenant: "bob", Spec: spec})
	if err != nil || again.Cached != again.Jobs {
		t.Fatalf("resubmission: %+v, %v; want every point answered", again, err)
	}
	if got := reportOf(t, s, again.CampaignID); !bytes.Equal(got, firstReport) || !bytes.Equal(got, want) {
		t.Fatalf("resubmission report differs from the first and the in-process run\ngot:\n%s\nwant:\n%s", got, want)
	}

	restarted := loadedServer(t, cache, stateDir)
	for _, id := range []string{first.CampaignID, again.CampaignID} {
		if st, err := restarted.campaignStatus(id); err != nil || st.Done != 0 || st.Pending != len(entries) {
			t.Fatalf("restored %s: %+v, %v; want every corrupt entry a miss and its job re-queued", id, st, err)
		}
	}
	completeAll(t, restarted, restarted.register(RegisterRequest{}).WorkerID)
	for _, job := range restarted.campaigns[first.CampaignID].jobs {
		if _, ok := cache.Get(job.Params.Key()); !ok {
			t.Errorf("job %d: completing it did not put its entry back", job.Index)
		}
	}
	for _, id := range []string{first.CampaignID, again.CampaignID} {
		if got := reportOf(t, restarted, id); !bytes.Equal(got, want) {
			t.Errorf("campaign %s after restart: report differs from the in-process run\ngot:\n%s\nwant:\n%s", id, got, want)
		}
	}
}

// TestLoadRestoresOlderJournal: a journal from a build that also recorded
// each completed job by its cache key restores only its failed lines. Every
// other slot is answered by the cache under the job's own key — a line
// naming another key, or a key the cache no longer holds, serves nothing —
// and the rest re-queue.
func TestLoadRestoresOlderJournal(t *testing.T) {
	spec := testSpec("older")
	fail := failingExec(4)
	want, _ := referenceReportWith(t, spec, fail)
	cache, err := campaign.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	res, _ := fakeExec(context.Background(), jobs[1].Params)
	if err := cache.Put(res); err != nil {
		t.Fatal(err)
	}
	stateDir := t.TempDir()
	sub, err := loadedServer(t, cache, stateDir).submit(SubmitRequest{Tenant: "alice", Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	journal := fmt.Sprintf(`{"index":0,"status":"run","key":%q}
{"index":1,"status":"cached","key":%q}
{"index":2,"status":"run","key":%q}
{"index":3,"status":"failed","err":"seed 4: boom"}
`, jobs[1].Params.Key(), jobs[1].Params.Key(), jobs[2].Params.Key())
	if err := os.WriteFile(filepath.Join(stateDir, sub.CampaignID+".outcomes.jsonl"), []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}

	s := loadedServer(t, cache, stateDir)
	var got []campaign.Status
	for _, out := range s.campaigns[sub.CampaignID].outcomes {
		got = append(got, out.Status)
	}
	if want := []campaign.Status{"", campaign.StatusCached, "", campaign.StatusFailed}; !slices.Equal(got, want) {
		t.Fatalf("restored slots %q, want %q (empty: queued)", got, want)
	}
	if st, err := s.campaignStatus(sub.CampaignID); err != nil || st.Pending != 2 {
		t.Fatalf("restored %+v, %v; want 2 pending", st, err)
	}
	deliverAll(t, s, s.register(RegisterRequest{}).WorkerID, fail)
	if got := reportOf(t, s, sub.CampaignID); !bytes.Equal(got, want) {
		t.Fatalf("report differs from the in-process run\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestLoadSkipsTornCampaignFile: a crash mid-append can leave the
// submission journal's last line cut at any byte. Whatever is left, the
// server boots for every other tenant: the earlier campaigns restore, the
// torn one is logged and skipped and its ID is not reused, and the next
// submission is appended on a line of its own and restores on the following
// boot. A line cut only after its closing brace is whole and restores.
func TestLoadSkipsTornCampaignFile(t *testing.T) {
	cache, err := campaign.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stateDir := t.TempDir()
	s1 := loadedServer(t, cache, stateDir)
	for _, tenant := range []string{"alice", "bob"} {
		if _, err := s1.submit(SubmitRequest{Tenant: tenant, Spec: testSpec(tenant)}); err != nil {
			t.Fatal(err)
		}
	}
	journal, err := os.ReadFile(filepath.Join(stateDir, submissionJournal))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(journal, []byte("\n"))
	if lines = lines[:len(lines)-1]; len(lines) != 2 {
		t.Fatalf("journal of 2 submissions has %d lines:\n%s", len(lines), journal)
	}
	first, last := len(lines[0]), len(lines[1])

	for n := 0; n <= last; n++ {
		name := fmt.Sprintf("last line cut to %d of %d bytes", n, last)
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, submissionJournal), journal[:first+n], 0o644); err != nil {
			t.Fatal(err)
		}
		var logged []string
		s := New(cache)
		s.StateDir = dir
		s.Log = func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }
		if err := s.Load(); err != nil {
			t.Fatalf("%s: Load refused to boot: %v", name, err)
		}
		if st, err := s.campaignStatus("c0001"); err != nil || st.Pending != 4 {
			t.Fatalf("%s: intact campaign restored as %+v, %v; want 4 pending", name, st, err)
		}
		// A record is whole once its closing brace is there; the newline
		// after it is not part of it.
		whole := n >= last-1
		st, err := s.campaignStatus("c0002")
		if whole && (err != nil || st.Pending != 4 || st.Tenant != "bob") {
			t.Fatalf("%s: whole campaign restored as %+v, %v; want bob's 4 pending", name, st, err)
		}
		if !whole && err == nil {
			t.Fatalf("%s: torn campaign restored: %+v", name, st)
		}
		torn := n > 0 && !whole
		if got := strings.Contains(strings.Join(logged, "\n"), "campaigns.jsonl line 2: not restored: unexpected end of JSON input"); got != torn {
			t.Errorf("%s: torn line logged %v, want %v: %q", name, got, torn, logged)
		}
		// A cut before the record's first byte leaves nothing of it; any
		// part of it left took c0002.
		wantNext := "c0003"
		if n == 0 {
			wantNext = "c0002"
		}
		next, err := s.submit(SubmitRequest{Tenant: "carol", Spec: testSpec("next")})
		if err != nil || next.CampaignID != wantNext {
			t.Fatalf("%s: next campaign: %+v, %v; want %s", name, next, err, wantNext)
		}
		s.Close()

		again := loadedServer(t, cache, dir)
		if st, err := again.campaignStatus(wantNext); err != nil || st.Tenant != "carol" || st.Pending != 4 {
			t.Fatalf("%s: the submission after the cut restored as %+v, %v; want carol's 4 pending", name, st, err)
		}
		var ids []string
		for _, c := range again.fleetStatus().Campaigns {
			ids = append(ids, c.CampaignID)
		}
		want := []string{"c0001", "c0003"}
		if whole {
			want = []string{"c0001", "c0002", "c0003"}
		} else if n == 0 {
			want = []string{"c0001", "c0002"}
		}
		if !slices.Equal(ids, want) {
			t.Fatalf("%s: second boot restored %q, want %q", name, ids, want)
		}
		again.Close()
	}
}

// TestLoadRestoresInAdmissionOrderPastC9999: campaign IDs are counters, so
// c10000 was admitted after c9999 though it sorts before it as a string.
// Load restores c9999 first: it is listed first, and of one tenant's two
// campaigns at one priority, its jobs are leased first.
func TestLoadRestoresInAdmissionOrderPastC9999(t *testing.T) {
	cache, err := campaign.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stateDir := t.TempDir()
	var journal []byte
	for _, id := range []string{"c9999", "c10000"} {
		data, err := json.Marshal(persistedCampaign{ID: id, Tenant: "alice", Spec: testSpec(id, 1)})
		if err != nil {
			t.Fatal(err)
		}
		journal = append(append(journal, data...), '\n')
	}
	if err := os.WriteFile(filepath.Join(stateDir, submissionJournal), journal, 0o644); err != nil {
		t.Fatal(err)
	}
	s := loadedServer(t, cache, stateDir)
	var ids []string
	for _, c := range s.fleetStatus().Campaigns {
		ids = append(ids, c.CampaignID)
	}
	if !slices.Equal(ids, []string{"c9999", "c10000"}) {
		t.Fatalf("restored campaigns listed as %q, want c9999 before c10000", ids)
	}
	resp, err := s.leaseNext(LeaseRequest{WorkerID: s.register(RegisterRequest{}).WorkerID})
	if err != nil || resp.Job == nil || resp.Job.CampaignID != "c9999" {
		t.Fatalf("first lease: %+v, %v; want c9999's job", resp.Job, err)
	}
	if next, err := s.submit(SubmitRequest{Tenant: "alice", Spec: testSpec("next")}); err != nil || next.CampaignID != "c10001" {
		t.Fatalf("next campaign: %+v, %v; want c10001", next, err)
	}
}

// TestLoadSkipsCampaignItCannotExpand: a state dir can hold a campaign whose
// spec this build refuses — here a timeout_sec past what a time.Duration
// holds, which an older build admitted and then failed every job of at
// cycle 0. The server still boots: it logs and skips that campaign, restores
// the others, and never reuses the skipped campaign's ID.
func TestLoadSkipsCampaignItCannotExpand(t *testing.T) {
	cache, err := campaign.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stateDir := t.TempDir()
	good, err := loadedServer(t, cache, stateDir).submit(SubmitRequest{Tenant: "alice", Spec: testSpec("good")})
	if err != nil {
		t.Fatal(err)
	}
	bad := `{"id":"c0002","tenant":"bob","spec":{"name":"forever","shapes":["1x1x2"],"workloads":["is"],"keys":256,"timeout_sec":1e10}}` + "\n"
	if err := appendFile(filepath.Join(stateDir, submissionJournal), []byte(bad)); err != nil {
		t.Fatal(err)
	}

	var logged []string
	r := New(cache)
	r.StateDir = stateDir
	r.Log = func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }
	if err := r.Load(); err != nil {
		t.Fatalf("Load refused to boot: %v", err)
	}
	if st, err := r.campaignStatus(good.CampaignID); err != nil || st.Pending != 4 {
		t.Fatalf("good campaign restored as %+v, %v; want 4 pending", st, err)
	}
	if st, err := r.campaignStatus("c0002"); err == nil {
		t.Fatalf("campaign with an out-of-range timeout restored: %+v", st)
	}
	if !strings.Contains(strings.Join(logged, "\n"), "c0002: not restored: campaign: timeout_sec") {
		t.Errorf("the skipped campaign was not logged: %q", logged)
	}
	next, err := r.submit(SubmitRequest{Tenant: "alice", Spec: testSpec("next")})
	if err != nil {
		t.Fatal(err)
	}
	if next.CampaignID != "c0003" {
		t.Errorf("next campaign is %s, want c0003 past the skipped one", next.CampaignID)
	}
}

// TestSubmissionRecordIsOneJournalLine: each submission is one compact line
// of the submission journal, in admission order — no file per campaign, no
// temp file — and a restarted server restores every one of them in that
// order.
func TestSubmissionRecordIsOneJournalLine(t *testing.T) {
	const n = 5
	cache, err := campaign.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stateDir := t.TempDir()
	s := loadedServer(t, cache, stateDir)
	var want []string
	for i := range n {
		sub, err := s.submit(SubmitRequest{Tenant: "alice", Priority: i, Spec: testSpec(fmt.Sprint("s", i))})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, sub.CampaignID)
	}
	journal, err := os.ReadFile(filepath.Join(stateDir, submissionJournal))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(journal), "\n")
	if lines = lines[:len(lines)-1]; len(lines) != n {
		t.Fatalf("journal of %d submissions has %d lines:\n%s", n, len(lines), journal)
	}
	for i, line := range lines {
		var pc persistedCampaign
		if err := json.Unmarshal([]byte(line), &pc); err != nil || pc.ID != want[i] || pc.Priority != i {
			t.Fatalf("line %d is %q (%v), want the record of %s", i+1, line, err, want[i])
		}
		compact, _ := json.Marshal(pc)
		if line != string(compact)+"\n" {
			t.Errorf("line %d is not one compact record: %q", i+1, line)
		}
	}
	for _, pattern := range []string{"*.campaign.json", "*.tmp-*"} {
		if stray, _ := filepath.Glob(filepath.Join(stateDir, pattern)); len(stray) != 0 {
			t.Errorf("state dir holds %v", stray)
		}
	}
	var ids []string
	for _, c := range loadedServer(t, cache, stateDir).fleetStatus().Campaigns {
		ids = append(ids, c.CampaignID)
	}
	if !slices.Equal(ids, want) {
		t.Fatalf("restored %q, want %q", ids, want)
	}
}

// TestLoadRestoresPerCampaignRecords: a state dir an older build left holds
// one <id>.campaign.json per campaign. An upgraded server restores them in
// admission order (c10000 after c9999), skips a torn one without reusing its
// ID, then restores the journal's lines; it writes its own submissions to
// the journal and leaves the old files as they were.
func TestLoadRestoresPerCampaignRecords(t *testing.T) {
	cache, err := campaign.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stateDir := t.TempDir()
	old := map[string][]byte{}
	for _, id := range []string{"c0002", "c9999", "c10000", "c10001"} {
		data, err := json.MarshalIndent(persistedCampaign{ID: id, Tenant: "alice", Spec: testSpec(id, 1)}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, '\n')
		if id == "c10001" {
			data = data[:len(data)/2] // written in place by an even older build, and cut by a crash
		}
		old[id] = data
		if err := os.WriteFile(filepath.Join(stateDir, id+".campaign.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	line, err := json.Marshal(persistedCampaign{ID: "c10002", Tenant: "bob", Spec: testSpec("journaled", 1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(stateDir, submissionJournal), append(line, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	var logged []string
	s := New(cache)
	s.StateDir = stateDir
	s.Log = func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }
	if err := s.Load(); err != nil {
		t.Fatalf("Load refused to boot: %v", err)
	}
	defer s.Close()
	restored := func(s *Server) []string {
		var ids []string
		for _, c := range s.fleetStatus().Campaigns {
			ids = append(ids, c.CampaignID)
		}
		return ids
	}
	if got, want := restored(s), []string{"c0002", "c9999", "c10000", "c10002"}; !slices.Equal(got, want) {
		t.Fatalf("restored %q, want %q", got, want)
	}
	if !strings.Contains(strings.Join(logged, "\n"), "c10001: not restored: unexpected end of JSON input") {
		t.Errorf("the torn campaign file was not logged: %q", logged)
	}
	resp, err := s.leaseNext(LeaseRequest{WorkerID: s.register(RegisterRequest{}).WorkerID})
	if err != nil || resp.Job == nil || resp.Job.CampaignID != "c0002" {
		t.Fatalf("first lease: %+v, %v; want c0002's job", resp.Job, err)
	}
	next, err := s.submit(SubmitRequest{Tenant: "carol", Spec: testSpec("next")})
	if err != nil || next.CampaignID != "c10003" {
		t.Fatalf("next campaign: %+v, %v; want c10003", next, err)
	}
	if _, err := os.Stat(filepath.Join(stateDir, "c10003.campaign.json")); !os.IsNotExist(err) {
		t.Errorf("the new submission was written as a file of its own (%v)", err)
	}
	for id, data := range old {
		if got, err := os.ReadFile(filepath.Join(stateDir, id+".campaign.json")); err != nil || !bytes.Equal(got, data) {
			t.Errorf("%s.campaign.json changed: %v\n%s", id, err, got)
		}
	}
	if got, want := restored(loadedServer(t, cache, stateDir)), []string{"c0002", "c9999", "c10000", "c10002", "c10003"}; !slices.Equal(got, want) {
		t.Fatalf("second boot restored %q, want %q", got, want)
	}
}

// TestSubmitRefusedWhenRecordIsNotDurable: a submission is answered only
// once its record is on disk. When the journal cannot be written the
// submission is a 500, and nothing of it is admitted, leased or restored.
func TestSubmitRefusedWhenRecordIsNotDurable(t *testing.T) {
	cache, err := campaign.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stateDir := t.TempDir()
	s := loadedServer(t, cache, stateDir)
	// A directory where the journal belongs: opening it for writing fails.
	blocker := filepath.Join(stateDir, submissionJournal)
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	sub, err := s.submit(SubmitRequest{Tenant: "alice", Spec: testSpec("lost")})
	if err == nil || httpStatus(err) != http.StatusInternalServerError {
		t.Fatalf("submit: %+v, %v; want a 500", sub, err)
	}
	if st := s.fleetStatus(); len(st.Campaigns) != 0 {
		t.Fatalf("a refused submission was admitted: %+v", st.Campaigns)
	}
	resp, err := s.leaseNext(LeaseRequest{WorkerID: s.register(RegisterRequest{}).WorkerID})
	if err != nil || resp.Job != nil {
		t.Fatalf("lease after a refused submission: %+v, %v; want none", resp.Job, err)
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	if st := loadedServer(t, cache, stateDir).fleetStatus(); len(st.Campaigns) != 0 {
		t.Fatalf("a refused submission was restored: %+v", st.Campaigns)
	}
}
