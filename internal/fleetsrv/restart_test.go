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
// left of the failure lines after a campaign's submission line — any prefix,
// or a corrupted line in the middle — Load restores exactly the failures
// whose records are whole, re-queues the rest, and the finished campaign
// serves the reference report. What the restored server then appends to the
// damaged journal survives a further restart too.
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
	journal, err := os.ReadFile(filepath.Join(stateDir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(journal, []byte("\n"))
	if lines = lines[:len(lines)-1]; len(lines) != 5 { // every record ends in a newline
		t.Fatalf("journal of a 4-point campaign that failed has %d lines, want its submission and 4 failures:\n%s", len(lines), journal)
	}
	record, failures := lines[0], lines[1:]

	check := func(name string, damaged []byte, whole int) {
		t.Helper()
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journalFile), append(slices.Clip(record), damaged...), 0o644); err != nil {
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
	tail := bytes.Join(failures, nil)
	for n := 0; n <= len(tail); n++ {
		// A record is whole once its closing brace is there; the newline
		// after it is not part of it.
		whole, end := 0, 0
		for _, line := range failures {
			if end += len(line); n >= end-1 {
				whole++
			}
		}
		check(fmt.Sprintf("failure lines cut to %d bytes", n), tail[:n], whole)
	}
	corrupt := bytes.Join([][]byte{failures[0], []byte("{\"id\":\"c0001\",\"fai\x00\xff}}\n"), failures[2], failures[3]}, nil)
	check("corrupted second failure line", corrupt, 3)
}

// TestJournalHoldsOnlyFailures: the cache is the record of a completed job,
// so the state dir is the one journal, and besides each campaign's
// submission line it holds exactly one line per failed job, after its own
// campaign's line. A campaign with no failure, or a resubmission the cache
// answers in full, writes nothing but its submission line.
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
	if want := journalFile; strings.Join(names, " ") != want {
		t.Fatalf("state dir holds %q, want %q", names, want)
	}
	journal, err := os.ReadFile(filepath.Join(stateDir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	var submitted, failed []string
	for i, line := range strings.SplitAfter(string(journal), "\n") {
		if line == "" {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d %q: %v", i+1, line, err)
		}
		switch {
		case rec.Spec != nil:
			submitted = append(submitted, rec.ID)
		case rec.Failed != nil && slices.Contains(submitted, rec.ID):
			failed = append(failed, fmt.Sprint(rec.ID, "/", *rec.Failed))
		default:
			t.Fatalf("line %d %q is neither a submission nor a failure of a campaign submitted before it", i+1, line)
		}
	}
	if !slices.Equal(submitted, []string{"c0001", "c0002", "c0003"}) || !slices.Equal(failed, []string{"c0002/1", "c0002/3"}) {
		t.Fatalf("journal holds submissions %q and failures %q, want 3 submissions and c0002's 2 failures:\n%s", submitted, failed, journal)
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

// TestLoadSkipsTornCampaignFile: a crash mid-append can leave the journal's
// last line cut at any byte, whether it was a submission or a failure.
// Whatever is left, the server boots for every other tenant: the earlier
// campaigns restore, the torn line is logged and skipped and the ID it may
// have taken is not reused, and the next submission is appended on a line of
// its own and restores on the following boot. A line cut only after its
// closing brace is whole: a submission restores, a failure fills its slot.
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
	journal, err := os.ReadFile(filepath.Join(stateDir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(journal, []byte("\n"))
	if lines = lines[:len(lines)-1]; len(lines) != 2 {
		t.Fatalf("journal of 2 submissions has %d lines:\n%s", len(lines), journal)
	}
	index := 2
	failure, err := json.Marshal(journalRecord{ID: "c0001", Failed: &index, Err: "seed 3: boom"})
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		what    string
		last    []byte
		failure bool
	}{
		{"submission", lines[1], false},
		{"failure", append(failure, '\n'), true},
	} {
		last := len(c.last)
		for n := 0; n <= last; n++ {
			name := fmt.Sprintf("%s line cut to %d of %d bytes", c.what, n, last)
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, journalFile), append(slices.Clip(lines[0]), c.last[:n]...), 0o644); err != nil {
				t.Fatal(err)
			}
			var logged []string
			s := New(cache)
			s.StateDir = dir
			s.Log = func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }
			if err := s.Load(); err != nil {
				t.Fatalf("%s: Load refused to boot: %v", name, err)
			}
			// A record is whole once its closing brace is there; the newline
			// after it is not part of it.
			whole := n >= last-1
			failed := 0
			if c.failure && whole {
				failed = 1
			}
			intact := func(s *Server) {
				t.Helper()
				if st, err := s.campaignStatus("c0001"); err != nil || st.Failed != failed || st.Pending != 4-failed {
					t.Fatalf("%s: intact campaign restored as %+v, %v; want %d failed, the rest pending", name, st, err, failed)
				}
			}
			intact(s)
			st, err := s.campaignStatus("c0002")
			if !c.failure && whole && (err != nil || st.Pending != 4 || st.Tenant != "bob") {
				t.Fatalf("%s: whole campaign restored as %+v, %v; want bob's 4 pending", name, st, err)
			}
			if (c.failure || !whole) && err == nil {
				t.Fatalf("%s: torn campaign restored: %+v", name, st)
			}
			torn := n > 0 && !whole
			if got := strings.Contains(strings.Join(logged, "\n"), "campaigns.jsonl line 2: not restored: unexpected end of JSON input"); got != torn {
				t.Errorf("%s: torn line logged %v, want %v: %q", name, got, torn, logged)
			}
			// Any part left of a submission took c0002, and a torn line may
			// have been one; a whole failure line took no ID.
			wantNext := "c0002"
			if torn || !c.failure && n > 0 {
				wantNext = "c0003"
			}
			next, err := s.submit(SubmitRequest{Tenant: "carol", Spec: testSpec("next")})
			if err != nil || next.CampaignID != wantNext {
				t.Fatalf("%s: next campaign: %+v, %v; want %s", name, next, err, wantNext)
			}
			s.Close()

			again := loadedServer(t, cache, dir)
			intact(again)
			if st, err := again.campaignStatus(wantNext); err != nil || st.Tenant != "carol" || st.Pending != 4 {
				t.Fatalf("%s: the submission after the cut restored as %+v, %v; want carol's 4 pending", name, st, err)
			}
			var ids []string
			for _, c := range again.fleetStatus().Campaigns {
				ids = append(ids, c.CampaignID)
			}
			want := []string{"c0001", wantNext}
			if !c.failure && whole {
				want = []string{"c0001", "c0002", "c0003"}
			}
			if !slices.Equal(ids, want) {
				t.Fatalf("%s: second boot restored %q, want %q", name, ids, want)
			}
			again.Close()
		}
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
		spec := testSpec(id, 1)
		data, err := json.Marshal(journalRecord{ID: id, Tenant: "alice", Spec: &spec})
		if err != nil {
			t.Fatal(err)
		}
		journal = append(append(journal, data...), '\n')
	}
	if err := os.WriteFile(filepath.Join(stateDir, journalFile), journal, 0o644); err != nil {
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
// cycle 0. The server still boots: it logs and skips that campaign, ignores
// the failure line of it, restores the others, and never reuses the skipped
// campaign's ID.
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
	bad := `{"id":"c0002","tenant":"bob","spec":{"name":"forever","shapes":["1x1x2"],"workloads":["is"],"keys":256,"timeout_sec":1e10}}` + "\n" +
		`{"id":"c0002","failed":0,"err":"campaign: timeout_sec"}` + "\n"
	journal, err := os.ReadFile(filepath.Join(stateDir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(stateDir, journalFile), append(journal, bad...), 0o644); err != nil {
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
// of the journal, in admission order — no file per campaign, no
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
	journal, err := os.ReadFile(filepath.Join(stateDir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(journal), "\n")
	if lines = lines[:len(lines)-1]; len(lines) != n {
		t.Fatalf("journal of %d submissions has %d lines:\n%s", n, len(lines), journal)
	}
	for i, line := range lines {
		var pc journalRecord
		if err := json.Unmarshal([]byte(line), &pc); err != nil || pc.ID != want[i] || pc.Priority != i || pc.Spec == nil {
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
	blocker := filepath.Join(stateDir, journalFile)
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

// TestLoadRefusesOlderLayout: an older build kept each submission in a
// <id>.campaign.json file and each campaign's failures in <id>.outcomes.jsonl,
// which this build does not read. Rather than boot with those campaigns or
// failures missing, Load refuses a state dir holding either, with an error
// that names the file; it admits nothing and changes no file, not even the
// journal's torn last line.
func TestLoadRefusesOlderLayout(t *testing.T) {
	cache, err := campaign.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec("newer")
	line, err := json.Marshal(journalRecord{ID: "c0002", Tenant: "bob", Spec: &spec})
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string]string{
		"c0001.campaign.json":  `{"id":"c0001","tenant":"alice","spec":{"name":"older","shapes":["1x1x2"],"workloads":["is"],"keys":256}}` + "\n",
		"c0001.outcomes.jsonl": `{"index":0,"status":"failed","err":"seed 1: boom"}` + "\n",
	} {
		dir := t.TempDir()
		files := map[string][]byte{
			name:        []byte(data),
			journalFile: append(append(line, '\n'), line[:len(line)/2]...),
		}
		for file, data := range files {
			if err := os.WriteFile(filepath.Join(dir, file), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s := New(cache)
		s.StateDir = dir
		err := s.Load()
		if err == nil || !strings.Contains(err.Error(), filepath.Join(dir, name)) {
			t.Fatalf("%s: Load returned %v, want an error naming the file", name, err)
		}
		if st := s.fleetStatus(); len(st.Campaigns) != 0 {
			t.Errorf("%s: Load admitted %+v", name, st.Campaigns)
		}
		s.Close()
		entries, err := os.ReadDir(dir)
		if err != nil || len(entries) != len(files) {
			t.Fatalf("%s: state dir holds %v (%v), want %d files", name, entries, err, len(files))
		}
		for file, data := range files {
			if got, err := os.ReadFile(filepath.Join(dir, file)); err != nil || !bytes.Equal(got, data) {
				t.Errorf("%s: %s changed: %v\n%s", name, file, err, got)
			}
		}
	}
}

// TestUnwritableFailureLineIsLogged: a job's failure is booked whether or
// not its line reaches the journal, so a line the journal cannot take — here
// through a read-only handle — is logged, and nothing of it is left: the
// journal stays byte-identical. The next submission appends after it, and a
// restart restores both campaigns, re-queuing the job whose failure was not
// recorded.
func TestUnwritableFailureLineIsLogged(t *testing.T) {
	cache, err := campaign.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stateDir := t.TempDir()
	var logged []string
	s := New(cache)
	s.StateDir = stateDir
	s.Log = func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }
	if err := s.Load(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sub, err := s.submit(SubmitRequest{Tenant: "alice", Spec: testSpec("unwritable", 1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(stateDir, journalFile)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	readOnly, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	writable := s.journal
	s.journal = readOnly
	deliverAll(t, s, s.register(RegisterRequest{}).WorkerID, failingExec(2))
	s.journal = writable
	readOnly.Close()

	if st, err := s.campaignStatus(sub.CampaignID); err != nil || !st.Complete || st.Done != 1 || st.Failed != 1 {
		t.Fatalf("campaign %+v, %v; want 1 done and 1 failed", st, err)
	}
	if !strings.Contains(strings.Join(logged, "\n"), "persist outcome c0001/1: ") {
		t.Errorf("the unwritten failure line was not logged: %q", logged)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("journal changed by a failed append: %v\nbefore:\n%s\nafter:\n%s", err, before, after)
	}
	next, err := s.submit(SubmitRequest{Tenant: "carol", Spec: testSpec("next", 5, 6, 7, 8)})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	again := loadedServer(t, cache, stateDir)
	if st, err := again.campaignStatus(sub.CampaignID); err != nil || st.Done != 1 || st.Failed != 0 || st.Pending != 1 {
		t.Errorf("restored %+v, %v; want the done job cached and the unrecorded failure re-queued", st, err)
	}
	if st, err := again.campaignStatus(next.CampaignID); err != nil || st.Tenant != "carol" || st.Pending != 4 {
		t.Errorf("the next submission restored as %+v, %v; want carol's 4 pending", st, err)
	}
}
