package fleetsrv

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
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
	res.Attempts = 1
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
	res.Attempts = 1
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
// left of a campaign's outcome journal — any prefix, or a corrupted line in
// the middle — Load restores exactly the records that are whole, re-queues
// the rest, and the finished campaign serves the reference report. What the
// restored server then appends to the damaged file survives a further
// restart too.
func TestLoadSurvivesJournalTornAtEveryOffset(t *testing.T) {
	spec := testSpec("torn")
	want, _ := referenceReport(t, spec)

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
	completeAll(t, s, s.register(RegisterRequest{}).WorkerID)
	record, err := os.ReadFile(filepath.Join(stateDir, sub.CampaignID+".campaign.json"))
	if err != nil {
		t.Fatal(err)
	}
	journal, err := os.ReadFile(filepath.Join(stateDir, sub.CampaignID+".outcomes.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(journal, []byte("\n"))
	if lines = lines[:len(lines)-1]; len(lines) != 4 { // every record ends in a newline
		t.Fatalf("journal of a 4-point campaign has %d lines:\n%s", len(lines), journal)
	}

	check := func(name string, damaged []byte, whole int) {
		t.Helper()
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, sub.CampaignID+".campaign.json"), record, 0o644); err != nil {
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
		if st.Done != whole || st.Pending != 4-whole || st.Failed != 0 || st.InFlight != 0 {
			t.Fatalf("%s: restored %+v, want %d done and %d re-queued", name, st, whole, 4-whole)
		}
		completeAll(t, s, s.register(RegisterRequest{}).WorkerID)
		if got := reportOf(t, s, sub.CampaignID); !bytes.Equal(got, want) {
			t.Fatalf("%s: report differs from the in-process run\ngot:\n%s\nwant:\n%s", name, got, want)
		}
		again, err := loadedServer(t, cache, dir).campaignStatus(sub.CampaignID)
		if err != nil || !again.Complete || again.Done != 4 {
			t.Fatalf("%s: a second restart restored %+v, %v; want the 4 records the first one completed", name, again, err)
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
