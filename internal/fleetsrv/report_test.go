package fleetsrv

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"smappic/internal/campaign"
)

// memoOf returns the report memo entry of a spec, or nil.
func memoOf(s *Server, spec campaign.Spec) *reportMemo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reports[specKey(spec)]
}

// sameSlice reports whether a and b are the same bytes in memory, not only
// equal ones.
func sameSlice(a, b []byte) bool {
	return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
}

// TestThirdSubmissionServedFromMemo: the second campaign of a spec renders
// its report and keeps the bytes; the third, answered from the same records,
// is served those very bytes. Every report equals the in-process run.
func TestThirdSubmissionServedFromMemo(t *testing.T) {
	spec := testSpec("memo")
	want, _ := referenceReport(t, spec)
	s, _ := testServer(t)
	worker := s.register(RegisterRequest{}).WorkerID
	var reports [][]byte
	for i := range 3 {
		sub, err := s.submit(SubmitRequest{Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		completeAll(t, s, worker)
		got := reportOf(t, s, sub.CampaignID)
		if !bytes.Equal(got, want) {
			t.Fatalf("submission %d: report differs from the in-process run\ngot:\n%s\nwant:\n%s", i+1, got, want)
		}
		reports = append(reports, got)
	}
	memo := memoOf(s, spec)
	if memo == nil || !sameSlice(memo.doc, reports[1]) {
		t.Fatalf("the second campaign's report is not the memo's bytes")
	}
	if !sameSlice(reports[2], memo.doc) {
		t.Errorf("the third submission was rendered again, not served from the memo")
	}
	if sameSlice(reports[0], reports[1]) {
		t.Errorf("the first and second reports share bytes; the first should have kept none")
	}
}

// TestSpecReportedOnceKeepsNoBytes: a campaign whose spec nobody else
// submitted keeps its slot pointers in the memo but never the rendered
// bytes, however often it is asked for.
func TestSpecReportedOnceKeepsNoBytes(t *testing.T) {
	spec := testSpec("once")
	want, _ := referenceReport(t, spec)
	s, _ := testServer(t)
	sub, err := s.submit(SubmitRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	completeAll(t, s, s.register(RegisterRequest{}).WorkerID)
	for range 2 {
		if got := reportOf(t, s, sub.CampaignID); !bytes.Equal(got, want) {
			t.Fatalf("report differs from the in-process run\ngot:\n%s\nwant:\n%s", got, want)
		}
	}
	memo := memoOf(s, spec)
	if memo == nil || len(memo.slots) != sub.Jobs {
		t.Fatalf("memo %+v, want the %d slots the report was rendered from", memo, sub.Jobs)
	}
	if memo.doc != nil {
		t.Errorf("a spec reported by one campaign keeps %d bytes", len(memo.doc))
	}
}

// TestSpecsDifferingInNameReportApart: two specs over the same points share
// every record but not their reports: each one names its own campaign.
func TestSpecsDifferingInNameReportApart(t *testing.T) {
	x, y := testSpec("name-x"), testSpec("name-y")
	wantX, _ := referenceReport(t, x)
	wantY, _ := referenceReport(t, y)
	s, _ := testServer(t)
	worker := s.register(RegisterRequest{}).WorkerID
	// x twice, so its memo holds bytes, then y, whose slots point at the
	// same records, then x again.
	for _, c := range []struct {
		spec campaign.Spec
		want []byte
	}{{x, wantX}, {x, wantX}, {y, wantY}, {y, wantY}, {x, wantX}} {
		sub, err := s.submit(SubmitRequest{Spec: c.spec})
		if err != nil {
			t.Fatal(err)
		}
		completeAll(t, s, worker)
		if got := reportOf(t, s, sub.CampaignID); !bytes.Equal(got, c.want) {
			t.Fatalf("campaign %s (%s): report differs from the in-process run\ngot:\n%s\nwant:\n%s",
				sub.CampaignID, c.spec.Name, got, c.want)
		}
	}
}

// TestFailureResubmittedReportsNoFailure: two campaigns of a spec fail the
// same job, so the memo keeps a report with a failure in it. A third
// campaign of the spec fails that job with another error, and its report
// names that error; a fourth runs the job to a result, and its report holds
// no failure.
func TestFailureResubmittedReportsNoFailure(t *testing.T) {
	spec := testSpec("failed-then-done")
	fail := failingExec(2)
	otherFail := func(ctx context.Context, p campaign.Params) (*campaign.Result, error) {
		if p.Seed == 2 {
			return nil, errors.New("another error")
		}
		return fakeExec(ctx, p)
	}
	wantFailed, _ := referenceReportWith(t, spec, fail)
	wantOther, _ := referenceReportWith(t, spec, otherFail)
	want, _ := referenceReport(t, spec)
	s, _ := testServer(t)
	worker := s.register(RegisterRequest{}).WorkerID
	var failed []string
	for range 2 {
		sub, err := s.submit(SubmitRequest{Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		failed = append(failed, sub.CampaignID)
	}
	deliverAll(t, s, worker, fail)
	for _, id := range failed {
		if got := reportOf(t, s, id); !bytes.Equal(got, wantFailed) {
			t.Fatalf("campaign %s: report differs from the in-process run\ngot:\n%s\nwant:\n%s", id, got, wantFailed)
		}
	}
	if memo := memoOf(s, spec); memo == nil || memo.doc == nil {
		t.Fatalf("two campaigns of the spec reported, memo %+v holds no bytes", memo)
	}
	for _, c := range []struct {
		exec func(context.Context, campaign.Params) (*campaign.Result, error)
		want []byte
	}{{otherFail, wantOther}, {fakeExec, want}} {
		again, err := s.submit(SubmitRequest{Spec: spec})
		if err != nil || again.Cached != again.Jobs-1 {
			t.Fatalf("resubmission: %+v, %v; want all but the failed point answered", again, err)
		}
		deliverAll(t, s, worker, c.exec)
		if got := reportOf(t, s, again.CampaignID); !bytes.Equal(got, c.want) {
			t.Fatalf("resubmission %s: report differs from the in-process run\ngot:\n%s\nwant:\n%s", again.CampaignID, got, c.want)
		}
	}
}

// TestReplacedRecordRendersAfresh: two campaigns of a spec lease the same
// key at once, so the second live delivery replaces the first's record and
// the two campaigns point at different records. Once the second campaign's
// report is memoised, the first one's is rendered again, not served the
// memo's bytes; both equal the in-process run.
func TestReplacedRecordRendersAfresh(t *testing.T) {
	spec := testSpec("replaced", 1)
	want, _ := referenceReport(t, spec)
	s, _ := testServer(t)
	var subs []*SubmitResponse
	var leases []*LeasedJob
	worker := s.register(RegisterRequest{}).WorkerID
	for range 2 {
		sub, err := s.submit(SubmitRequest{Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := s.leaseNext(LeaseRequest{WorkerID: worker})
		if err != nil || resp.Job == nil || resp.Job.CampaignID != sub.CampaignID {
			t.Fatalf("lease for %s: %+v, %v", sub.CampaignID, resp, err)
		}
		subs, leases = append(subs, sub), append(leases, resp.Job)
	}
	for _, lj := range leases {
		res, _ := fakeExec(context.Background(), lj.Params)
		if err := s.result(ResultRequest{
			WorkerID: worker, LeaseID: lj.LeaseID, CampaignID: lj.CampaignID,
			Index: lj.Index, Status: campaign.StatusRun, Result: res,
		}); err != nil {
			t.Fatal(err)
		}
	}
	first, second := s.campaigns[subs[0].CampaignID], s.campaigns[subs[1].CampaignID]
	if first.outcomes[0].Result == second.outcomes[0].Result {
		t.Fatalf("both campaigns point at one record; the second delivery did not replace it")
	}
	for _, sub := range subs {
		if got := reportOf(t, s, sub.CampaignID); !bytes.Equal(got, want) {
			t.Fatalf("campaign %s: report differs from the in-process run", sub.CampaignID)
		}
	}
	memo := memoOf(s, spec)
	if memo == nil || memo.doc == nil {
		t.Fatalf("two campaigns of the spec reported, memo %+v holds no bytes", memo)
	}
	got := reportOf(t, s, subs[0].CampaignID)
	if !bytes.Equal(got, want) {
		t.Fatalf("campaign %s again: report differs from the in-process run", subs[0].CampaignID)
	}
	if sameSlice(got, memo.doc) {
		t.Errorf("campaign %s was served the memo rendered from another record", subs[0].CampaignID)
	}
}

// TestReportRenderErrorIs500: a report that does not render — here a result
// delivered in-process with an infinite Seconds, which JSON cannot hold — is
// the server's fault: 500, not the 400 of a bad request.
func TestReportRenderErrorIs500(t *testing.T) {
	s, _ := testServer(t)
	sub, err := s.submit(SubmitRequest{Spec: testSpec("unrenderable", 1)})
	if err != nil {
		t.Fatal(err)
	}
	worker := s.register(RegisterRequest{}).WorkerID
	resp, err := s.leaseNext(LeaseRequest{WorkerID: worker})
	if err != nil || resp.Job == nil {
		t.Fatalf("lease: %+v, %v", resp, err)
	}
	res, _ := fakeExec(context.Background(), resp.Job.Params)
	res.Seconds = math.Inf(1)
	if err := s.result(ResultRequest{
		WorkerID: worker, LeaseID: resp.Job.LeaseID, CampaignID: resp.Job.CampaignID,
		Index: resp.Job.Index, Status: campaign.StatusRun, Result: res,
	}); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/campaigns/"+sub.CampaignID+"/report", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("unrenderable report: HTTP %d %q, want 500", rec.Code, rec.Body)
	}
}

// TestReportBodyReadWhole: the server declares a report's length, and the
// client reads a body of declared length into one buffer of that size. A
// body cut short of its length is an error, never a short report; a body of
// undeclared length (chunked) still reads whole.
func TestReportBodyReadWhole(t *testing.T) {
	spec := testSpec("length")
	s, _ := testServer(t)
	sub, err := s.submit(SubmitRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	completeAll(t, s, s.register(RegisterRequest{}).WorkerID)
	want := reportOf(t, s, sub.CampaignID)
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	ctx := context.Background()
	cl := &Client{Server: hs.URL}
	for _, path := range []string{"/report", "/report.csv"} {
		resp, err := http.Get(hs.URL + "/api/campaigns/" + sub.CampaignID + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Content-Length %d, transfer encoding %q for %d bytes (%v)", path, resp.ContentLength, resp.TransferEncoding, len(body), err)
		}
	}
	if got, err := cl.Report(ctx, sub.CampaignID); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("served report differs (%v)", err)
	}

	short := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(len(want)))
		w.Write(want[:len(want)/2])
	}))
	defer short.Close()
	if got, err := (&Client{Server: short.URL}).Report(ctx, "c0001"); err == nil {
		t.Errorf("a body cut short of its Content-Length read as a %d-byte report of %d", len(got), len(want))
	}

	chunked := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		third := len(want) / 3
		for _, part := range [][]byte{want[:third], want[third : 2*third], want[2*third:]} {
			w.Write(part)
			w.(http.Flusher).Flush()
		}
	}))
	defer chunked.Close()
	if got, err := (&Client{Server: chunked.URL}).Report(ctx, "c0001"); err != nil || !bytes.Equal(got, want) {
		t.Errorf("a chunked body read as %d bytes of %d (%v)", len(got), len(want), err)
	}
}
