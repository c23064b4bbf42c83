package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"smappic/internal/cache"
	"smappic/internal/campaign"
	"smappic/internal/core"
	"smappic/internal/fault"
	"smappic/internal/kernel"
	"smappic/internal/sim"
	"smappic/internal/workload"
)

// buildSmall builds a cheap CoreNone prototype for endpoint tests.
func buildSmall(t *testing.T, parallel int) *core.Prototype {
	t.Helper()
	cfg := core.DefaultConfig(2, 1, 2)
	cfg.Core = core.CoreNone
	cfg.Parallel = parallel
	p, err := core.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestEndpointsServeDashboardMetricsAndSSE(t *testing.T) {
	srv := New()
	srv.ObservePrototype(buildSmall(t, 0))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Dashboard.
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != 200 || !strings.Contains(body, "SMAPPIC") {
		t.Fatalf("dashboard: status %d, body %q...", resp.StatusCode, body[:min(len(body), 80)])
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("dashboard content type %q", ct)
	}

	// Metrics: a valid snapshot with the prototype's shape, present before
	// the run even starts (ObservePrototype publishes an initial snapshot).
	resp, err = http.Get(ts.URL + "/api/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var sn Snapshot
	if err := json.Unmarshal([]byte(readAll(t, resp)), &sn); err != nil {
		t.Fatalf("metrics is not valid JSON: %v", err)
	}
	if sn.Seq == 0 || sn.Meta == nil || sn.Meta.Shape != "2x1x2" {
		t.Fatalf("unexpected snapshot: %+v", sn)
	}
	// A serial build is the one-shard case of the same synchronizer.
	if sn.Meta.Parallel || sn.Sync == nil || len(sn.Sync.Shards) != 1 {
		t.Fatalf("serial build not reported as one shard: %+v, sync %+v", sn.Meta, sn.Sync)
	}
	if len(sn.NoC) != 2 {
		t.Fatalf("got %d mesh views, want 2", len(sn.NoC))
	}

	// SSE: a subscriber gets a hello event immediately, without waiting for
	// a publish.
	resp, err = http.Get(ts.URL + "/api/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	r := bufio.NewReader(resp.Body)
	line, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if line != "event: hello\n" {
		t.Fatalf("first SSE line %q, want hello event", line)
	}
	data, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(data, "data: {") {
		t.Fatalf("hello payload line %q", data)
	}
}

func TestParallelSnapshotCarriesSyncView(t *testing.T) {
	srv := New()
	p := buildSmall(t, 2)
	srv.ObservePrototype(p)
	sn := srv.snap.Load()
	if sn == nil || sn.Sync == nil {
		t.Fatal("sharded build published no sync view")
	}
	if len(sn.Sync.Shards) != 2 {
		t.Fatalf("sync view: %+v", sn.Sync)
	}
	if sn.Sync.Lookahead != p.Lookahead() {
		t.Fatalf("lookahead %d, want %d", sn.Sync.Lookahead, p.Lookahead())
	}
}

func TestCampaignEventsUpdateTableAndStream(t *testing.T) {
	srv := New()
	srv.MinPublishInterval = 0
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Subscribe before the events fire.
	resp, err := http.Get(ts.URL + "/api/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sse := bufio.NewReader(resp.Body)
	if line, _ := sse.ReadString('\n'); line != "event: hello\n" {
		t.Fatalf("expected hello, got %q", line)
	}

	srv.CampaignEvent(campaign.Event{Type: campaign.EventStarted, Index: 1, Label: "b", Total: 3})
	srv.CampaignEvent(campaign.Event{Type: campaign.EventCacheHit, Index: 0, Label: "a", Total: 3, Cycles: 123})
	srv.CampaignEvent(campaign.Event{Type: campaign.EventDone, Index: 1, Label: "b", Total: 3, Cycles: 456})
	srv.CampaignEvent(campaign.Event{Type: campaign.EventFailed, Index: 2, Label: "c", Total: 3, Err: "boom"})
	srv.CampaignEvent(campaign.Event{Type: campaign.EventStarted, Index: 3, Label: "d", Total: 4})

	view := srv.campaignView()
	if view.Total != 4 || len(view.Jobs) != 4 {
		t.Fatalf("campaign view: %+v", view)
	}
	// Jobs come back index-ordered regardless of event arrival order.
	for i, j := range view.Jobs {
		if j.Index != i {
			t.Fatalf("job table not index-ordered: %+v", view.Jobs)
		}
	}
	if view.Jobs[0].Status != "cached" || view.Jobs[0].Cycles != 123 {
		t.Fatalf("job 0: %+v", view.Jobs[0])
	}
	if view.Jobs[1].Status != "done" || view.Jobs[1].Cycles != 456 || view.Jobs[1].Err != "" {
		t.Fatalf("job 1: %+v", view.Jobs[1])
	}
	if view.Jobs[2].Status != "failed" || view.Jobs[2].Err != "boom" {
		t.Fatalf("job 2: %+v", view.Jobs[2])
	}
	if view.Jobs[3].Status != "running" {
		t.Fatalf("job 3: %+v", view.Jobs[3])
	}
	if view.Counts["done"] != 1 || view.Counts["cached"] != 1 || view.Counts["failed"] != 1 || view.Counts["running"] != 1 {
		t.Fatalf("counts: %v", view.Counts)
	}

	// The stream carried the job events (interleaved with ticks).
	sawJob := false
	for i := 0; i < 64 && !sawJob; i++ {
		line, err := sse.ReadString('\n')
		if err != nil {
			t.Fatalf("stream ended early: %v", err)
		}
		sawJob = line == "event: job\n"
	}
	if !sawJob {
		t.Fatal("no job event on the SSE stream")
	}

	// The snapshot endpoint reflects the same table.
	mresp, err := http.Get(ts.URL + "/api/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var sn Snapshot
	if err := json.Unmarshal([]byte(readAll(t, mresp)), &sn); err != nil {
		t.Fatal(err)
	}
	if sn.Campaign == nil || sn.Campaign.Counts["done"] != 1 {
		t.Fatalf("snapshot campaign section: %+v", sn.Campaign)
	}
}

// TestServedParallelRunIsNonPerturbing is the package's core guarantee under
// the race detector: a sharded workload run with the dashboard attached —
// publishing at every window barrier, with HTTP clients hammering the
// metrics endpoint and the SSE stream throughout — produces MetricsJSON
// byte-identical to the same run without a server.
func TestServedParallelRunIsNonPerturbing(t *testing.T) {
	runIS := func(p *core.Prototype) []byte {
		kc := kernel.DefaultConfig()
		kc.Seed = 42
		k := kernel.New(p, kc)
		ip := workload.DefaultISParams(p.Cfg.TotalTiles())
		ip.Keys = 1 << 10
		if r := workload.RunIS(k, ip); !r.Sorted {
			t.Fatal("IS output not sorted")
		}
		m, err := p.MetricsJSON()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	// Reference: no server anywhere near the run.
	want := runIS(buildSmall(t, 2))

	// Observed: server attached, publishing from every window barrier
	// (throttle off = worst case), clients hammering both endpoints.
	p := buildSmall(t, 2)
	srv := New()
	srv.MinPublishInterval = 0
	srv.ObservePrototype(p)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/api/metrics")
				if err != nil {
					return // server shutting down
				}
				// The test's own CloseClientConnections may cut a body short;
				// a read error is a failure only while the run is still going.
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					select {
					case <-done:
					default:
						t.Errorf("mid-run metrics read: %v", err)
					}
					return
				}
				if resp.StatusCode != 200 {
					t.Errorf("mid-run metrics status %d: %s", resp.StatusCode, body)
					return
				}
				var sn Snapshot
				if err := json.Unmarshal(body, &sn); err != nil {
					t.Errorf("mid-run metrics not valid JSON: %v", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Get(ts.URL + "/api/events")
		if err != nil {
			return
		}
		defer resp.Body.Close()
		r := bufio.NewReader(resp.Body)
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := r.ReadString('\n'); err != nil {
				return
			}
		}
	}()

	got := runIS(p)
	srv.Flush()
	close(done)
	ts.CloseClientConnections()
	wg.Wait()

	if !bytes.Equal(got, want) {
		t.Errorf("MetricsJSON perturbed by the attached server (%d vs %d bytes)", len(got), len(want))
	}
	if sn := srv.snap.Load(); sn == nil || sn.Seq < 2 {
		t.Fatal("server never published during the run")
	} else if sn.Sync == nil || sn.Sync.Windows == 0 {
		t.Fatalf("final snapshot has no synchronizer progress: %+v", sn.Sync)
	}
}

// TestSampleFramesFollowTheSamplerAtBarriers: the stream carries one "sample"
// frame per sampler row, in order, from the barrier observer — on a sharded
// build too, where the sampler used to be refused.
func TestSampleFramesFollowTheSamplerAtBarriers(t *testing.T) {
	p := buildSmall(t, 2)
	p.EnableSampler(5000)
	srv := New()
	srv.ObservePrototype(p)
	sub := srv.hub.subscribe() // never drained: the run's frames fit its buffer

	k := kernel.New(p, kernel.DefaultConfig())
	ip := workload.DefaultISParams(p.Cfg.TotalTiles())
	ip.Keys = 1 << 10
	if r := workload.RunIS(k, ip); !r.Sorted {
		t.Fatal("IS output not sorted")
	}

	var got []string
	for len(sub) > 0 {
		if frame := string(<-sub); strings.HasPrefix(frame, "event: sample\n") {
			got = append(got, frame)
		}
	}
	rows := p.Sampler.Rows()
	if len(rows) < 5 || len(got) != len(rows) {
		t.Fatalf("%d sample frames for %d sampler rows", len(got), len(rows))
	}
	for i, row := range rows {
		if want := string(formatSSE("sample", row)); got[i] != want {
			t.Fatalf("frame %d = %q, want %q", i, got[i], want)
		}
	}
}

// TestServedWedgedRunStreamsOneStall serves a run that a hung PCIe link
// wedges: the drain records the stall, the final Flush publishes it, and
// the SSE stream carries exactly one "watchdog" event — however often the
// run is flushed afterwards — whose diagnosis is the prototype's, which
// /api/metrics shows too.
func TestServedWedgedRunStreamsOneStall(t *testing.T) {
	cfg := core.DefaultConfig(2, 1, 2)
	cfg.Core = core.CoreNone
	cfg.Faults = fault.MustParse("pcie.ep0.link.hang:after=4", 1)
	p, err := core.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	port := p.PortAt(cache.GID{Node: 0, Tile: 0})
	remote := p.Map.NodeDRAMBase(1) + 0x200000
	sim.Go(p.Eng, "stores", func(proc *sim.Process) {
		for i := uint64(0); i < 16; i++ {
			port.Store(proc, remote+i*64, 8, i)
		}
	})

	srv := New()
	srv.ObservePrototype(p)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/api/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sse := bufio.NewReader(resp.Body)
	if line, _ := sse.ReadString('\n'); line != "event: hello\n" {
		t.Fatalf("expected hello, got %q", line)
	}
	// Collect every watchdog payload until the test's end marker.
	frames := make(chan []string, 1)
	go func() {
		var got []string
		for event := ""; ; {
			line, err := sse.ReadString('\n')
			if err != nil {
				break
			}
			if name, ok := strings.CutPrefix(line, "event: "); ok {
				if event = strings.TrimSpace(name); event == "end" {
					break
				}
			} else if data, ok := strings.CutPrefix(line, "data: "); ok && event == "watchdog" {
				got = append(got, data)
			}
		}
		frames <- got
	}()

	p.Run()
	if p.StallDiagnosis == "" {
		t.Fatal("the hung link did not wedge the run")
	}
	srv.Flush()
	srv.Flush()
	srv.hub.Broadcast("end", nil)
	got := <-frames
	if len(got) != 1 {
		t.Fatalf("%d watchdog events, want 1: %q", len(got), got)
	}
	var wd WatchdogView
	if err := json.Unmarshal([]byte(got[0]), &wd); err != nil {
		t.Fatal(err)
	}
	if !wd.Fired || wd.Diagnosis != p.StallDiagnosis {
		t.Fatalf("watchdog event %+v, want the diagnosis\n%s", wd, p.StallDiagnosis)
	}

	var sn Snapshot
	if err := json.Unmarshal([]byte(readAll(t, mustGet(t, ts.URL+"/api/metrics"))), &sn); err != nil {
		t.Fatal(err)
	}
	if sn.Watchdog == nil || *sn.Watchdog != wd {
		t.Fatalf("/api/metrics watchdog %+v, want %+v", sn.Watchdog, wd)
	}
}

// mustGet issues a GET, failing the test on a transport error.
func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestHubDropsSlowSubscribers pins the non-blocking broadcast: a subscriber
// that never reads cannot stall the publisher.
func TestHubDropsSlowSubscribers(t *testing.T) {
	h := NewHub()
	ch := h.subscribe()
	if h.Subscribers() != 1 {
		t.Fatalf("subscribers = %d, want 1", h.Subscribers())
	}
	for i := 0; i < subBuffer*3; i++ { // must not block
		h.Broadcast("tick", map[string]int{"i": i})
	}
	if len(ch) != subBuffer {
		t.Fatalf("buffered %d frames, want full buffer %d", len(ch), subBuffer)
	}
	h.unsubscribe(ch)
	if h.Subscribers() != 0 {
		t.Fatalf("subscribers = %d after unsubscribe", h.Subscribers())
	}
	h.Broadcast("tick", nil) // no subscribers: no-op
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var b strings.Builder
	if _, err := bufio.NewReader(resp.Body).WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, b.String())
	}
	return b.String()
}
