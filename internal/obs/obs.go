// Package obs is the live observability server: an HTTP endpoint that
// attaches read-only to a running Prototype and/or a fleet campaign and
// serves
//
//   - GET /            an embedded, dependency-free dashboard (NoC link
//     heatmap, per-shard window occupancy, fleet job queue),
//   - GET /api/metrics the latest published Snapshot as JSON,
//   - GET /api/events  a server-sent-event stream of publish ticks, sampler
//     rows, watchdog transitions and campaign job lifecycle events.
//
// Non-perturbation contract: the server NEVER touches live simulator state
// from an HTTP handler. All state crosses from the simulation to the HTTP
// side through an explicit snapshot mailbox (an atomic pointer to an
// immutable Snapshot) that is written only by Publish, and Publish runs only
// at the one quiescent boundary there is — a window barrier (Group.OnBarrier,
// which every build has: a serial run is a one-shard group).
// Publishing schedules no events, mutates no
// registries, and allocates only host-side memory, so a run with the server
// attached is byte-identical to one without — enforced by the golden and
// differential tests.
package obs

import (
	_ "embed"
	"encoding/json"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"smappic/internal/campaign"
	"smappic/internal/core"
	"smappic/internal/sim"
)

//go:embed dashboard.html
var dashboardHTML []byte

// Server is the observability HTTP server. Construct with New, attach a
// source with ObservePrototype and/or feed campaign events to CampaignEvent,
// then Start it (or mount Handler in a test server).
type Server struct {
	// MinPublishInterval rate-limits snapshot building against the wall
	// clock: Publish calls closer together than this are dropped (Flush is
	// never dropped). Window barriers can be microseconds apart; building a
	// full snapshot at each would slow the run down (it would still be
	// deterministic — throttling only affects what HTTP clients see, never
	// the simulation). Zero publishes every boundary.
	MinPublishInterval time.Duration

	proto *core.Prototype

	seq     atomic.Uint64
	snap    atomic.Pointer[Snapshot]
	lastPub atomic.Int64 // wall-clock nanos of the last accepted Publish
	hub     *Hub

	campMu sync.Mutex
	camp   *campaignState

	wdFired atomic.Bool // last observed watchdog state, for edge detection

	httpSrv *http.Server
}

// campaignState is the mutable job table behind CampaignView.
type campaignState struct {
	total  int
	jobs   map[int]*JobView
	counts map[string]int
}

// New returns a server with an empty mailbox and the default publish
// throttle (100ms).
func New() *Server {
	return &Server{
		MinPublishInterval: 100 * time.Millisecond,
		hub:                NewHub(),
	}
}

// ObservePrototype attaches the server read-only to a prototype and
// publishes an initial snapshot. Call before the run starts, after
// EnableSampler. It observes the window barrier: every barrier publishes
// (MinPublishInterval throttles what is actually built — barriers can be
// microseconds apart), and one at which the sampler took a row forwards the
// row on the SSE stream first.
func (s *Server) ObservePrototype(p *core.Prototype) {
	s.proto = p
	var streamed sim.Time // cycle of the last sampler row forwarded
	p.Group.OnBarrier(func() {
		if p.Sampler != nil {
			if rows := p.Sampler.Rows(); len(rows) > 0 && rows[len(rows)-1].At > streamed {
				streamed = rows[len(rows)-1].At
				s.hub.Broadcast("sample", rows[len(rows)-1])
			}
		}
		s.Publish()
	})
	// The simulation has not started: building the first snapshot here is
	// trivially safe, and guarantees /api/metrics never 404s.
	s.Flush()
}

// Publish builds a fresh snapshot, stores it in the mailbox and notifies the
// SSE stream. It must be called only while the observed simulation is
// quiescent (see the package contract); calls arriving faster than
// MinPublishInterval are dropped.
func (s *Server) Publish() {
	if min := s.MinPublishInterval; min > 0 {
		now := time.Now().UnixNano()
		last := s.lastPub.Load()
		if now-last < int64(min) || !s.lastPub.CompareAndSwap(last, now) {
			return
		}
	}
	s.publish()
}

// Flush publishes unconditionally — the final state of a run, or the first
// snapshot at attach time.
func (s *Server) Flush() {
	s.lastPub.Store(time.Now().UnixNano())
	s.publish()
}

func (s *Server) publish() {
	sn := &Snapshot{Seq: s.seq.Add(1), WallMs: time.Now().UnixMilli()}
	if s.proto != nil {
		buildPrototypeView(sn, s.proto)
	}
	sn.Campaign = s.campaignView()
	s.snap.Store(sn)

	// Edge-detect a watchdog stall so the stream carries the diagnosis once.
	if wd := sn.Watchdog; wd != nil && wd.Fired && !s.wdFired.Swap(true) {
		s.hub.Broadcast("watchdog", wd)
	}
	s.hub.Broadcast("tick", tickEvent(sn))
}

// tickEvent is the light SSE notification sent on every publish: enough for
// the dashboard to render progress and decide when to refetch /api/metrics.
func tickEvent(sn *Snapshot) map[string]any {
	ev := map[string]any{"seq": sn.Seq, "wall_ms": sn.WallMs}
	if sn.Meta != nil {
		ev["cycles"] = sn.Meta.Cycles
		ev["halted"] = sn.Meta.Halted
	}
	if sn.Sync != nil {
		ev["windows"] = sn.Sync.Windows
		ev["horizon"] = sn.Sync.Horizon
		ev["width"] = sn.Sync.Width
		ev["shards"] = sn.Sync.Shards
	}
	if sn.Campaign != nil {
		ev["campaign"] = sn.Campaign.Counts
	}
	return ev
}

// CampaignEvent feeds one runner lifecycle event into the job table, streams
// it, and refreshes the snapshot. Safe for concurrent use — hang it directly
// on campaign.Runner.OnEvent.
func (s *Server) CampaignEvent(ev campaign.Event) {
	s.campMu.Lock()
	if s.camp == nil {
		s.camp = &campaignState{jobs: make(map[int]*JobView), counts: make(map[string]int)}
	}
	c := s.camp
	c.total = ev.Total
	jv, ok := c.jobs[ev.Index]
	if !ok {
		jv = &JobView{Index: ev.Index}
		c.jobs[ev.Index] = jv
	}
	jv.Label = ev.Label
	switch ev.Type {
	case campaign.EventStarted:
		jv.Status = "running"
		jv.Attempt = ev.Attempt
	case campaign.EventCacheHit:
		jv.Status = "cached"
		jv.Cycles = ev.Cycles
	case campaign.EventStallRetry, campaign.EventPanicRetry:
		jv.Status = "retrying"
		jv.Attempt = ev.Attempt + 1
		jv.Err = ev.Err
	case campaign.EventDone:
		jv.Status = "done"
		jv.Attempt = ev.Attempt
		jv.Cycles = ev.Cycles
		jv.Err = ""
	case campaign.EventFailed:
		jv.Status = "failed"
		jv.Err = ev.Err
	case campaign.EventSkipped:
		jv.Status = "skipped"
		jv.Err = ev.Err
	}
	c.counts = make(map[string]int)
	for _, j := range c.jobs {
		c.counts[j.Status]++
	}
	s.campMu.Unlock()

	s.hub.Broadcast("job", ev)
	s.Publish()
}

// campaignView deep-copies the job table for a snapshot.
func (s *Server) campaignView() *CampaignView {
	s.campMu.Lock()
	defer s.campMu.Unlock()
	if s.camp == nil {
		return nil
	}
	c := s.camp
	view := &CampaignView{
		Total:  c.total,
		Counts: make(map[string]int, len(c.counts)),
		Jobs:   make([]JobView, 0, len(c.jobs)),
	}
	for k, v := range c.counts {
		view.Counts[k] = v
	}
	for _, j := range c.jobs {
		view.Jobs = append(view.Jobs, *j)
	}
	// Index order, so the dashboard's table is stable.
	for i := 1; i < len(view.Jobs); i++ {
		for j := i; j > 0 && view.Jobs[j].Index < view.Jobs[j-1].Index; j-- {
			view.Jobs[j], view.Jobs[j-1] = view.Jobs[j-1], view.Jobs[j]
		}
	}
	return view
}

// Handler returns the server's HTTP mux: the dashboard at /, the snapshot
// mailbox at /api/metrics, and the SSE stream at /api/events.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", s.handleIndex)
	mux.HandleFunc("GET /api/metrics", s.handleMetrics)
	mux.HandleFunc("GET /api/events", s.handleEvents)
	return mux
}

func (s *Server) handleIndex(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write(dashboardHTML)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	sn := s.snap.Load()
	if sn == nil {
		sn = &Snapshot{} // attached to nothing yet: an empty, valid document
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "no-store")
	enc := json.NewEncoder(w)
	enc.Encode(sn)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	// Greet with the latest snapshot's tick, so a subscriber always receives
	// a first event without waiting for the next publish (the CI smoke test
	// and reconnecting dashboards rely on this).
	ServeSSE(w, r, s.hub, func() any {
		if sn := s.snap.Load(); sn != nil {
			return tickEvent(sn)
		}
		return map[string]any{"seq": 0}
	})
}

// Start listens on addr (e.g. ":8080" or "127.0.0.1:0") and serves in a
// background goroutine. It returns the bound address, so ":0" works in
// tests and scripts.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.httpSrv = &http.Server{Handler: s.Handler()}
	go s.httpSrv.Serve(ln)
	return ln.Addr().String(), nil
}

// Close shuts the listener down. In-flight SSE streams are cut.
func (s *Server) Close() error {
	if s.httpSrv == nil {
		return nil
	}
	return s.httpSrv.Close()
}
