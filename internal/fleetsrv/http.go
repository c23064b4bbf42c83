package fleetsrv

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"smappic/internal/obs"
)

// Protocol errors, mapped to HTTP statuses by the handlers.
var (
	errUnknownWorker   = errors.New("fleetsrv: unknown worker")
	errUnknownCampaign = errors.New("fleetsrv: unknown campaign")
	errStaleLease      = errors.New("fleetsrv: stale lease")
	errIncomplete      = errors.New("fleetsrv: campaign incomplete")
	// errRender marks a report that did not render, errPersist a submission
	// whose record did not reach the disk: the server's fault, not the
	// request's.
	errRender  = errors.New("fleetsrv: render report")
	errPersist = errors.New("fleetsrv: persist submission")
)

// httpStatus maps a protocol error to its wire status. Stale leases are 409
// (the worker must abandon the job), incomplete reports too (retry later),
// unknown IDs are 404, a report that does not render or a submission that
// is not persisted is 500.
func httpStatus(err error) int {
	switch {
	case errors.Is(err, errRender), errors.Is(err, errPersist):
		return http.StatusInternalServerError
	case errors.Is(err, errStaleLease), errors.Is(err, errIncomplete):
		return http.StatusConflict
	case errors.Is(err, errUnknownWorker), errors.Is(err, errUnknownCampaign):
		return http.StatusNotFound
	default:
		return http.StatusBadRequest
	}
}

// writeJSON writes one JSON response document.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// maxBodyBytes bounds every request body the server reads. The largest
// legitimate one is a ResultRequest carrying a full metrics document plus the
// counter snapshot: 50 KB of metrics for the 48-tile 4x1x12 shape, 87 KB for
// 4x4x4, so 8 MiB is well over an order of magnitude of headroom and still
// nothing one tenant can exhaust the shared server with.
const maxBodyBytes = 8 << 20

// readJSON decodes a request body of at most maxBodyBytes, rejecting unknown
// fields. When it reports false it has already answered: 413 with a JSON
// error for an oversize body, 400 for anything else that does not decode.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if !errors.As(err, &tooBig) {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return false
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusRequestEntityTooLarge)
	json.NewEncoder(w).Encode(map[string]any{
		"error":       "fleetsrv: request body too large",
		"limit_bytes": tooBig.Limit,
	})
	return false
}

// Handler returns the fleet API mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /api/campaigns/{id}", s.handleCampaign)
	mux.HandleFunc("GET /api/campaigns/{id}/report", s.handleReport)
	mux.HandleFunc("GET /api/campaigns/{id}/report.csv", s.handleReportCSV)
	mux.HandleFunc("GET /api/campaigns/{id}/events", s.handleEvents)
	mux.HandleFunc("POST /api/workers/register", s.handleRegister)
	mux.HandleFunc("POST /api/workers/lease", s.handleLease)
	mux.HandleFunc("POST /api/workers/heartbeat", s.handleHeartbeat)
	mux.HandleFunc("POST /api/workers/result", s.handleResult)
	mux.HandleFunc("GET /api/status", s.handleStatus)
	return mux
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if !readJSON(w, r, &req) {
		return
	}
	resp, err := s.submit(req)
	if err != nil {
		http.Error(w, err.Error(), httpStatus(err))
		return
	}
	writeJSON(w, resp)
}

func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	st, err := s.campaignStatus(r.PathValue("id"))
	if err != nil {
		http.Error(w, err.Error(), httpStatus(err))
		return
	}
	writeJSON(w, st)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	out, err := s.report(r.PathValue("id"))
	if err != nil {
		http.Error(w, err.Error(), httpStatus(err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(out)))
	w.Write(out)
}

func (s *Server) handleReportCSV(w http.ResponseWriter, r *http.Request) {
	cr, err := s.campaignResult(r.PathValue("id"))
	if err != nil {
		http.Error(w, err.Error(), httpStatus(err))
		return
	}
	out := cr.Aggregate().CSV()
	w.Header().Set("Content-Type", "text/csv")
	w.Header().Set("Content-Length", strconv.Itoa(len(out)))
	io.WriteString(w, out)
}

// handleEvents streams a campaign's job lifecycle over SSE, reusing the obs
// hub discipline: non-blocking broadcasts, slow clients drop frames, and a
// greeting with the current status so late joiners have a starting point.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	run, ok := s.campaigns[id]
	var hello CampaignStatus
	if ok {
		hello = s.statusLocked(run)
	}
	s.mu.Unlock()
	if !ok {
		http.Error(w, errUnknownCampaign.Error(), http.StatusNotFound)
		return
	}
	obs.ServeSSE(w, r, run.hub, func() any { return hello })
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !readJSON(w, r, &req) {
		return
	}
	writeJSON(w, s.register(req))
}

func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !readJSON(w, r, &req) {
		return
	}
	resp, err := s.leaseNext(req)
	if err != nil {
		http.Error(w, err.Error(), httpStatus(err))
		return
	}
	if resp.Job != nil && r.Context().Err() != nil {
		// The worker has gone and the grant cannot reach it: give the job
		// back as a worker returning it would, rather than let it wait out
		// the lease TTL. Returning a lease just granted cannot fail.
		// net/http watches for the peer's close only once the body is
		// read, so a close it has not seen yet still costs the TTL.
		_ = s.result(ResultRequest{WorkerID: req.WorkerID, LeaseID: resp.Job.LeaseID,
			CampaignID: resp.Job.CampaignID, Index: resp.Job.Index})
		return
	}
	writeJSON(w, resp)
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !readJSON(w, r, &req) {
		return
	}
	if err := s.heartbeat(req); err != nil {
		http.Error(w, err.Error(), httpStatus(err))
		return
	}
	writeJSON(w, map[string]bool{"ok": true})
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	var req ResultRequest
	if !readJSON(w, r, &req) {
		return
	}
	if err := s.result(req); err != nil {
		http.Error(w, err.Error(), httpStatus(err))
		return
	}
	writeJSON(w, map[string]bool{"ok": true})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.fleetStatus())
}

// Start listens on addr and serves in a background goroutine, with a janitor
// tick expiring leases even when no traffic arrives. It returns the bound
// address, so ":0" works in tests and scripts.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.httpSrv = &http.Server{Handler: s.Handler()}
	go s.httpSrv.Serve(ln)
	go s.janitor()
	return ln.Addr().String(), nil
}

// janitor expires leases on a timer until the server closes.
func (s *Server) janitor() {
	tick := time.NewTicker(s.leaseTTL() / 2)
	defer tick.Stop()
	for range tick.C {
		s.mu.Lock()
		closed := s.httpSrv == nil
		if !closed {
			s.expireLocked()
		}
		s.mu.Unlock()
		if closed {
			return
		}
	}
}

// Close shuts the listener down, cutting in-flight SSE streams, and closes
// the journal.
func (s *Server) Close() error {
	s.mu.Lock()
	srv, journal := s.httpSrv, s.journal
	s.httpSrv, s.journal = nil, nil
	s.mu.Unlock()
	var err error
	if srv != nil {
		err = srv.Close()
	}
	if journal != nil {
		if cerr := journal.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
