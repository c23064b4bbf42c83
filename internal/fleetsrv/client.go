package fleetsrv

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"smappic/internal/campaign"
)

// Client talks to a fleet server. The zero value with just Server set works.
type Client struct {
	// Server is the base URL (http://host:port).
	Server string
}

// staleError marks a 409 answer: the lease (or report request) lost a race
// the protocol anticipates, and the caller should stand down, not retry.
type staleError struct{ msg string }

func (e *staleError) Error() string { return e.msg }

// isStale reports whether err tells a worker that its lease is no longer its
// own: a 409 protocol answer, or a server that does not know the worker at
// all (it restarted; only the lease call answers that today).
func isStale(err error) bool {
	_, ok := err.(*staleError)
	return ok || errors.Is(err, errUnknownWorker)
}

// do runs one JSON round trip. A nil out discards the response body.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Server+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		msg := strings.TrimSpace(string(data))
		switch {
		case resp.StatusCode == http.StatusConflict:
			return &staleError{msg: msg}
		case resp.StatusCode == http.StatusNotFound && msg == errUnknownWorker.Error():
			return errUnknownWorker // the server's own sentinel, so errors.Is works on both sides
		}
		return fmt.Errorf("fleetsrv: %s %s: %s: %s", method, path, resp.Status, msg)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// ---- worker-side calls ----

func (c *Client) register(ctx context.Context, req RegisterRequest) (*RegisterResponse, error) {
	var resp RegisterResponse
	if err := c.do(ctx, http.MethodPost, "/api/workers/register", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

func (c *Client) lease(ctx context.Context, req LeaseRequest) (*LeaseResponse, error) {
	var resp LeaseResponse
	if err := c.do(ctx, http.MethodPost, "/api/workers/lease", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

func (c *Client) heartbeat(ctx context.Context, req HeartbeatRequest) error {
	return c.do(ctx, http.MethodPost, "/api/workers/heartbeat", req, nil)
}

func (c *Client) result(ctx context.Context, req ResultRequest) error {
	return c.do(ctx, http.MethodPost, "/api/workers/result", req, nil)
}

// ---- tenant-side calls ----

// Submit sends a campaign spec for fleet execution.
func (c *Client) Submit(ctx context.Context, tenant string, priority int, spec campaign.Spec) (*SubmitResponse, error) {
	var resp SubmitResponse
	err := c.do(ctx, http.MethodPost, "/api/campaigns",
		SubmitRequest{Tenant: tenant, Priority: priority, Spec: spec}, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// Campaign fetches one campaign's progress.
func (c *Client) Campaign(ctx context.Context, id string) (*CampaignStatus, error) {
	var st CampaignStatus
	if err := c.do(ctx, http.MethodGet, "/api/campaigns/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Wait polls until the campaign completes (or ctx ends), returning the
// final status.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (*CampaignStatus, error) {
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	for {
		st, err := c.Campaign(ctx, id)
		if err != nil {
			return nil, err
		}
		if st.Complete {
			return st, nil
		}
		select {
		case <-time.After(poll):
		case <-ctx.Done():
			return st, ctx.Err()
		}
	}
}

// Report fetches the completed campaign's canonical JSON aggregate —
// byte-identical to the in-process Runner's report for the same spec.
func (c *Client) Report(ctx context.Context, id string) ([]byte, error) {
	return c.raw(ctx, "/api/campaigns/"+id+"/report")
}

// ReportCSV fetches the CSV aggregate.
func (c *Client) ReportCSV(ctx context.Context, id string) ([]byte, error) {
	return c.raw(ctx, "/api/campaigns/"+id+"/report.csv")
}

// raw fetches a non-JSON-decoded document.
func (c *Client) raw(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Server+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := readBody(resp)
	if err != nil {
		return nil, fmt.Errorf("fleetsrv: GET %s: %w", path, err)
	}
	if resp.StatusCode == http.StatusConflict {
		return nil, &staleError{msg: strings.TrimSpace(string(data))}
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fleetsrv: GET %s: %s: %s", path, resp.Status, strings.TrimSpace(string(data)))
	}
	return data, nil
}

// readBody reads a whole response body. One whose length the server
// declared, up to maxBodyBytes, is read into a buffer of exactly that size
// — a report runs to hundreds of KB, which io.ReadAll reaches by growing and
// copying — and must end there: a body shorter than its length is an error.
func readBody(resp *http.Response) ([]byte, error) {
	n := resp.ContentLength
	if n < 0 || n > maxBodyBytes {
		return io.ReadAll(resp.Body)
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(resp.Body, data); err != nil {
		return nil, err
	}
	var extra [1]byte
	if k, err := resp.Body.Read(extra[:]); k != 0 || err != io.EOF {
		return nil, fmt.Errorf("body does not end at its Content-Length %d (%v)", n, err)
	}
	return data, nil
}

// Events streams a campaign's SSE events, invoking fn with each (event,
// data) pair until the stream ends or ctx is cancelled.
func (c *Client) Events(ctx context.Context, id string, fn func(event string, data []byte)) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Server+"/api/campaigns/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("fleetsrv: events: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			fn(event, []byte(strings.TrimPrefix(line, "data: ")))
		}
	}
	if ctx.Err() != nil {
		return nil // cancelled: a clean end of watching
	}
	return sc.Err()
}
