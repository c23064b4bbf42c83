package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer: times are nanoseconds since the
// tracer started, Parent is the ID of the span that caused it (0 = a root:
// one per repetition or campaign, and one per worker-side request).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory; the file is written once, at exit. A nil
// tracer records nothing, which is how the untraced runs stay untraced.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 from a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// durations returns the lengths of every finished span whose name matches.
func (t *tracer) durations(match func(name string) bool) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.End > 0 && match(s.Name) {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

func named(name string) func(string) bool {
	return func(n string) bool { return n == name }
}

// writeFile writes every span as one JSON array and returns how many.
func (t *tracer) writeFile(path string) (int, error) {
	t.mu.Lock()
	n := len(t.spans)
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return 0, err
	}
	return n, os.WriteFile(path, append(data, '\n'), 0o644)
}

// parentKey carries the calling span through a context, so an HTTP request
// issued inside Client.Submit is recorded as Submit's child.
type parentKey struct{}

func withParent(ctx context.Context, id int) context.Context {
	if id == 0 {
		return ctx
	}
	return context.WithValue(ctx, parentKey{}, id)
}

// spanTransport times every HTTP request into the tracer tr returns at
// that moment (nil: not recorded). A request's span ends when the response
// headers are in (bodies here are small, the report aside).
type spanTransport struct {
	tr   func() *tracer
	base http.RoundTripper
}

func (s spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tr := s.tr()
	parent, _ := req.Context().Value(parentKey{}).(int)
	id := tr.begin("http "+req.Method+" "+route(req.URL.Path), parent)
	resp, err := s.base.RoundTrip(req)
	tr.end(id)
	return resp, err
}

// route replaces the campaign ID in a path, so spans group by endpoint.
func route(path string) string {
	parts := strings.Split(path, "/")
	for i := range parts {
		if i > 0 && parts[i-1] == "campaigns" {
			parts[i] = "{id}"
		}
	}
	return strings.Join(parts, "/")
}
