package sim

import (
	"fmt"
	"strings"
)

// Trace categories shared across packages, so exporters see consistent
// labels no matter which subsystem emitted an event.
const (
	CatCoherence = "coherence" // cache protocol messages
	CatMMIO      = "mmio"      // uncacheable device accesses
	CatBridge    = "bridge"    // inter-node bridge activity
)

// Tracer records cycle-stamped events into a bounded ring buffer — the
// debugging companion to the Stats counters. It is nil-safe: all methods
// are no-ops on a nil receiver, so models can trace unconditionally and
// pay nothing unless a tracer is installed. Call sites that format
// arguments should still guard with Enabled() to avoid boxing them for a
// nil tracer.
//
// A ring belongs to one engine: events are stamped with that engine's clock
// and recorded from its goroutine only, so a ring per simulated node holds
// that node's events in the same order under every sharding.
type Tracer struct {
	eng     *Engine
	cap     int
	events  []TraceEvent
	next    int
	wrapped bool
}

// TraceEvent is one recorded occurrence. Track names the timeline the event
// belongs to ("node0.tile3", "node1.bridge").
type TraceEvent struct {
	At       Time
	Category string
	Track    string
	Name     string
	Message  string
}

// Text returns the human-readable label of the event.
func (ev TraceEvent) Text() string {
	if ev.Message != "" {
		return ev.Message
	}
	return ev.Name
}

// NewTracer creates a tracer holding the last capacity events.
func NewTracer(eng *Engine, capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Tracer{eng: eng, cap: capacity, events: make([]TraceEvent, 0, capacity)}
}

// Enabled reports whether events will be recorded; callers building
// expensive event payloads should check it first.
func (t *Tracer) Enabled() bool { return t != nil }

// EmitT records a formatted event on a track at the current simulation time.
func (t *Tracer) EmitT(track, category, format string, args ...any) {
	if t == nil {
		return
	}
	t.record(TraceEvent{
		At: t.eng.Now(), Category: category, Track: track,
		Message: fmt.Sprintf(format, args...),
	})
}

// Instant records an unformatted point event — the cheap emission path for
// hot subsystems (no fmt, no argument boxing).
func (t *Tracer) Instant(track, category, name string) {
	if t == nil {
		return
	}
	t.record(TraceEvent{At: t.eng.Now(), Category: category, Track: track, Name: name})
}

func (t *Tracer) record(ev TraceEvent) {
	if len(t.events) < t.cap {
		t.events = append(t.events, ev)
		return
	}
	t.events[t.next] = ev
	t.next = (t.next + 1) % t.cap
	t.wrapped = true
}

// Events returns the recorded events in emission order.
func (t *Tracer) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	if !t.wrapped {
		out := make([]TraceEvent, len(t.events))
		copy(out, t.events)
		return out
	}
	out := make([]TraceEvent, 0, t.cap)
	out = append(out, t.events[t.next:]...)
	out = append(out, t.events[:t.next]...)
	return out
}

// Len returns the number of retained events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// String renders the retained events, one per line.
func (t *Tracer) String() string {
	var b strings.Builder
	for _, ev := range t.Events() {
		fmt.Fprintf(&b, "%10d %-12s %s\n", ev.At, ev.Category, ev.Text())
	}
	return b.String()
}
