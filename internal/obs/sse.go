package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
)

// Hub fans events out to SSE subscribers. Broadcasting never blocks: a
// subscriber whose buffer is full simply misses events (the dashboard
// re-syncs from /api/metrics on the next tick), so a slow or stuck HTTP
// client can never stall the goroutine publishing from the simulation side.
//
// Exported so other servers can reuse the same streaming discipline — the
// fleet server (internal/fleetsrv) runs one Hub per campaign for its
// progress streams.
type Hub struct {
	mu   sync.Mutex
	subs map[chan []byte]struct{}
}

// subBuffer is each subscriber's channel depth. Deep enough to ride out a
// TCP hiccup, small enough that an abandoned connection holds trivial memory.
const subBuffer = 256

// NewHub returns an empty hub.
func NewHub() *Hub {
	return &Hub{subs: make(map[chan []byte]struct{})}
}

// subscribe registers a new subscriber and returns its event channel.
func (h *Hub) subscribe() chan []byte {
	ch := make(chan []byte, subBuffer)
	h.mu.Lock()
	h.subs[ch] = struct{}{}
	h.mu.Unlock()
	return ch
}

// unsubscribe removes a subscriber. Its channel is not closed — the reader
// owns the receive loop and exits on its request context instead.
func (h *Hub) unsubscribe(ch chan []byte) {
	h.mu.Lock()
	delete(h.subs, ch)
	h.mu.Unlock()
}

// Broadcast marshals data and sends one SSE frame to every subscriber,
// dropping frames for subscribers that cannot keep up. The JSON marshal
// happens outside the lock: marshaling an arbitrary payload under h.mu
// stalled every concurrent subscribe/unsubscribe (i.e. every connecting or
// disconnecting HTTP client) for the duration of the encode.
func (h *Hub) Broadcast(event string, data any) {
	h.mu.Lock()
	empty := len(h.subs) == 0
	h.mu.Unlock()
	if empty {
		// No audience: skip the encode entirely. A subscriber arriving
		// between this check and a frame it therefore misses is identical to
		// one arriving just after the broadcast — it catches up from the
		// snapshot mailbox like any late joiner.
		return
	}
	frame := formatSSE(event, data)
	h.mu.Lock()
	for ch := range h.subs {
		select {
		case ch <- frame:
		default: // slow subscriber: drop, never block the publisher
		}
	}
	h.mu.Unlock()
}

// formatSSE renders one server-sent event frame: an event name line, the
// JSON payload on a data line, and the blank separator line.
func formatSSE(event string, data any) []byte {
	payload, err := json.Marshal(data)
	if err != nil {
		payload = []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}
	return []byte("event: " + event + "\ndata: " + string(payload) + "\n\n")
}

// ServeSSE streams hub to w as server-sent events until the request is done:
// the event-stream headers, a "hello" frame carrying hello() — called once
// subscribed, so nothing broadcast after the greeting is missed — then every
// frame the hub broadcasts, flushed as it arrives.
func ServeSSE(w http.ResponseWriter, r *http.Request, hub *Hub, hello func() any) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("Connection", "keep-alive")

	ch := hub.subscribe()
	defer hub.unsubscribe(ch)
	w.Write(formatSSE("hello", hello()))
	fl.Flush()
	for {
		select {
		case frame := <-ch:
			if _, err := w.Write(frame); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}
