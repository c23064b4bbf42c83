package obs

import (
	"sync"
	"testing"
	"time"
)

// TestHubBroadcastStormVsChurn hammers Broadcast from several publishers
// while subscribers churn on and off — the contention shape where marshaling
// under the hub lock used to stall every connecting client. Run under -race
// in CI; the assertion here is "no deadlock, no race, frames still flow".
func TestHubBroadcastStormVsChurn(t *testing.T) {
	h := NewHub()
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Publishers: a broadcast storm with a non-trivial payload, so the
	// marshal takes long enough to matter.
	payload := map[string]any{
		"seq": 1, "labels": []string{"a", "b", "c", "d"},
		"nested": map[string]int{"x": 1, "y": 2, "z": 3},
	}
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					h.Broadcast("tick", payload)
				}
			}
		}()
	}

	// Churners: subscribe, drain a little, unsubscribe, repeat.
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ch := h.subscribe()
				for i := 0; i < 8; i++ {
					select {
					case <-ch:
					case <-stop:
						h.unsubscribe(ch)
						return
					}
				}
				h.unsubscribe(ch)
			}
		}()
	}

	// A steady subscriber proving frames actually flow during the churn.
	got := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		ch := h.subscribe()
		defer h.unsubscribe(ch)
		n := 0
		for n < 100 {
			select {
			case <-ch:
				n++
			case <-stop:
				return
			}
		}
		close(got)
	}()

	select {
	case <-got:
	case <-time.After(10 * time.Second):
		t.Error("steady subscriber starved: no 100 frames within 10s")
	}
	close(stop)
	wg.Wait()
	if h.Subscribers() != 0 {
		t.Fatalf("subscribers = %d after churn, want 0", h.Subscribers())
	}
}
