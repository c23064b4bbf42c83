package sim

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Chrome trace-event export: the retained ring buffers render as one JSON
// document loadable by chrome://tracing and Perfetto (ui.perfetto.dev).
// Each distinct track prefix up to the first "." becomes a process
// ("node0", "node1", ...) and each full track name a thread within it
// ("node0.tile3", "node0.bridge"), so multi-node prototypes display one
// swimlane group per node. Timestamps are simulation cycles presented as
// trace microseconds (1 cycle == 1 us on the viewer's axis).
//
// The export is deterministic: ids are assigned from sorted name sets and
// events appear ring after ring, each in emission order (viewers place events
// by timestamp, so the document needs no global order), so two same-seed runs
// produce byte-identical files.

// chromeEvent is one trace-event JSON record. Field order is fixed by the
// struct, keeping output deterministic.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    uint64         `json:"ts"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// procOf maps a track name to its process (swimlane group) name.
func procOf(track string) string {
	if i := strings.IndexByte(track, '.'); i > 0 {
		return track[:i]
	}
	return track
}

// WriteChrome writes the events the rings retain, concatenated in argument
// order, as a Chrome trace-event JSON document. Nil tracers contribute
// nothing; with no events the result is a valid empty trace.
func WriteChrome(w io.Writer, rings ...*Tracer) error {
	var events []TraceEvent
	for _, t := range rings {
		events = append(events, t.Events()...)
	}

	// Assign deterministic pids/tids from the sorted name sets.
	trackSet := make(map[string]struct{})
	for _, ev := range events {
		trackSet[ev.Track] = struct{}{}
	}
	tracks := make([]string, 0, len(trackSet))
	for tr := range trackSet {
		tracks = append(tracks, tr)
	}
	sort.Strings(tracks)

	pids := make(map[string]int)
	tids := make(map[string]int)
	var procs []string
	for _, tr := range tracks {
		p := procOf(tr)
		if _, ok := pids[p]; !ok {
			pids[p] = len(pids) + 1
			procs = append(procs, p)
		}
		tids[tr] = len(tids) + 1
	}

	var out []chromeEvent
	for _, p := range procs {
		out = append(out, chromeEvent{
			Name: "process_name", Phase: "M", PID: pids[p],
			Args: map[string]any{"name": p},
		})
	}
	for _, tr := range tracks {
		out = append(out, chromeEvent{
			Name: "thread_name", Phase: "M", PID: pids[procOf(tr)], TID: tids[tr],
			Args: map[string]any{"name": tr},
		})
	}
	for _, ev := range events {
		ce := chromeEvent{
			Cat:   ev.Category,
			Phase: "i",
			Scope: "t",
			TS:    uint64(ev.At),
			PID:   pids[procOf(ev.Track)],
			TID:   tids[ev.Track],
		}
		if ce.Name = ev.Name; ce.Name == "" {
			ce.Name = ev.Category
		}
		if ev.Message != "" {
			ce.Args = map[string]any{"msg": ev.Message}
		}
		out = append(out, ce)
	}

	if _, err := io.WriteString(w, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i, ce := range out {
		b, err := json.Marshal(ce)
		if err != nil {
			return err
		}
		sep := ",\n"
		if i == len(out)-1 {
			sep = "\n"
		}
		if _, err := fmt.Fprintf(w, "%s%s", b, sep); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]}\n")
	return err
}
