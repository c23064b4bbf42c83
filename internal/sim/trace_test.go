package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

// fill emits n instant events on alternating tracks, one per cycle.
func fillTracer(eng *Engine, tr *Tracer, n int) {
	for i := 0; i < n; i++ {
		i := i
		eng.Schedule(Time(i+1), func() {
			track := "node0.tile0"
			if i%2 == 1 {
				track = "node1.bridge"
			}
			tr.Instant(track, CatBridge, fmt.Sprintf("ev%d", i))
		})
	}
	eng.Run()
}

// After the ring wraps, Events must return the newest `cap` events in
// emission order, oldest first.
func TestTracerWrapKeepsEmissionOrder(t *testing.T) {
	eng := NewEngine()
	tr := NewTracer(eng, 4)
	fillTracer(eng, tr, 10)
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		want := fmt.Sprintf("ev%d", 6+i)
		if ev.Name != want {
			t.Fatalf("event %d = %q, want %q", i, ev.Name, want)
		}
		if i > 0 && evs[i-1].At > ev.At {
			t.Fatalf("events out of time order: %d after %d", evs[i-1].At, ev.At)
		}
	}
}

// Two identical runs must render byte-identical text and Chrome traces:
// trace diffs across same-seed runs are the debugging workflow the
// single-threaded deterministic engine guarantees.
func TestTraceOutputsDeterministic(t *testing.T) {
	render := func() (string, []byte) {
		eng := NewEngine()
		tr := NewTracer(eng, 64)
		fillTracer(eng, tr, 20)
		var buf bytes.Buffer
		if err := WriteChrome(&buf, tr); err != nil {
			t.Fatalf("WriteChrome: %v", err)
		}
		return tr.String(), buf.Bytes()
	}
	s1, c1 := render()
	s2, c2 := render()
	if s1 != s2 {
		t.Fatal("same-seed text traces differ")
	}
	if !bytes.Equal(c1, c2) {
		t.Fatal("same-seed Chrome traces differ")
	}
}

// The export takes one ring per node and writes them one after the other:
// every ring's events appear, in ring order, under process and thread tracks
// numbered from the sorted names of all of them.
func TestWriteChromeValidJSONWithProcessTracks(t *testing.T) {
	eng := NewEngine()
	n0, n1 := NewTracer(eng, 64), NewTracer(eng, 64)
	eng.Schedule(1, func() { n1.EmitT("node1.tile2", CatCoherence, "line=%#x", 0x40) })
	eng.Schedule(2, func() { n0.Instant("node0.bridge", CatBridge, "tx") })
	eng.Schedule(3, func() { n1.Instant("node1.bridge", CatBridge, "rx") })
	eng.Schedule(4, func() { n0.EmitT("node0", CatMMIO, "read uart0") })
	eng.Run()

	var buf bytes.Buffer
	if err := WriteChrome(&buf, n0, nil, n1); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			PID   int            `json:"pid"`
			TID   int            `json:"tid"`
			TS    uint64         `json:"ts"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}

	pids := map[int]bool{}
	var procNames, threadNames int
	var stamps []uint64
	for _, ev := range doc.TraceEvents {
		pids[ev.PID] = true
		switch {
		case ev.Name == "process_name":
			procNames++
		case ev.Name == "thread_name":
			threadNames++
		case ev.Phase == "i":
			stamps = append(stamps, ev.TS)
		default:
			t.Fatalf("unexpected event %+v", ev)
		}
	}
	if procNames != 2 || len(pids) != 2 {
		t.Fatalf("want 2 process tracks, got %d names over %d pids", procNames, len(pids))
	}
	if threadNames != 4 {
		t.Fatalf("want 4 thread tracks (node0, node0.bridge, node1.bridge, node1.tile2), got %d", threadNames)
	}
	if fmt.Sprint(stamps) != "[2 4 1 3]" {
		t.Fatalf("event timestamps %v, want node0's ring [2 4] then node1's [1 3]", stamps)
	}
}

func TestWriteChromeNilTracerEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, nil); err != nil {
		t.Fatalf("WriteChrome on nil tracer: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil tracer produced invalid JSON: %v", err)
	}
}
