package main

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"
)

// TestSmoke runs every workload, untraced and traced (probes included), at
// a tiny size, and checks that what the harness prints is exactly what
// BENCHMARK.json declares: the same workloads, the same end-to-end metrics
// untraced, the same per-layer metrics traced, with the same units. Harness
// and JSON cannot drift apart, and a layer API the harness calls cannot
// change without this failing to build.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all six workloads; skipped under -short")
	}
	spec, err := readBenchmarkSpec()
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	if have := workloadNames(); !reflect.DeepEqual(have, declared) {
		t.Fatalf("workloads: harness has %v, BENCHMARK.json declares %v", have, declared)
	}
	units := func(defs []metricDef) map[string]string {
		m := map[string]string{}
		for _, d := range defs {
			m[d.name] = d.unit
		}
		return m
	}
	wantE2E, wantLayer := map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		wantE2E[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		wantLayer[m.Name] = m.Unit
	}
	if have := units(endToEnd); !reflect.DeepEqual(have, wantE2E) {
		t.Errorf("end-to-end metrics: harness has %v, BENCHMARK.json declares %v", have, wantE2E)
	}
	if have := units(perLayer); !reflect.DeepEqual(have, wantLayer) {
		t.Errorf("per-layer metrics differ from BENCHMARK.json:\nharness %v\ndeclared %v", sortedKeys(have), sortedKeys(wantLayer))
	}

	dir := t.TempDir()
	for _, name := range declared {
		for _, trace := range []bool{false, true} {
			o := options{workload: name, seed: 3, seconds: 0.05, trace: trace, small: true,
				spans: filepath.Join(dir, name+"-spans.json")}
			res, err := runWorkload(o)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", name, trace, err)
			}
			if !res.Correct {
				t.Errorf("%s (trace %v): %d of %d outputs wrong: %v", name, trace, res.Failed, res.Attempted, res.Failures)
			}
			want := wantE2E
			if trace {
				want = wantLayer
			}
			printed := map[string]string{}
			for metric, m := range res.Metrics {
				printed[metric] = m.Unit
			}
			if !reflect.DeepEqual(printed, want) {
				t.Errorf("%s (trace %v): printed %v, declared %v", name, trace, sortedKeys(printed), sortedKeys(want))
			}
			// The driver-facing line has exactly the four contract keys.
			var line map[string]json.RawMessage
			if err := json.Unmarshal([]byte(res.line()), &line); err != nil {
				t.Fatal(err)
			}
			if have := sortedKeys(line); !reflect.DeepEqual(have, []string{"attempted", "correct", "failed", "metrics"}) {
				t.Errorf("%s: result line has keys %v", name, have)
			}
			if !trace {
				for metric, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v; must never be 0", name, metric, m.Value)
					}
				}
			}
		}
	}
}

// TestClassify pins the CPU-profile bucketing on names seen in real
// profiles of the six workloads.
func TestClassify(t *testing.T) {
	for fn, want := range map[string]string{
		"smappic/internal/sim.(*Engine).Step":                                "sim",
		"smappic/internal/shell.(*Shell).Write":                              "axi_shell",
		"smappic/internal/fault.(*Site).Transfer":                            "other",
		"slices.Index[go.shape.[]smappic/internal/sim.Time,go.shape.uint64]": "sim",
		"runtime.chansend":                                                   "runtime_sched",
		"runtime.gopark":                                                     "runtime_sched",
		"sync.(*Cond).Wait":                                                  "runtime_sched",
		"runtime.mallocgc":                                                   "runtime_gc",
		"runtime.scanobject":                                                 "runtime_gc",
		"runtime.memmove":                                                    "other",
		"encoding/json.(*encodeState).string":                                "encoding",
		"slices.partitionCmpFunc[go.shape.struct { encoding/json.v reflect.Value }]": "encoding",
		"internal/poll.(*FD).Read": "syscall_net",
		"syscall.Syscall":          "syscall_net",
		"crypto/sha256.block":      "other",
	} {
		if got := classify(fn); got != want {
			t.Errorf("classify(%q) = %s, want %s", fn, got, want)
		}
	}
}
