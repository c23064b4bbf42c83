// Command benchmark is this repository's measurement spine: six named
// workloads that drive the simulator, the checkpoint path and the fleet
// service from outside, through the layers' public functions, and report
// end-to-end and per-layer numbers under one schema (BENCHMARK.json at the
// repository root declares the names, units, directions and bounds).
//
// One workload, as the benchmark driver runs it (from the repository root):
//
//	bash benchmark/run.sh --workload numa48-serial --seed 1 --seconds 10 --trace 0
//
// Every workload in its own process, untraced then traced, into one file:
//
//	bash benchmark/run.sh -all -seed 1 -trace 1 -out set.json
//
// Two result sets against the declared bounds:
//
//	bash benchmark/run.sh -compare a.json b.json
//
// The last line of a single-workload run is one JSON object with the keys
// correct, attempted, failed and metrics; everything above it is for people.
// See README.md for what each workload and metric is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"
)

// options are the command-line settings of one workload run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	small    bool   // smoke-test sizes
	spans    string // span file path (traced runs)
	out      string // full result file path
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one workload run produced. The driver sees only
// the four keys of line(); result sets written by -out keep all of it.
type result struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Trace     bool     `json:"trace"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	Notes     []string `json:"notes,omitempty"`
	Samples   int      `json:"samples"`
	// UnitSeconds is the wall time of every repetition or campaign of the
	// timed part, in completion order (per loop for fleet-cold).
	UnitSeconds []float64         `json:"unit_seconds"`
	Metrics     map[string]metric `json:"metrics"`
	// Counts are exact for a seed: they must repeat run to run, traced or
	// not, and -compare treats any difference as a failure.
	Counts    map[string]uint64 `json:"counts"`
	SimDigest string            `json:"sim_digest,omitempty"`
	Host      hostInfo          `json:"host"`
}

// line renders the driver-facing last line.
func (r *result) line() string {
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err) // plain maps of floats and strings always encode
	}
	return string(out)
}

// print writes the human-readable block: every metric by name with its
// unit and the sample count behind it, then the exact counts.
func (r *result) print() {
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	fmt.Printf("== %s  seed %d  %s  (%s)\n", r.Workload, r.Seed, mode, r.Host)
	for _, name := range sortedKeys(r.Metrics) {
		m := r.Metrics[name]
		fmt.Printf("%-34s %16.6g %-9s n=%d\n", name, m.Value, m.Unit, r.Samples)
	}
	for _, name := range sortedKeys(r.Counts) {
		fmt.Printf("%-34s %16d count\n", name, r.Counts[name])
	}
	if r.SimDigest != "" {
		fmt.Printf("%-34s %s\n", "sim_digest", r.SimDigest)
	}
	fmt.Printf("%-34s %d/%d\n", "failed/attempted", r.Failed, r.Attempted)
	for _, f := range r.Failures {
		fmt.Printf("FAIL %s\n", f)
	}
	for _, n := range r.Notes {
		fmt.Printf("NOTE %s\n", n)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// resultSet is the file -all writes and -compare reads.
type resultSet struct {
	Seed    uint64    `json:"seed"`
	Seconds float64   `json:"seconds"`
	Host    hostInfo  `json:"host"`
	Results []*result `json:"results"`
}

func main() {
	var o options
	var trace int
	var all, compare bool
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	flag.Uint64Var(&o.seed, "seed", 1, "input seed (IS keys, RV64 data image, fleet sweep seeds)")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long the timed part measures")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: spans, CPU profile, layer probes; prints the per-layer metrics")
	flag.BoolVar(&o.small, "small", false, "smoke-test sizes (what smoke_test.go runs)")
	flag.StringVar(&o.spans, "spans", "", "span file of a traced run (default .bench_build/spans-<workload>.json)")
	flag.StringVar(&o.out, "out", "", "also write the full result (or, with -all, the result set) to this file")
	flag.BoolVar(&all, "all", false, "run every workload, each in its own process; with -trace 1 untraced then traced")
	flag.BoolVar(&compare, "compare", false, "compare two result sets: -compare a.json b.json")
	flag.Parse()
	o.trace = trace != 0

	switch {
	case compare:
		if flag.NArg() != 2 {
			fatal("usage: -compare a.json b.json")
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1)))
	case all:
		os.Exit(runAll(o))
	case o.workload == "":
		fatal("need -workload <name>, -all or -compare; workloads: " + fmt.Sprint(workloadNames()))
	}

	res, err := runWorkload(o)
	if err != nil {
		fatal(err.Error())
	}
	res.print()
	if o.out != "" {
		if err := writeJSON(o.out, res); err != nil {
			fatal(err.Error())
		}
	}
	fmt.Println(res.line())
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "benchmark:", msg)
	os.Exit(2)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runAll runs every workload in a child process of its own, so peak RSS,
// the heap and the scheduler state of one never leak into the next.
func runAll(o options) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err.Error())
	}
	dir, err := scratchDir("all")
	if err != nil {
		fatal(err.Error())
	}
	defer os.RemoveAll(dir)
	set := resultSet{Seed: o.seed, Seconds: o.seconds, Host: readHostInfo(".")}
	code := 0
	modes := []int{0}
	if o.trace {
		modes = append(modes, 1)
	}
	for _, name := range workloadNames() {
		for _, tr := range modes {
			file := filepath.Join(dir, fmt.Sprintf("%s-%d.json", name, tr))
			args := []string{"-workload", name, "-seed", fmt.Sprint(o.seed),
				"-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(tr), "-out", file}
			if o.small {
				args = append(args, "-small")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			start := time.Now()
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s (trace %d): %v\n", name, tr, err)
				code = 1
			}
			fmt.Printf("-- %s trace=%d took %.1fs\n\n", name, tr, time.Since(start).Seconds())
			var res result
			if data, err := os.ReadFile(file); err == nil && json.Unmarshal(data, &res) == nil {
				set.Results = append(set.Results, &res)
			}
		}
	}
	if o.out != "" {
		if err := writeJSON(o.out, &set); err != nil {
			fatal(err.Error())
		}
	}
	return code
}
