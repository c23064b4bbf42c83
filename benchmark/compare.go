package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchmarkSpec is the part of BENCHMARK.json the harness reads: the bounds
// -compare applies, and the names smoke_test.go checks the harness against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// readBenchmarkSpec finds BENCHMARK.json in the current directory or the
// one above (the harness runs from the repository root or from benchmark/).
func readBenchmarkSpec() (*benchmarkSpec, error) {
	var lastErr error
	for _, dir := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			lastErr = err
			continue
		}
		var spec benchmarkSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &spec, nil
	}
	return nil, lastErr
}

func readResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// runCompare prints, for every end-to-end metric of every workload in both
// sets, the two medians, how much worse b reads than a and the bound; then
// checks that every exact count agrees. It returns the process exit code:
// non-zero when a difference exceeds its bound, a count differs or a run
// failed verification.
func runCompare(pathA, pathB string) int {
	spec, err := readBenchmarkSpec()
	if err != nil {
		fatal(err.Error())
	}
	a, err := readResultSet(pathA)
	if err != nil {
		fatal(err.Error())
	}
	b, err := readResultSet(pathB)
	if err != nil {
		fatal(err.Error())
	}
	fmt.Printf("a: %s (seed %d, %s)\nb: %s (seed %d, %s)\n\n", pathA, a.Seed, a.Host, pathB, b.Seed, b.Host)

	// Pair results by workload and mode.
	type key struct {
		workload string
		trace    bool
	}
	inB := map[key]*result{}
	for _, r := range b.Results {
		inB[key{r.Workload, r.Trace}] = r
	}
	bad := 0
	fmt.Printf("%-15s %-18s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "b worse", "bound")
	for _, ra := range a.Results {
		rb := inB[key{ra.Workload, ra.Trace}]
		if rb == nil {
			continue
		}
		for _, r := range []*result{ra, rb} {
			if !r.Correct {
				fmt.Printf("%-15s FAILED verification: %d of %d outputs wrong\n", r.Workload, r.Failed, r.Attempted)
				bad++
			}
		}
		if !ra.Trace {
			for _, m := range spec.EndToEnd {
				va, vb := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value
				if va == 0 {
					continue
				}
				worse := (vb - va) / va
				if m.Better == "higher" {
					worse = -worse
				}
				flag := ""
				if worse > m.Bound {
					flag = "  REGRESSION"
					bad++
				}
				fmt.Printf("%-15s %-18s %14.6g %14.6g %+8.1f%% %6.0f%%%s\n",
					ra.Workload, m.Name, va, vb, worse*100, m.Bound*100, flag)
			}
		}
		if a.Seed != b.Seed {
			continue // counts are exact per seed
		}
		for _, name := range sortedKeys(ra.Counts) {
			if vb, ok := rb.Counts[name]; ok && vb != ra.Counts[name] {
				fmt.Printf("%-15s %-18s %14d %14d  COUNT DIFFERS\n", ra.Workload, name, ra.Counts[name], vb)
				bad++
			}
		}
		if ra.SimDigest != rb.SimDigest {
			fmt.Printf("%-15s sim_digest %s vs %s  DIGEST DIFFERS\n", ra.Workload, ra.SimDigest, rb.SimDigest)
			bad++
		}
	}
	if bad > 0 {
		fmt.Printf("\n%d difference(s) beyond the bounds\n", bad)
		return 1
	}
	fmt.Println("\nwithin every bound; exact counts agree")
	return 0
}
