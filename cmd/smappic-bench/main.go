// Command smappic-bench regenerates the paper's evaluation artifacts: every
// table and figure, from the 48-core NUMA studies to the cost models. It is
// the CLI face of the same harness bench_test.go drives.
//
// Usage:
//
//	smappic-bench [-exp table1,...,fig14|all] [-quick] [-counters-out dir]
//
// Besides the paper's tables and figures, the ablation studies are
// selectable by name.
//
// With -counters-out, every experiment sub-run writes its full counter
// state (the same JSON smappic-run's -metrics-json produces) into the given
// directory, one file per sub-run.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"smappic/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiments: table1-table4, fig7-fig14, or all")
	quick := flag.Bool("quick", false, "reduced problem sizes (same shapes)")
	countersOut := flag.String("counters-out", "", "directory for per-sub-run counter snapshots (JSON)")
	flag.Parse()

	if *countersOut != "" {
		if err := os.MkdirAll(*countersOut, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		dir := *countersOut
		experiments.SnapshotHook = func(label string, metrics []byte) {
			name := strings.NewReplacer("/", "_", "=", "-").Replace(label) + ".json"
			if err := os.WriteFile(filepath.Join(dir, name), metrics, 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "counter snapshot %s: %v\n", label, err)
			}
		}
	}

	byName := map[string]experiments.Artifact{}
	var names []string
	for _, a := range experiments.Artifacts {
		byName[a.Name] = a
		names = append(names, a.Name)
	}
	selected := names
	if *exp != "all" {
		selected = strings.Split(*exp, ",")
	}
	for _, name := range selected {
		name = strings.TrimSpace(strings.ToLower(name))
		a, ok := byName[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (have %s)\n", name, strings.Join(names, ", "))
			os.Exit(1)
		}
		start := time.Now()
		out := a.Run(*quick)
		fmt.Printf("===== %s (generated in %v) =====\n%s\n", name, time.Since(start).Round(time.Millisecond), out)
	}
}
