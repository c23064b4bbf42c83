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

	runs := map[string]func(bool) string{
		"table1": func(bool) string { return experiments.Table1() },
		"table2": func(bool) string { return experiments.Table2() },
		"table3": func(bool) string { return experiments.Table3() },
		"table4": func(bool) string { return experiments.Table4() },
		"fig7": func(q bool) string {
			r := experiments.Fig7(q)
			return r.String() + "\n\nHeatmap (cycles):\n" + r.Heatmap
		},
		"fig8":                  func(q bool) string { return experiments.Fig8(q).String() },
		"fig9":                  func(q bool) string { return experiments.Fig9(q).String() },
		"fig10":                 func(q bool) string { return experiments.Fig10(q).String() },
		"fig11":                 func(q bool) string { return experiments.Fig11(q).String() },
		"fig12":                 func(bool) string { return experiments.Fig12().String() },
		"fig13":                 func(bool) string { return experiments.Fig13().String() },
		"fig14":                 func(bool) string { return experiments.Fig14().String() },
		"ablation-homing":       func(bool) string { return experiments.AblationHoming().String() },
		"ablation-credits":      func(bool) string { return experiments.AblationCredits().String() },
		"ablation-interconnect": func(bool) string { return experiments.AblationInterconnect().String() },
		"ablation-core":         func(bool) string { return experiments.AblationCore().String() },
		"ablation-faults":       func(bool) string { return experiments.AblationFaultTolerance().String() },
	}
	order := []string{
		"table1", "table2", "table3", "table4",
		"fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
		"ablation-homing", "ablation-credits", "ablation-interconnect", "ablation-core",
		"ablation-faults",
	}

	selected := order
	if *exp != "all" {
		selected = strings.Split(*exp, ",")
	}
	for _, name := range selected {
		name = strings.TrimSpace(strings.ToLower(name))
		fn, ok := runs[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (have %s)\n", name, strings.Join(order, ", "))
			os.Exit(1)
		}
		start := time.Now()
		out := fn(*quick)
		fmt.Printf("===== %s (generated in %v) =====\n%s\n", name, time.Since(start).Round(time.Millisecond), out)
	}
}
