// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation. Each benchmark regenerates its artifact, prints the same
// rows/series the paper reports, and exports the headline numbers as
// benchmark metrics. Run with:
//
//	go test -bench=. -benchmem
//
// Use -short for reduced problem sizes (same shapes, smaller inputs).
package smappic_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"smappic"
	"smappic/internal/baseline"
	"smappic/internal/core"
	"smappic/internal/experiments"
	"smappic/internal/kernel"
	"smappic/internal/workload"
)

// printOnce deduplicates artifact printing across benchmark iterations.
var printOnce sync.Map

func report(name, artifact string) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		fmt.Printf("\n===== %s =====\n%s\n", name, artifact)
	}
}

func BenchmarkTable1_F1Instances(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = experiments.Table1()
	}
	report("Table 1", out)
}

func BenchmarkTable2_SystemParameters(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = experiments.Table2()
	}
	report("Table 2", out)
}

func BenchmarkTable3_HostRequirements(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = experiments.Table3()
	}
	report("Table 3", out)
}

func BenchmarkTable4_FPGAUtilization(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = experiments.Table4()
	}
	report("Table 4", out)
	rows := experiments.Table4Rows()
	b.ReportMetric(float64(rows[0].FrequencyMHz), "MHz_1x12")
	b.ReportMetric(rows[0].Utilization*100, "util%_1x12")
}

func BenchmarkFig7_LatencyHeatmap(b *testing.B) {
	var r experiments.Fig7Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig7(testing.Short())
	}
	report("Fig 7", r.String()+"\n\nHeatmap (cycles):\n"+r.Heatmap)
	b.ReportMetric(r.Intra, "intra_cycles")
	b.ReportMetric(r.Inter, "inter_cycles")
	b.ReportMetric(r.Ratio, "inter/intra")
}

func BenchmarkFig8_NUMAScaling(b *testing.B) {
	var r experiments.Fig8Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig8(testing.Short())
	}
	report("Fig 8", r.String())
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	b.ReportMetric(first.Ratio, "off/on_low_threads")
	b.ReportMetric(last.Ratio, "off/on_max_threads")
}

func BenchmarkFig9_ThreadAllocation(b *testing.B) {
	var r experiments.Fig9Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig9(testing.Short())
	}
	report("Fig 9", r.String())
	b.ReportMetric(r.Rows[3].OnSeconds/r.Rows[0].OnSeconds, "on_4node/1node")
	b.ReportMetric(r.Rows[3].OffSeconds/r.Rows[0].OffSeconds, "off_4node/1node")
}

func BenchmarkFig10_GNGAccelerator(b *testing.B) {
	var r experiments.Fig10Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig10(testing.Short())
	}
	report("Fig 10", r.String())
	b.ReportMetric(r.GenSpeedup[workload.NoiseHW1], "genA_x1")
	b.ReportMetric(r.GenSpeedup[workload.NoiseHW4], "genA_x4")
	b.ReportMetric(r.ApplySpeedup[workload.NoiseHW4], "applyB_x4")
}

func BenchmarkFig11_MAPLE(b *testing.B) {
	var r experiments.Fig11Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig11()
	}
	report("Fig 11", r.String())
	b.ReportMetric(r.Speedup[workload.SPMV][workload.WithMAPLE], "spmv_maple")
	b.ReportMetric(r.Speedup[workload.BFS][workload.WithMAPLE], "bfs_maple")
	b.ReportMetric(r.Speedup[workload.SPMM][workload.TwoThreads], "spmm_2t")
}

func BenchmarkFig12_CloudPipeline(b *testing.B) {
	var r experiments.Fig12Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig12()
	}
	report("Fig 12", r.String())
	b.ReportMetric(float64(r.Trace.Total().Microseconds())/1000, "end_to_end_ms")
	b.ReportMetric(r.PrototypeShare*100, "prototype_share_%")
}

func BenchmarkFig13_ModelingCost(b *testing.B) {
	var r experiments.Fig13Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig13()
	}
	report("Fig 13", r.String())
	b.ReportMetric(r.SuiteTotal[baseline.FireSimSingle]/r.SuiteTotal[baseline.SMAPPIC], "firesim/smappic")
	b.ReportMetric(r.SuiteTotal[baseline.SMAPPIC], "smappic_suite_$")
	b.ReportMetric(r.HelloCostEffRatio, "verilator_costeff_x")
}

func BenchmarkFig14_CloudVsOnPrem(b *testing.B) {
	var r experiments.Fig14Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig14()
	}
	report("Fig 14", r.String())
	b.ReportMetric(r.CrossoverDays, "crossover_days")
}

// benchIS runs the NPB integer sort once on the given shape, serial
// (parallel=0) or sharded (parallel=FPGAs) at the given shard granularity
// ("" = per-FPGA, "node" = per-node under the hierarchical synchronizer),
// and returns the simulated cycle count. It is shared between the
// benchmarks and the CI scaling gates (see scaling_gate_test.go), so the
// gated numbers and the benchmark numbers are the same run.
func benchIS(tb testing.TB, fpgas, nodesPerFPGA, tiles, parallel int, granularity string) smappic.Time {
	tb.Helper()
	cfg := smappic.DefaultConfig(fpgas, nodesPerFPGA, tiles)
	cfg.Core = core.CoreNone
	cfg.Parallel = parallel
	cfg.ShardGranularity = granularity
	p, err := core.Build(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	k := kernel.New(p, kernel.DefaultConfig())
	ip := workload.DefaultISParams(p.Cfg.TotalTiles())
	ip.Keys = 1 << 13
	r := workload.RunIS(k, ip)
	if !r.Sorted {
		tb.Fatal("integer sort output not sorted")
	}
	return r.Cycles
}

// BenchmarkParallel_vs_Serial measures the sharded engine against the
// one-shard reference on the 4-node (4x1x2) and 8-node (4x2x2) NPB-IS
// configurations. The sharded engine's speedup is bounded by the host's
// core count: on a single-core host the window barriers are pure overhead,
// so treat serial-vs-parallel deltas here together with the gomaxprocs
// metric (benchmark/ records the committed numbers: numa48-serial vs
// npbis8-node).
func BenchmarkParallel_vs_Serial(b *testing.B) {
	shapes := []struct {
		name                string
		fpgas, nodes, tiles int
	}{
		{"4node", 4, 1, 2},
		{"8node", 4, 2, 2},
	}
	for _, sh := range shapes {
		for _, mode := range []struct {
			name        string
			parallel    func(fpgas int) int
			granularity string
		}{
			{"serial", func(int) int { return 0 }, ""},
			// "parallel" shards per FPGA; "parallel-node" shards per node
			// under the hierarchical synchronizer (on the 4node shape
			// NodesPerFPGA is 1, so that column doubles as the
			// degenerate-overhead measurement).
			{"parallel", func(f int) int { return f }, ""},
			{"parallel-node", func(f int) int { return f }, "node"},
		} {
			b.Run(sh.name+"/"+mode.name, func(b *testing.B) {
				var cycles smappic.Time
				for i := 0; i < b.N; i++ {
					cycles = benchIS(b, sh.fpgas, sh.nodes, sh.tiles, mode.parallel(sh.fpgas), mode.granularity)
				}
				b.ReportMetric(float64(cycles), "sim_cycles")
				b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
			})
		}
	}
}

// Ablation benchmarks: the design-choice studies DESIGN.md calls out.

func BenchmarkAblation_Homing(b *testing.B) {
	var r experiments.AblationHomingResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblationHoming()
	}
	report("Ablation: homing", r.String())
	b.ReportMetric(r.Slowdown, "interleave_slowdown_x")
}

func BenchmarkAblation_BridgeCredits(b *testing.B) {
	var r experiments.AblationCreditsResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblationCredits()
	}
	report("Ablation: bridge credits", r.String())
	b.ReportMetric(float64(r.Cycles[0])/float64(r.Cycles[len(r.Cycles)-1]), "min_vs_default_x")
}

func BenchmarkAblation_InterconnectShaper(b *testing.B) {
	var r experiments.AblationInterconnectResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblationInterconnect()
	}
	report("Ablation: interconnect shaper", r.String())
	b.ReportMetric(r.InterCycles[len(r.InterCycles)-1], "altra_like_rtt_cycles")
}

func BenchmarkAblation_FaultTolerance(b *testing.B) {
	var r experiments.AblationFaultToleranceResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblationFaultTolerance()
	}
	report("Ablation: fault tolerance", r.String())
	b.ReportMetric(r.MaxSlowdown, "worst_slowdown_x")
	b.ReportMetric(float64(r.Rows[len(r.Rows)-1].Retransmits), "retransmits_at_p5")
	if !r.Identical {
		b.Fatal("lossy runs diverged from the fault-free output")
	}
}

func BenchmarkAblation_CoreModels(b *testing.B) {
	var r experiments.AblationCoreResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblationCore()
	}
	report("Ablation: core models", r.String())
	b.ReportMetric(float64(r.PicoCycles)/float64(r.ArianeCycles), "pico_vs_ariane_x")
}
