package experiments

import (
	"fmt"
	"strings"
	"testing"

	"smappic/internal/baseline"
	"smappic/internal/workload"
)

func TestTablesRender(t *testing.T) {
	for name, fn := range map[string]func() string{
		"Table1": Table1, "Table2": Table2, "Table3": Table3, "Table4": Table4,
	} {
		out := fn()
		if len(strings.Split(out, "\n")) < 4 {
			t.Errorf("%s output too short:\n%s", name, out)
		}
	}
	if !strings.Contains(Table1(), "f1.16xl") {
		t.Error("Table1 missing f1.16xl")
	}
	if !strings.Contains(Table3(), "t3.m") {
		t.Error("Table3 missing t3.m")
	}
	if !strings.Contains(Table4(), "75 MHz") {
		t.Error("Table4 missing the 75 MHz configurations")
	}
}

func TestFig7QuickShowsNUMAStructure(t *testing.T) {
	r := Fig7(true)
	if r.Ratio < 1.8 || r.Ratio > 4 {
		t.Fatalf("inter/intra = %.2f, want NUMA structure (~2.5)", r.Ratio)
	}
	if len(r.Matrix) != 24 {
		t.Fatalf("quick matrix is %d harts, want 24", len(r.Matrix))
	}
	if !strings.Contains(r.String(), "paper") {
		t.Error("summary should cite the paper bands")
	}
}

func TestFig8QuickShape(t *testing.T) {
	r := Fig8(true)
	if len(r.Rows) != 3 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Ratio <= 1.0 {
			t.Errorf("threads=%d: NUMA off/on ratio %.2f, want > 1", row.Threads, row.Ratio)
		}
	}
	// Strong scaling: 12 threads faster than 3 in NUMA mode (at the
	// quick problem size, 48 threads are past the scaling knee).
	if r.Rows[1].OnSeconds >= r.Rows[0].OnSeconds {
		t.Error("no strong scaling from 3 to 12 threads")
	}
	// Paper: the gap grows with thread count.
	if r.Rows[len(r.Rows)-1].Ratio <= r.Rows[0].Ratio {
		t.Logf("note: ratio did not grow monotonically (%.2f -> %.2f); paper shows growth",
			r.Rows[0].Ratio, r.Rows[len(r.Rows)-1].Ratio)
	}
}

func TestFig9QuickShape(t *testing.T) {
	r := Fig9(true)
	if len(r.Rows) != 4 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	// Paper: in NUMA mode, spreading 12 threads over more nodes slightly
	// hurts; with NUMA off, it slightly helps.
	if !(r.Rows[3].OnSeconds > r.Rows[0].OnSeconds) {
		t.Errorf("NUMA on: 4 nodes (%.0f) should be slower than 1 node (%.0f)",
			r.Rows[3].OnSeconds, r.Rows[0].OnSeconds)
	}
	if !(r.Rows[3].OffSeconds < r.Rows[0].OffSeconds) {
		t.Errorf("NUMA off: 4 nodes (%.0f) should be faster than 1 node (%.0f)",
			r.Rows[3].OffSeconds, r.Rows[0].OffSeconds)
	}
}

func TestFig10QuickBands(t *testing.T) {
	r := Fig10(true)
	if r.GenSpeedup[workload.NoiseSW] != 1.0 || r.ApplySpeedup[workload.NoiseSW] != 1.0 {
		t.Fatal("SW mode must normalize to 1.0")
	}
	g1 := r.GenSpeedup[workload.NoiseHW1]
	g4 := r.GenSpeedup[workload.NoiseHW4]
	if g1 < 6 || g1 > 20 {
		t.Errorf("generator HW1 speedup %.1f, paper ~12", g1)
	}
	if g4 < 20 || g4 > 50 {
		t.Errorf("generator HW4 speedup %.1f, paper ~32", g4)
	}
	a4 := r.ApplySpeedup[workload.NoiseHW4]
	if a4 >= g4 {
		t.Errorf("applier HW4 (%.1f) should trail generator HW4 (%.1f)", a4, g4)
	}
	if a4 < 6 || a4 > 25 {
		t.Errorf("applier HW4 speedup %.1f, paper ~13", a4)
	}
}

func TestFig11QuickShape(t *testing.T) {
	r := Fig11()
	get := func(k workload.IrregularKernel, m workload.IrregularMode) float64 {
		return r.Speedup[k][m]
	}
	// Paper: MAPLE beats 2 threads on SPMV, SDHP, BFS; loses on SPMM.
	for _, k := range []workload.IrregularKernel{workload.SPMV, workload.SDHP, workload.BFS} {
		if get(k, workload.WithMAPLE) <= get(k, workload.TwoThreads) {
			t.Errorf("%s: MAPLE %.2f should beat 2 threads %.2f", k,
				get(k, workload.WithMAPLE), get(k, workload.TwoThreads))
		}
	}
	if get(workload.SPMM, workload.WithMAPLE) >= get(workload.SPMM, workload.TwoThreads) {
		t.Errorf("SPMM: 2 threads %.2f should beat MAPLE %.2f",
			get(workload.SPMM, workload.TwoThreads), get(workload.SPMM, workload.WithMAPLE))
	}
	if s := get(workload.SPMV, workload.WithMAPLE); s < 1.5 || s > 3.5 {
		t.Errorf("SPMV MAPLE speedup %.2f, paper 2.4", s)
	}
}

func TestFig12PipelineRuns(t *testing.T) {
	r := Fig12()
	if len(r.Trace.Stages) != 6 {
		t.Fatalf("%d stages", len(r.Trace.Stages))
	}
	if !strings.Contains(r.Trace.Response, "s3") {
		t.Fatal("response missing S3 payload")
	}
	if !strings.Contains(r.Trace.Response, "date=") {
		t.Fatal("script did not attach a date")
	}
	if r.PrototypeShare <= 0 || r.PrototypeShare >= 1 {
		t.Fatalf("prototype share %.2f out of range", r.PrototypeShare)
	}
	// The share is a fraction of a percent: the report must not round it away.
	if want := fmt.Sprintf("prototype share of end-to-end latency: %.2f%%\n", r.PrototypeShare*100); !strings.Contains(r.String(), want) {
		t.Errorf("report lacks %q:\n%s", want, r)
	}
}

func TestFig13CostRelations(t *testing.T) {
	r := Fig13()
	sm := r.SuiteTotal[baseline.SMAPPIC]
	fs := r.SuiteTotal[baseline.FireSimSingle]
	if ratio := fs / sm; ratio < 3.5 || ratio > 4.5 {
		t.Errorf("FireSim/SMAPPIC = %.2f, paper ~4", ratio)
	}
	if r.Gem5Total < 100*fs {
		t.Errorf("gem5 total $%.0f not orders of magnitude above FireSim $%.2f", r.Gem5Total, fs)
	}
	// Sniper must skip perlbench.
	for _, row := range r.Rows {
		_, ok := row.Dollars[baseline.Sniper]
		if row.Benchmark == "perlbench" && ok {
			t.Error("Sniper should not have a perlbench bar")
		}
		if row.Benchmark != "perlbench" && !ok {
			t.Errorf("Sniper missing bar for %s", row.Benchmark)
		}
	}
	// HelloWorld anchor: ~ms on SMAPPIC, tens of seconds on Verilator,
	// cost-efficiency near the paper's 1600x.
	if r.HelloSMAPPICSec > 0.1 {
		t.Errorf("hello on SMAPPIC took %.3f s, want ms-scale", r.HelloSMAPPICSec)
	}
	if r.HelloVerilatorSec < 10 {
		t.Errorf("hello on Verilator %.1f s, want tens of seconds", r.HelloVerilatorSec)
	}
	if r.HelloCostEffRatio < 800 || r.HelloCostEffRatio > 3000 {
		t.Errorf("cost-efficiency ratio %.0f, paper ~1600", r.HelloCostEffRatio)
	}
}

func TestFig14Crossover(t *testing.T) {
	r := Fig14()
	if r.CrossoverDays < 190 || r.CrossoverDays > 215 {
		t.Fatalf("crossover %.0f days, paper ~200", r.CrossoverDays)
	}
	if len(r.Days) == 0 {
		t.Fatal("empty curve")
	}
}

func TestRenderingsMentionPaperReference(t *testing.T) {
	// Every figure's String cites the paper's expected values so the
	// harness output is self-describing.
	outs := []string{
		Fig8(true).String(),
		Fig9(true).String(),
		Fig10(true).String(),
		Fig11().String(),
		Fig13().String(),
		Fig14().String(),
	}
	for i, o := range outs {
		if !strings.Contains(o, "paper") {
			t.Errorf("rendering %d does not cite the paper's expectation:\n%s", i, o)
		}
	}
}

func TestAblationHomingShowsRegionBenefit(t *testing.T) {
	r := AblationHoming()
	if r.Slowdown < 1.1 {
		t.Fatalf("global interleaving only %.2fx slower; region homing should matter", r.Slowdown)
	}
}

func TestAblationCreditsMoreIsFaster(t *testing.T) {
	r := AblationCredits()
	first, last := r.Cycles[0], r.Cycles[len(r.Cycles)-1]
	if first <= last {
		t.Fatalf("9 credits (%d cycles) should be slower than the default pool (%d)", first, last)
	}
	if r.Stalls[0] == 0 {
		t.Error("tiny credit pool never stalled")
	}
}

func TestAblationInterconnectShaperScales(t *testing.T) {
	r := AblationInterconnect()
	if !(r.InterCycles[0] < r.InterCycles[1] && r.InterCycles[1] < r.InterCycles[2]) {
		t.Fatalf("shaped latencies not increasing: %v", r.InterCycles)
	}
	// 375 extra cycles on each crossing should add >= 700 to the RTT.
	if r.InterCycles[2]-r.InterCycles[0] < 700 {
		t.Fatalf("shaper effect too small: %v", r.InterCycles)
	}
}

func TestAblationFaultToleranceRecovers(t *testing.T) {
	r := AblationFaultTolerance()
	if !r.Identical {
		t.Fatal("lossy runs did not reproduce the fault-free output")
	}
	lossy := r.Rows[len(r.Rows)-1]
	if lossy.Retransmits == 0 {
		t.Error("p=0.05 run saw no retransmissions; injection not reaching the link")
	}
	if lossy.CreditLost == 0 {
		t.Error("no credit-return update was lost; injection not reaching the bridges")
	}
	if lossy.EccCorrected == 0 {
		t.Error("SECDED never corrected an injected upset")
	}
	if lossy.LinkFailed != 0 {
		t.Errorf("%d transfers exhausted retries at p=0.05; recovery should absorb this rate", lossy.LinkFailed)
	}
	if r.MaxSlowdown > 1.5 {
		t.Errorf("worst slowdown %.2fx; a lost credit update costs one poll, so degradation should stay within 1.5x", r.MaxSlowdown)
	}
}

func TestAblationCoreProfiles(t *testing.T) {
	r := AblationCore()
	if float64(r.PicoCycles) < float64(r.ArianeCycles)*1.4 {
		t.Fatalf("PicoRV32 %d vs Ariane %d: profile difference missing", r.PicoCycles, r.ArianeCycles)
	}
	if !strings.Contains(r.String(), "Ariane") {
		t.Error("rendering broken")
	}
}
