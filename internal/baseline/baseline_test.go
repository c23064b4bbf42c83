package baseline

import (
	"math"
	"testing"
)

func TestSMAPPICFourTimesCheaperThanFireSimSingle(t *testing.T) {
	// Paper §4.5: "Compared to a single-node FireSim configuration,
	// SMAPPIC shows about four times better cost-efficiency."
	sm, _ := SuiteCost(ModelFor(SMAPPIC))
	fs, _ := SuiteCost(ModelFor(FireSimSingle))
	ratio := fs / sm
	if ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("FireSim/SMAPPIC cost ratio = %.2f, want ~4", ratio)
	}
}

func TestSupernodeBetweenSMAPPICAndSingleNode(t *testing.T) {
	sm, _ := SuiteCost(ModelFor(SMAPPIC))
	super, _ := SuiteCost(ModelFor(FireSimSuper))
	single, _ := SuiteCost(ModelFor(FireSimSingle))
	if !(sm < super && super < single) {
		t.Fatalf("ordering wrong: SMAPPIC=%.2f supernode=%.2f single=%.2f", sm, super, single)
	}
	// Paper's SPECint annotations: single 11.56, supernode 8.24 (~0.71x).
	if r := super / single; r < 0.6 || r > 0.85 {
		t.Fatalf("supernode/single = %.2f, want ~0.71", r)
	}
}

func TestSuiteTotalsNearPaperAnnotations(t *testing.T) {
	single, _ := SuiteCost(ModelFor(FireSimSingle))
	super, _ := SuiteCost(ModelFor(FireSimSuper))
	// Fig. 13 annotates the SPECint totals: 11.56 and 8.24 dollars.
	if math.Abs(single-11.56) > 3 {
		t.Errorf("FireSim single suite cost $%.2f, paper $11.56", single)
	}
	if math.Abs(super-8.24) > 3 {
		t.Errorf("FireSim supernode suite cost $%.2f, paper $8.24", super)
	}
}

func TestGem5OrdersOfMagnitudeWorse(t *testing.T) {
	g, _ := SuiteCost(ModelFor(Gem5))
	sn, _ := SuiteCost(ModelFor(Sniper))
	if g/sn < 1e3 {
		t.Fatalf("gem5/Sniper cost ratio = %.0f, paper says 4-5 orders of magnitude over the cheapest bars", g/sn)
	}
}

func TestSniperSkipsPerlbench(t *testing.T) {
	_, skipped := SuiteCost(ModelFor(Sniper))
	if len(skipped) != 1 || skipped[0] != "perlbench" {
		t.Fatalf("Sniper skipped %v, want [perlbench]", skipped)
	}
}

func TestGem5McfNeedsBigHost(t *testing.T) {
	var mcf Benchmark
	for _, b := range SPECint2017 {
		if b.Name == "mcf" {
			mcf = b
		}
	}
	dollarsMcf, hoursMcf, err := Cost(ModelFor(Gem5), mcf)
	if err != nil {
		t.Fatal(err)
	}
	if hoursMcf < 100 {
		t.Errorf("gem5 mcf only %f hours; should be enormous", hoursMcf)
	}
	// mcf runs on the 384 GB instance at a higher rate than r5.2xl.
	var leela Benchmark
	for _, b := range SPECint2017 {
		if b.Name == "leela" {
			leela = b
		}
	}
	dollarsLeela, _, _ := Cost(ModelFor(Gem5), leela)
	if dollarsMcf <= dollarsLeela {
		t.Error("mcf (big memory, long run) should cost more than leela")
	}
}

func TestHelloWorldAnchorsVerilator(t *testing.T) {
	// §4.5: Verilator takes 65 s where SMAPPIC takes 4 ms, making SMAPPIC
	// ~1600x more cost-efficient.
	h := HelloWorld{Cycles: 400_000} // 4 ms at 100 MHz
	if s := h.SMAPPICSeconds(); math.Abs(s-0.004) > 1e-9 {
		t.Fatalf("SMAPPIC seconds = %v", s)
	}
	if v := h.VerilatorSeconds(); v < 55 || v > 75 {
		t.Fatalf("Verilator seconds = %.1f, want ~65", v)
	}
	if r := h.CostEfficiencyRatio(); r < 1200 || r > 2000 {
		t.Fatalf("cost-efficiency ratio = %.0f, want ~1600", r)
	}
}

func TestSuiteHasTenBenchmarks(t *testing.T) {
	if len(SPECint2017) != 10 {
		t.Fatalf("%d benchmarks", len(SPECint2017))
	}
	var total float64
	for _, b := range SPECint2017 {
		total += b.GInstr
	}
	if total < 500 || total > 3000 {
		t.Fatalf("suite total %.0f Ginstr implausible", total)
	}
}

func TestSiliconFastest(t *testing.T) {
	si := ModelFor(SiliconU740)
	for _, m := range Models() {
		if m.Tool != SiliconU740 && m.RateIPS >= si.RateIPS {
			t.Errorf("%s rate %.0f >= silicon %.0f", m.Tool, m.RateIPS, si.RateIPS)
		}
	}
}

func TestUnknownToolPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ModelFor(bogus) did not panic")
		}
	}()
	ModelFor(Tool("bogus"))
}
