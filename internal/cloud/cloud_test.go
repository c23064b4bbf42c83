package cloud

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestF1CatalogMatchesTable1(t *testing.T) {
	f1 := F1Instances()
	if len(f1) != 3 {
		t.Fatalf("%d F1 instances, want 3", len(f1))
	}
	want := map[string]struct {
		fpgas int
		price float64
	}{
		"f1.2xl":  {1, 1.65},
		"f1.4xl":  {2, 3.30},
		"f1.16xl": {8, 13.20},
	}
	for _, i := range f1 {
		w, ok := want[i.Name]
		if !ok {
			t.Errorf("unexpected instance %s", i.Name)
			continue
		}
		if i.FPGAs != w.fpgas || i.PricePerHr != w.price {
			t.Errorf("%s = %d FPGAs @ $%.2f, want %d @ $%.2f", i.Name, i.FPGAs, i.PricePerHr, w.fpgas, w.price)
		}
	}
	// Per-FPGA price constant across sizes (paper: $1.65/FPGA-hour).
	for _, i := range f1 {
		if math.Abs(i.PricePerHr/float64(i.FPGAs)-1.65) > 0.001 {
			t.Errorf("%s per-FPGA price = %.3f", i.Name, i.PricePerHr/float64(i.FPGAs))
		}
	}
}

func TestCheapestForPicksTable3Choices(t *testing.T) {
	cases := []struct {
		req  Requirements
		want string
	}{
		{Requirements{VCPUs: 2, MemoryGB: 8}, "t3.m"},             // Sniper
		{Requirements{VCPUs: 1, MemoryGB: 64}, "r5.2xl"},          // gem5
		{Requirements{VCPUs: 1, MemoryGB: 8}, "t3.m"},             // Verilator
		{Requirements{VCPUs: 1, MemoryGB: 8, FPGAs: 1}, "f1.2xl"}, // SMAPPIC/FireSim
		{Requirements{MemoryGB: 350}, "r5.12xl"},                  // gem5 + mcf
	}
	for _, c := range cases {
		got, err := CheapestFor(c.req)
		if err != nil {
			t.Errorf("CheapestFor(%+v): %v", c.req, err)
			continue
		}
		if got.Name != c.want {
			t.Errorf("CheapestFor(%+v) = %s, want %s", c.req, got.Name, c.want)
		}
	}
}

func TestCheapestForImpossible(t *testing.T) {
	if _, err := CheapestFor(Requirements{FPGAs: 100}); err == nil {
		t.Fatal("expected error for impossible requirements")
	}
}

func TestCrossoverNear200Days(t *testing.T) {
	d := CrossoverDays(f1())
	if d < 190 || d < 0 || d > 215 {
		t.Fatalf("crossover at %.0f days, paper says ~200", d)
	}
	// Cloud cheaper before, on-prem cheaper after.
	if CloudCost(d-10, f1()) >= OnPremCost(f1()) {
		t.Error("cloud should win before the crossover")
	}
	if CloudCost(d+10, f1()) <= OnPremCost(f1()) {
		t.Error("on-prem should win after the crossover")
	}
}

// Regression: OnPremCost used to hardcode f1.2xl's $8000, so the Fig. 14
// comparison was wrong for every other instance — an f1.16xl's worth of
// hardware (8 FPGAs) is $64000, not $8000.
func TestOnPremCostTracksInstanceHardware(t *testing.T) {
	big, err := InstanceByName("f1.16xl")
	if err != nil {
		t.Fatal(err)
	}
	if got := OnPremCost(big); got != 64000 {
		t.Fatalf("OnPremCost(f1.16xl) = $%.0f, want $64000", got)
	}
	if got := OnPremCost(f1()); got != 8000 {
		t.Fatalf("OnPremCost(f1.2xl) = $%.0f, want $8000", got)
	}
	// With hardware price in play, the f1.16xl comparison must use the
	// f1.16xl rent too: past the crossover the 8-FPGA cloud bill exceeds
	// the 8-FPGA hardware purchase.
	d := CrossoverDays(big)
	if CloudCost(d+10, big) <= OnPremCost(big) {
		t.Error("f1.16xl on-prem should win past its crossover")
	}
	if CloudCost(d+10, big) < 64000 {
		t.Errorf("f1.16xl cloud cost past crossover $%.0f should exceed the $64000 hardware", CloudCost(d+10, big))
	}
}

func TestCrossoverSameAcrossF1Sizes(t *testing.T) {
	// F1 rent and hardware both scale linearly in FPGAs, so every size
	// crosses over together (~200 days) — but only when each instance's
	// own hardware price is used.
	for _, inst := range F1Instances() {
		d := CrossoverDays(inst)
		if d < 190 || d > 215 {
			t.Errorf("%s crossover %.0f days, want ~200", inst.Name, d)
		}
	}
}

func TestCostCurveShape(t *testing.T) {
	days, cl, op := CostCurve(f1(), 350, 50)
	if len(days) != 7 || len(cl) != 7 || len(op) != 7 {
		t.Fatalf("curve lengths %d/%d/%d", len(days), len(cl), len(op))
	}
	for i := 1; i < len(cl); i++ {
		if cl[i] <= cl[i-1] {
			t.Fatal("cloud cost not increasing")
		}
		if op[i] != op[i-1] {
			t.Fatal("on-prem cost should be flat after purchase")
		}
	}
}

// fakeBackend stands in for the prototype in pipeline tests.
type fakeBackend struct{}

func (fakeBackend) Handle(path string, s3Data []byte) (string, time.Duration) {
	return "data=" + string(s3Data) + " date=2026-07-05", 3 * time.Millisecond
}

func TestPipelineTraceCompletes(t *testing.T) {
	s3 := NewS3()
	s3.Put("dataset.json", []byte(`{"v":1}`))
	p := &Pipeline{Lambda: NewLambda(), S3: s3, Backend: fakeBackend{}, S3Key: "dataset.json"}
	tr, err := p.Request("/index.php")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tr.Response, `{"v":1}`) {
		t.Fatalf("response %q missing S3 data", tr.Response)
	}
	if !strings.Contains(tr.Response, "date=") {
		t.Fatal("script did not attach the date")
	}
	if len(tr.Stages) != 6 {
		t.Fatalf("%d stages, want 6", len(tr.Stages))
	}
	if tr.Total() < 20*time.Millisecond || tr.Total() > 100*time.Millisecond {
		t.Fatalf("end-to-end %v, want tens of ms", tr.Total())
	}
	if !strings.Contains(tr.String(), "TOTAL") {
		t.Fatal("trace rendering broken")
	}
}

func TestPipelineMissingObject(t *testing.T) {
	p := &Pipeline{Lambda: NewLambda(), S3: NewS3(), Backend: fakeBackend{}, S3Key: "absent"}
	if _, err := p.Request("/"); err == nil {
		t.Fatal("expected S3 miss error")
	}
}

func f1() Instance {
	for _, i := range Catalog {
		if i.Name == "f1.2xl" {
			return i
		}
	}
	panic("no f1.2xl")
}
