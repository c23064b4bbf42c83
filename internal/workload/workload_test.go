package workload

import (
	"testing"

	"smappic/internal/accel"
	"smappic/internal/core"
	"smappic/internal/kernel"
)

// newSystem builds a CoreNone prototype with a booted kernel.
func newSystem(t *testing.T, a, b, c int, numa bool) *kernel.Kernel {
	t.Helper()
	cfg := core.DefaultConfig(a, b, c)
	cfg.Core = core.CoreNone
	pr, err := core.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	kc := kernel.DefaultConfig()
	kc.NUMA = numa
	return kernel.New(pr, kc)
}

func TestISSortsCorrectly(t *testing.T) {
	k := newSystem(t, 1, 1, 4, true)
	p := DefaultISParams(4)
	p.Keys = 1 << 12
	res := RunIS(k, p)
	if !res.Sorted {
		t.Fatal("IS output not sorted")
	}
	if res.Cycles == 0 {
		t.Fatal("no time elapsed")
	}
}

func TestISSortsAcrossNodes(t *testing.T) {
	k := newSystem(t, 2, 1, 2, true)
	p := DefaultISParams(4)
	p.Keys = 1 << 12
	res := RunIS(k, p)
	if !res.Sorted {
		t.Fatal("multi-node IS output not sorted")
	}
	if k.Prototype().Stats.Get("node0.bridge.tx_packets") == 0 {
		t.Error("multi-node IS generated no inter-node traffic")
	}
}

func TestISNUMAOnFasterThanOff(t *testing.T) {
	// The Fig. 8 mechanism at small scale: NUMA-aware placement beats
	// topology-blind placement on a multi-node system.
	run := func(numa bool) float64 {
		k := newSystem(t, 2, 1, 2, numa)
		p := DefaultISParams(4)
		p.Keys = 1 << 12
		res := RunIS(k, p)
		if !res.Sorted {
			t.Fatal("not sorted")
		}
		return float64(res.Cycles)
	}
	on, off := run(true), run(false)
	if off <= on {
		t.Fatalf("NUMA off (%v) not slower than on (%v)", off, on)
	}
}

func TestISScalesWithThreads(t *testing.T) {
	run := func(threads int) float64 {
		k := newSystem(t, 1, 1, 8, true)
		p := DefaultISParams(threads)
		p.Keys = 1 << 14 // 16 keys per bucket, so the sort, not the exchange, dominates
		return float64(RunIS(k, p).Cycles)
	}
	t1, t8 := run(1), run(8)
	if t8 >= t1 {
		t.Fatalf("no strong scaling: 1T=%v 8T=%v", t1, t8)
	}
	if t1/t8 < 2 {
		t.Fatalf("scaling too weak: speedup %.2f at 8 threads", t1/t8)
	}
}

func TestISDeterministic(t *testing.T) {
	run := func() uint64 {
		k := newSystem(t, 1, 1, 2, true)
		p := DefaultISParams(2)
		p.Keys = 1 << 10
		return uint64(RunIS(k, p).Cycles)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("IS runtime not reproducible: %d vs %d", a, b)
	}
}

func irregularSystem(t *testing.T) *kernel.Kernel {
	k := newSystem(t, 1, 1, 6, true)
	return k
}

func TestIrregularKernelsRunInAllModes(t *testing.T) {
	p := DefaultIrregularParams()
	p.Rows = 64
	for _, kind := range Kernels {
		var checksums []uint64
		for _, mode := range []IrregularMode{OneThread, WithMAPLE, TwoThreads} {
			k := irregularSystem(t)
			res := RunIrregular(k, kind, mode, p)
			if res.Cycles == 0 {
				t.Fatalf("%s/%s took no time", kind, mode)
			}
			checksums = append(checksums, res.Checksum)
		}
		// SPMV/SPMM/SDHP are mode-independent functionally; BFS's visit
		// order (and hence its checksum) legitimately depends on timing.
		if kind != BFS && (checksums[0] != checksums[1] || checksums[0] != checksums[2]) {
			t.Errorf("%s checksums differ across modes: %v", kind, checksums)
		}
	}
}

func TestMAPLEHelpsLatencyBoundKernels(t *testing.T) {
	p := DefaultIrregularParams()
	for _, kind := range []IrregularKernel{SPMV, BFS} {
		base := RunIrregular(irregularSystem(t), kind, OneThread, p)
		map1 := RunIrregular(irregularSystem(t), kind, WithMAPLE, p)
		speedup := float64(base.Cycles) / float64(map1.Cycles)
		if speedup < 1.3 {
			t.Errorf("%s MAPLE speedup = %.2f, want > 1.3 (latency-bound)", kind, speedup)
		}
	}
}

func TestMAPLEDoesNotHelpComputeBoundSPMM(t *testing.T) {
	p := DefaultIrregularParams()
	base := RunIrregular(irregularSystem(t), SPMM, OneThread, p)
	mapl := RunIrregular(irregularSystem(t), SPMM, WithMAPLE, p)
	speedup := float64(base.Cycles) / float64(mapl.Cycles)
	if speedup > 1.25 {
		t.Errorf("SPMM MAPLE speedup = %.2f; paper shows ~1.0 (compute bound)", speedup)
	}
}

func TestTwoThreadsSpeedUp(t *testing.T) {
	p := DefaultIrregularParams()
	base := RunIrregular(irregularSystem(t), SPMV, OneThread, p)
	two := RunIrregular(irregularSystem(t), SPMV, TwoThreads, p)
	speedup := float64(base.Cycles) / float64(two.Cycles)
	if speedup < 1.2 || speedup > 2.1 {
		t.Errorf("SPMV 2-thread speedup = %.2f, want in (1.2, 2.1)", speedup)
	}
}

// noiseSystem builds the paper's 1x1x2 GNG configuration: Ariane slot in
// tile 0, GNG in tile 1.
func noiseSystem(t *testing.T) *kernel.Kernel {
	k := newSystem(t, 1, 1, 2, true)
	pr := k.Prototype()
	pr.Nodes[0].Tiles[1].Accel = accel.NewGNG(1, pr.StatsForNode(0), "gng")
	return k
}

func TestNoiseGeneratorModesOrdered(t *testing.T) {
	p := DefaultNoiseParams()
	p.Samples = 1024
	var prev float64
	for i, mode := range NoiseModes {
		res := RunNoiseGenerator(noiseSystem(t), mode, p)
		cycles := float64(res.Cycles)
		if i > 0 && cycles >= prev {
			t.Fatalf("mode %s (%v cycles) not faster than previous (%v)", mode, cycles, prev)
		}
		prev = cycles
	}
}

func TestNoiseSpeedupBands(t *testing.T) {
	p := DefaultNoiseParams()
	p.Samples = 2048
	sw := float64(RunNoiseGenerator(noiseSystem(t), NoiseSW, p).Cycles)
	h1 := float64(RunNoiseGenerator(noiseSystem(t), NoiseHW1, p).Cycles)
	h4 := float64(RunNoiseGenerator(noiseSystem(t), NoiseHW4, p).Cycles)
	s1, s4 := sw/h1, sw/h4
	// Paper Fig. 10 benchmark A: 12x / 32x. Shape: large, increasing.
	if s1 < 5 || s1 > 25 {
		t.Errorf("HW1 speedup = %.1f, want ~12", s1)
	}
	if s4 < s1*1.5 {
		t.Errorf("HW4 speedup %.1f should clearly exceed HW1 %.1f", s4, s1)
	}
}

func TestNoiseApplierSmallerSpeedups(t *testing.T) {
	// Benchmark B accelerates a smaller fraction of the work, so its
	// speedups must be below benchmark A's (Amdahl).
	p := DefaultNoiseParams()
	p.Samples = 2048
	p.ApplyLen = 2048
	genSW := float64(RunNoiseGenerator(noiseSystem(t), NoiseSW, p).Cycles)
	genH4 := float64(RunNoiseGenerator(noiseSystem(t), NoiseHW4, p).Cycles)
	appSW := float64(RunNoiseApplier(noiseSystem(t), NoiseSW, p).Cycles)
	appH4 := float64(RunNoiseApplier(noiseSystem(t), NoiseHW4, p).Cycles)
	genSpeed := genSW / genH4
	appSpeed := appSW / appH4
	if appSpeed >= genSpeed {
		t.Fatalf("applier speedup %.1f not below generator speedup %.1f", appSpeed, genSpeed)
	}
	if appSpeed < 2 {
		t.Fatalf("applier speedup %.1f too small; paper shows ~13x for HW4", appSpeed)
	}
}

func TestGNGTrafficCounted(t *testing.T) {
	k := noiseSystem(t)
	p := DefaultNoiseParams()
	p.Samples = 256
	RunNoiseGenerator(k, NoiseHW2, p)
	if k.Prototype().Stats.Get("gng.samples") < 256 {
		t.Error("GNG fetch counters not advancing")
	}
}
