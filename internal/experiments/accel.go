package experiments

import (
	"fmt"
	"strings"

	"smappic/internal/accel"
	"smappic/internal/kernel"
	"smappic/internal/workload"
)

// Fig10Result is the GNG accelerator evaluation (paper Fig. 10).
type Fig10Result struct {
	// Speedup[benchmark][mode], relative to the SW mode.
	GenSpeedup   map[workload.NoiseMode]float64
	ApplySpeedup map[workload.NoiseMode]float64
}

// gngSystem builds the paper's 1x1x2 configuration: Ariane slot in tile 0,
// GNG accelerator in tile 1.
func gngSystem() *kernel.Kernel {
	p := newPrototype(1, 1, 2)
	p.Nodes[0].Tiles[1].Accel = accel.NewGNG(1, p.StatsForNode(0), "gng")
	return kernel.New(p, kernel.DefaultConfig())
}

// Fig10 runs both noise benchmarks in all four modes.
func Fig10(quick bool) Fig10Result {
	np := workload.DefaultNoiseParams()
	if quick {
		np.Samples = 1024
		np.ApplyLen = 512
	}
	res := Fig10Result{
		GenSpeedup:   make(map[workload.NoiseMode]float64),
		ApplySpeedup: make(map[workload.NoiseMode]float64),
	}
	var genSW, appSW float64
	for _, mode := range workload.NoiseModes {
		genSys, appSys := gngSystem(), gngSystem()
		g := workload.RunNoiseGenerator(genSys, mode, np)
		a := workload.RunNoiseApplier(appSys, mode, np)
		snapshot(fmt.Sprintf("fig10/gen/%v", mode), genSys.Prototype())
		snapshot(fmt.Sprintf("fig10/apply/%v", mode), appSys.Prototype())
		if mode == workload.NoiseSW {
			genSW, appSW = float64(g.Cycles), float64(a.Cycles)
		}
		res.GenSpeedup[mode] = genSW / float64(g.Cycles)
		res.ApplySpeedup[mode] = appSW / float64(a.Cycles)
	}
	return res
}

// String renders Fig. 10's bar values.
func (r Fig10Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 10: GNG accelerator speedup over software (paper: A: 1/12/21/32; B: 1/7.4/10/13)\n")
	fmt.Fprintf(&b, "%-22s", "Mode")
	for _, m := range workload.NoiseModes {
		fmt.Fprintf(&b, "%8s", m)
	}
	fmt.Fprintf(&b, "\n%-22s", "A: Noise generator")
	for _, m := range workload.NoiseModes {
		fmt.Fprintf(&b, "%8.1f", r.GenSpeedup[m])
	}
	fmt.Fprintf(&b, "\n%-22s", "B: Noise applier")
	for _, m := range workload.NoiseModes {
		fmt.Fprintf(&b, "%8.1f", r.ApplySpeedup[m])
	}
	b.WriteByte('\n')
	return b.String()
}

// Fig11Result is the MAPLE evaluation (paper Fig. 11).
type Fig11Result struct {
	// Speedup[kernel][mode], relative to single-thread execution.
	Speedup map[workload.IrregularKernel]map[workload.IrregularMode]float64
}

// Fig11 runs the four irregular kernels in the three execution modes on
// the paper's 1x1x6 configuration (cores in tiles 0/1, MAPLE in tile 2).
// It has no quick mode: the dataset must exceed the private caches, or the
// gather stops missing and MAPLE has nothing to hide, and the full
// parameters already run in seconds.
func Fig11() Fig11Result {
	p := workload.DefaultIrregularParams()
	res := Fig11Result{Speedup: make(map[workload.IrregularKernel]map[workload.IrregularMode]float64)}
	for _, kind := range workload.Kernels {
		res.Speedup[kind] = make(map[workload.IrregularMode]float64)
		var base float64
		for _, mode := range []workload.IrregularMode{workload.OneThread, workload.WithMAPLE, workload.TwoThreads} {
			k := kernel.New(newPrototype(1, 1, 6), kernel.DefaultConfig())
			r := workload.RunIrregular(k, kind, mode, p)
			snapshot(fmt.Sprintf("fig11/%v/%v", kind, mode), k.Prototype())
			if mode == workload.OneThread {
				base = float64(r.Cycles)
			}
			res.Speedup[kind][mode] = base / float64(r.Cycles)
		}
	}
	return res
}

// String renders Fig. 11's bar values.
func (r Fig11Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 11: MAPLE engine speedup over 1 thread (paper: SPMV 2.4/1.6, SPMM 1.0/1.4, SDHP 1.9/1.2, BFS 2.2/1.8)\n")
	fmt.Fprintf(&b, "%-8s %10s %10s %10s\n", "Kernel", "1 thread", "MAPLE", "2 threads")
	for _, kind := range workload.Kernels {
		fmt.Fprintf(&b, "%-8s %10.1f %10.1f %10.1f\n", kind,
			r.Speedup[kind][workload.OneThread],
			r.Speedup[kind][workload.WithMAPLE],
			r.Speedup[kind][workload.TwoThreads])
	}
	return b.String()
}
