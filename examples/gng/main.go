// gng reproduces the accelerator case study of paper §4.2: a 1x1x2
// prototype with an Ariane slot in tile 0 and the OpenCores Gaussian Noise
// Generator in tile 1, comparing software generation against 1/2/4-sample
// hardware fetches (Fig. 10).
package main

import (
	"fmt"
	"log"
	"math"

	"smappic"
	"smappic/internal/accel"
	"smappic/internal/workload"
)

func main() {
	base := func() *smappic.Kernel {
		cfg := smappic.DefaultConfig(1, 1, 2)
		cfg.Core = smappic.CoreNone
		proto, err := smappic.Build(cfg)
		if err != nil {
			log.Fatal(err)
		}
		// Integrate the accelerator: tile 1's compute slot becomes the GNG
		// (the paper's 1.5-hour TRI integration, one line here).
		proto.Nodes[0].Tiles[1].Accel = accel.NewGNG(1, proto.StatsForNode(0), "gng")
		return smappic.BootKernel(proto, smappic.DefaultKernelConfig())
	}

	p := workload.DefaultNoiseParams()
	fmt.Printf("benchmark A (generate %d samples) and B (apply noise to %d bytes):\n\n",
		p.Samples, p.ApplyLen)
	fmt.Printf("%-6s %16s %16s %10s %10s\n", "mode", "gen cycles", "apply cycles", "gen x", "apply x")

	var genSW, appSW float64
	for _, mode := range workload.NoiseModes {
		g := workload.RunNoiseGenerator(base(), mode, p)
		a := workload.RunNoiseApplier(base(), mode, p)
		if mode == workload.NoiseSW {
			genSW, appSW = float64(g.Cycles), float64(a.Cycles)
		}
		fmt.Printf("%-6s %16d %16d %10.1f %10.1f\n", mode, g.Cycles, a.Cycles,
			genSW/float64(g.Cycles), appSW/float64(a.Cycles))
	}

	// Verify the noise is actually Gaussian — the accelerator is
	// functional, not a stub. Its software reference draws the same stream
	// (same Tausworthe source, same Box-Muller), so it stands in here
	// without a prototype around it.
	g := accel.NewSoftwareGNG(99)
	const n = 50000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := float64(g.Sample()) / 2048
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	std := math.Sqrt(sum2/n - mean*mean)
	fmt.Printf("\nsample statistics over %d values: mean %.4f, stddev %.4f (want ~0, ~1)\n", n, mean, std)
	fmt.Println("(paper Fig. 10: A speeds up 12/21/32x for 1/2/4 fetches; B 7.4/10/13x)")
}
