// maple reproduces the hardware/software co-development case study of paper
// §4.3: the MAPLE decoupled-access engine on a 1x1x6 prototype (Ariane
// slots in tiles 0/1, MAPLE in tile 2), compared against single-thread and
// two-thread execution on four irregular kernels (Fig. 11).
package main

import (
	"fmt"
	"log"

	"smappic"
	"smappic/internal/workload"
)

func main() {
	newKernel := func() *smappic.Kernel {
		cfg := smappic.DefaultConfig(1, 1, 6)
		cfg.Core = smappic.CoreNone
		proto, err := smappic.Build(cfg)
		if err != nil {
			log.Fatal(err)
		}
		return smappic.BootKernel(proto, smappic.DefaultKernelConfig())
	}

	p := workload.DefaultIrregularParams()
	fmt.Printf("irregular kernels: %d rows (dense operand exceeds the private caches)\n\n", p.Rows)
	fmt.Printf("%-6s %12s %12s %12s %10s %10s\n",
		"kernel", "1T cycles", "MAPLE cycles", "2T cycles", "MAPLE x", "2T x")

	for _, kind := range workload.Kernels {
		var cycles [3]float64
		for i, mode := range []workload.IrregularMode{workload.OneThread, workload.WithMAPLE, workload.TwoThreads} {
			r := workload.RunIrregular(newKernel(), kind, mode, p)
			cycles[i] = float64(r.Cycles)
		}
		fmt.Printf("%-6s %12.0f %12.0f %12.0f %10.2f %10.2f\n",
			kind, cycles[0], cycles[1], cycles[2], cycles[0]/cycles[1], cycles[0]/cycles[2])
	}
	fmt.Println("\n(paper Fig. 11: MAPLE 2.4/1.0/1.9/2.2 vs 2-thread 1.6/1.4/1.2/1.8 on SPMV/SPMM/SDHP/BFS)")
	fmt.Println("MAPLE wins on latency-bound kernels; the second thread wins on compute-bound SPMM.")
}
