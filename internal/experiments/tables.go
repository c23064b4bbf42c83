// Package experiments regenerates every table and figure of the paper's
// evaluation. Each function returns the key numbers plus a formatted
// rendering of the same rows/series the paper reports; the benchmark
// harness (bench_test.go) and the smappic-bench command both drive it.
package experiments

import (
	"fmt"
	"strings"

	"smappic/internal/baseline"
	"smappic/internal/cache"
	"smappic/internal/cloud"
	"smappic/internal/core"
	"smappic/internal/fpga"
	"smappic/internal/mem"
)

// Table1 renders the available F1 instances (paper Table 1).
func Table1() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: Available AWS EC2 F1 instances\n")
	fmt.Fprintf(&b, "%-12s %8s %8s %9s %7s %9s %10s %10s\n",
		"Instance", "#vCPUs", "HostMem", "Storage", "#FPGAs", "FPGAMem", "Price/hr", "HW price")
	for _, i := range cloud.F1Instances() {
		fmt.Fprintf(&b, "%-12s %8d %7dG %8dG %7d %8dG %9.2f$ %9.0f$\n",
			i.Name, i.VCPUs, i.MemoryGB, i.StorageGB, i.FPGAs, i.FPGAMemGB, i.PricePerHr, i.HardwarePrice)
	}
	return b.String()
}

// Table2 renders the prototyped system parameters (paper Table 2).
func Table2() string {
	cfg := core.DefaultConfig(4, 1, 12)
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: Prototyped System Parameters\n")
	rows := [][2]string{
		{"Instruction set", "RISC-V 64-bit"},
		{"Operating system", "mini-kernel (stands in for Linux v5.12, NUMA)"},
		{"Frequency", fmt.Sprintf("%d MHz", core.ClockMHz)},
		{"Core", string(cfg.Core) + " (in-order, 6-stage model)"},
		{"L1D cache", fmt.Sprintf("%d KB, %d ways", cfg.Cache.L1DSizeBytes/1024, cache.Ways)},
		{"L1I cache", fmt.Sprintf("%d KB, %d ways", cfg.Cache.L1ISizeBytes/1024, cache.Ways)},
		{"BPC cache", fmt.Sprintf("%d KB, %d ways", cfg.Cache.BPCSizeBytes/1024, cache.Ways)},
		{"LLC cache slice", fmt.Sprintf("%d KB, %d ways", cfg.Cache.LLCSliceSize/1024, cache.Ways)},
		{"DRAM latency", fmt.Sprintf("%d cycles (+controller path = 80)", mem.DRAMLatency)},
		{"Inter-node round-trip latency", "125 cycles"},
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-32s %s\n", r[0], r[1])
	}
	return b.String()
}

// Table3 renders host requirements and cheapest instances (paper Table 3).
func Table3() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: Requirements for host machines and cheapest suitable AWS EC2 instances\n")
	fmt.Fprintf(&b, "%-22s %7s %8s %6s %-9s %9s\n", "Tool", "#vCPUs", "Memory", "FPGAs", "Instance", "Price/hr")
	for _, tool := range []baseline.Tool{baseline.Sniper, baseline.Gem5, baseline.Verilator, baseline.SMAPPIC} {
		m := baseline.ModelFor(tool)
		inst, err := cloud.CheapestFor(m.Requirements)
		if err != nil {
			fmt.Fprintf(&b, "%-22s <no instance: %v>\n", tool, err)
			continue
		}
		fmt.Fprintf(&b, "%-22s %7d %7dG %6d %-9s %8.2f$\n",
			tool, m.Requirements.VCPUs, m.Requirements.MemoryGB, m.Requirements.FPGAs, inst.Name, inst.PricePerHr)
	}
	return b.String()
}

// Table4Rows returns the resource model's reports for the paper's shapes.
func Table4Rows() []fpga.Report { return fpga.Table4() }

// Table4 renders SMAPPIC configurations with frequency and LUT utilization.
func Table4() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4: SMAPPIC configurations (BxC) with frequencies and LUT utilizations\n")
	fmt.Fprintf(&b, "%-14s %10s %12s\n", "Configuration", "Frequency", "Utilization")
	for _, r := range Table4Rows() {
		fmt.Fprintf(&b, "%-14s %7d MHz %11.0f%%\n",
			fmt.Sprintf("%dx%d", r.NodesPerFPGA, r.TilesPerNode), r.FrequencyMHz, r.Utilization*100)
	}
	flow := fpga.EstimateBuild(fpga.Estimate(1, 12))
	fmt.Fprintf(&b, "Build flow (1x12): synthesis %.1fh (%d GB), AWS postprocess %.1fh, bitstream load %ds\n",
		flow.SynthesisTime.Hours(), flow.SynthesisMemGB, flow.AWSPostprocess.Hours(),
		int(flow.BitstreamLoad.Seconds()))
	return b.String()
}
