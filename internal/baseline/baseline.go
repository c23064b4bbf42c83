// Package baseline models the architecture-modeling tools SMAPPIC is
// compared against in §4.5 (Fig. 13, Table 3): Sniper, gem5, Verilator and
// FireSim, plus the SiFive Freedom U740 silicon used as the ground-truth
// execution platform. Each tool is reduced to what the cost comparison
// observes: an effective simulation rate, host requirements, and how many
// independent prototype instances share one host.
package baseline

import (
	"fmt"

	"smappic/internal/cloud"
)

// Tool identifies a modeling approach.
type Tool string

const (
	SMAPPIC       Tool = "SMAPPIC"
	FireSimSingle Tool = "FireSim single-node"
	FireSimSuper  Tool = "FireSim supernode"
	Sniper        Tool = "Sniper"
	Gem5          Tool = "gem5"
	Verilator     Tool = "Verilator"
	SiliconU740   Tool = "SiFive U740"
)

// Model captures a tool's cost-relevant behavior.
type Model struct {
	Tool Tool
	// RateIPS is the effective simulated-instruction rate (per second).
	RateIPS float64
	// InstancesPerHost is how many independent benchmark runs share one
	// host (SMAPPIC's 1x4x2 packs four prototypes per FPGA; FireSim
	// supernode packs four as well but at reduced frequency).
	InstancesPerHost int
	// Requirements select the cheapest suitable EC2 instance (Table 3).
	Requirements cloud.Requirements
	// Notes records the paper's caveats (ISA substitutions, failures).
	Notes string
}

// Models returns the evaluated tool set with calibrated rates.
//
// Rates derive from the paper's anchors: SMAPPIC runs at 100 MHz with the
// Ariane's ~0.5 IPC on SPEC-like code (50 MIPS); single-node FireSim is
// comparable in frequency ("similar frequencies") but packs one instance
// per FPGA; supernode FireSim packs four at ~0.4x frequency; Sniper is a
// parallel ~5 MIPS simulator; gem5's detailed model is ~5 KIPS; Verilator
// simulates RTL at ~6 kHz (the paper's 65 s vs 4 ms HelloWorld anchor).
func Models() []Model {
	return []Model{
		{SMAPPIC, 50e6, 4, cloud.Requirements{VCPUs: 1, MemoryGB: 8, FPGAs: 1}, "1x4x2 configuration, four independent prototypes per FPGA"},
		{FireSimSingle, 50e6, 1, cloud.Requirements{VCPUs: 1, MemoryGB: 8, FPGAs: 1}, "one quad-core RocketChip, no network simulation"},
		{FireSimSuper, 20e6, 4, cloud.Requirements{VCPUs: 1, MemoryGB: 8, FPGAs: 1}, "four single-core instances, network simulated, lower frequency"},
		{Sniper, 5e6, 1, cloud.Requirements{VCPUs: 2, MemoryGB: 8}, "x86-64 binaries (RISC-V support did not run); no perlbench (forks unsupported)"},
		{Gem5, 5e3, 1, cloud.Requirements{VCPUs: 1, MemoryGB: 64}, "mcf requires a 350 GB host"},
		{Verilator, 6.15e3, 1, cloud.Requirements{VCPUs: 1, MemoryGB: 8}, "RTL simulation"},
		{SiliconU740, 720e6, 1, cloud.Requirements{}, "HiFive Unmatched, 1.2 GHz, baseline silicon"},
	}
}

// ModelFor returns the model of one tool.
func ModelFor(t Tool) Model {
	for _, m := range Models() {
		if m.Tool == t {
			return m
		}
	}
	panic(fmt.Sprintf("baseline: unknown tool %q", t))
}

// Benchmark is one SPECint 2017 component with its "test"-input dynamic
// instruction count (billions), reconstructed from the U740 runtimes.
type Benchmark struct {
	Name      string
	GInstr    float64 // dynamic instructions, billions
	Gem5MemGB int     // host memory gem5 needed
	SniperOK  bool    // perlbench forks break Sniper
}

// SPECint2017 lists the paper's benchmark suite ("test" inputs).
var SPECint2017 = []Benchmark{
	{"deepsjeng", 85, 64, true},
	{"exchange2", 4, 64, true},
	{"gcc", 60, 64, true},
	{"leela", 6, 64, true},
	{"mcf", 210, 350, true},
	{"omnetpp", 90, 64, true},
	{"perlbench", 55, 64, false},
	{"x264", 150, 64, true},
	{"xalancbmk", 130, 64, true},
	{"xz", 300, 350, true},
}

// Cost returns the dollars to run one benchmark on one tool: runtime at the
// tool's rate, on the cheapest suitable instance, divided across the
// instances sharing the host.
func Cost(m Model, b Benchmark) (dollars float64, hours float64, err error) {
	if m.Tool == Sniper && !b.SniperOK {
		return 0, 0, fmt.Errorf("baseline: Sniper cannot run %s (forks)", b.Name)
	}
	req := m.Requirements
	if m.Tool == Gem5 {
		req.MemoryGB = b.Gem5MemGB
	}
	inst, err := cloud.CheapestFor(req)
	if err != nil {
		return 0, 0, err
	}
	seconds := b.GInstr * 1e9 / m.RateIPS
	hours = seconds / 3600
	dollars = hours * inst.PricePerHr / float64(m.InstancesPerHost)
	return dollars, hours, nil
}

// SuiteCost sums Cost over the SPECint suite, skipping benchmarks the tool
// cannot run (as the paper does for Sniper/perlbench).
func SuiteCost(m Model) (dollars float64, skipped []string) {
	for _, b := range SPECint2017 {
		d, _, err := Cost(m, b)
		if err != nil {
			skipped = append(skipped, b.Name)
			continue
		}
		dollars += d
	}
	return dollars, skipped
}

// HelloWorld anchors the Verilator comparison of §4.5: the example's cycle
// count, measured on the prototype, converts to both tools' wall-clock.
type HelloWorld struct {
	Cycles uint64
}

// SMAPPICSeconds is the prototype's wall-clock at 100 MHz.
func (h HelloWorld) SMAPPICSeconds() float64 { return float64(h.Cycles) / 100e6 }

// VerilatorSeconds is the RTL simulator's wall-clock at its modeled rate.
func (h HelloWorld) VerilatorSeconds() float64 {
	return float64(h.Cycles) / ModelFor(Verilator).RateIPS
}

// CostEfficiencyRatio returns how much more cost-efficient SMAPPIC is than
// Verilator on this run (the paper derives ~1600x): the speed ratio divided
// by the price ratio of their hosts, with SMAPPIC sharing the FPGA 4-ways.
func (h HelloWorld) CostEfficiencyRatio() float64 {
	speed := h.VerilatorSeconds() / h.SMAPPICSeconds()
	smappicHost, _ := cloud.CheapestFor(ModelFor(SMAPPIC).Requirements)
	verilatorHost, _ := cloud.CheapestFor(ModelFor(Verilator).Requirements)
	price := (smappicHost.PricePerHr / 4) / verilatorHost.PricePerHr
	return speed / price
}
