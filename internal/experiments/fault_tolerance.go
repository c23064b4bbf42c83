package experiments

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"smappic/internal/campaign"
	"smappic/internal/sim"
)

// AblationFaultTolerance stresses the recovery machinery end to end: the
// Fig. 7 latency probe and a scaled NPB-IS run on a 4-node system under
// increasing PCIe loss rates. Correctness must be binary — every run
// delivers the byte-identical sorted output — while runtime degrades
// gracefully as retransmissions eat link bandwidth.

// FaultToleranceRow is one loss-rate point of the sweep.
type FaultToleranceRow struct {
	DropP        float64  // per-transfer PCIe drop probability
	ProbeLatency sim.Time // Fig. 7 inter-node probe under this loss rate
	Cycles       sim.Time // scaled NPB-IS runtime
	Checksum     uint64   // FNV-1a of the sorted output
	Sorted       bool
	Retransmits  uint64 // pcie.ep*.retransmits
	LinkFailed   uint64 // pcie.ep*.link_failed (exhausted retries)
	CreditLost   uint64 // bridge credit-return updates lost (each healed by the next poll)
	EccCorrected uint64 // DRAM single-bit upsets corrected by SECDED
}

// AblationFaultToleranceResult is the full sweep.
type AblationFaultToleranceResult struct {
	Rows []FaultToleranceRow
	// Identical reports whether every lossy run produced the exact output
	// of the fault-free run.
	Identical bool
	// MaxSlowdown is the worst runtime ratio versus the fault-free run.
	MaxSlowdown float64
}

// faultToleranceLossRates is the swept per-transfer drop probability.
var faultToleranceLossRates = []float64{0, 0.01, 0.02, 0.05}

// faultTolerancePlans are the sweep's fault specs, one per loss rate. Besides
// the swept PCIe loss, every lossy run also loses two credit-return updates
// per bridge (each read again by the next credit poll) and takes four
// single-bit DRAM upsets per channel (repaired by SECDED), so all three
// recovery paths are exercised at once.
func faultTolerancePlans() []string {
	plans := []string{""}
	for _, p := range faultToleranceLossRates[1:] {
		plans = append(plans, fmt.Sprintf("pcie.*.drop:p=%g;*.bridge.drop:n=2;*.dram.flip:n=4", p))
	}
	return plans
}

// AblationFaultTolerance runs the builtin "faults" sweep on the campaign
// engine: on a 4x1x2 prototype (4 nodes, so every IS all-to-all phase
// crosses the PCIe fabric), one probe job and one IS job per loss rate.
func AblationFaultTolerance() AblationFaultToleranceResult {
	spec, _ := BuiltinSpec("faults", false)
	res := AblationFaultToleranceResult{Identical: true, MaxSlowdown: 1}
	for _, p := range faultToleranceLossRates {
		res.Rows = append(res.Rows, FaultToleranceRow{DropP: p})
	}
	for _, out := range runCampaign(spec) {
		p, r := out.Job.Params, out.Result
		row := &res.Rows[slices.Index(spec.Faults, p.Faults)]
		if p.Workload == campaign.WorkloadProbe {
			row.ProbeLatency = sim.Time(r.Cycles)
			continue
		}
		row.Cycles = sim.Time(r.Cycles)
		row.Checksum, _ = strconv.ParseUint(r.Checksum, 16, 64) // an IS job's is %016x
		row.Sorted = r.Sorted
		row.Retransmits = sumSuffix(r.Stats, ".retransmits")
		row.LinkFailed = sumSuffix(r.Stats, ".link_failed")
		row.CreditLost = sumSuffix(r.Stats, ".credit_loss")
		row.EccCorrected = sumSuffix(r.Stats, ".ecc_corrected")
		snapshotMetrics(fmt.Sprintf("ablation-faults/p=%g", row.DropP), r.Metrics)
	}
	base := res.Rows[0]
	for _, row := range res.Rows[1:] {
		if row.Checksum != base.Checksum || !row.Sorted {
			res.Identical = false
		}
		if s := float64(row.Cycles) / float64(base.Cycles); s > res.MaxSlowdown {
			res.MaxSlowdown = s
		}
	}
	return res
}

// sumSuffix totals every counter whose name ends in suffix (the recovery
// counters are per endpoint).
func sumSuffix(stats map[string]uint64, suffix string) uint64 {
	var total uint64
	for name, v := range stats {
		if strings.HasSuffix(name, suffix) {
			total += v
		}
	}
	return total
}

// String renders the sweep.
func (r AblationFaultToleranceResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation (fault tolerance): Fig. 7 probe + scaled NPB-IS on 4x1x2 under PCIe loss\n")
	fmt.Fprintf(&b, "%8s %12s %12s %12s %12s %10s %8s %18s\n",
		"drop p", "probe (cyc)", "IS (cyc)", "retransmits", "link_failed", "cred_lost", "ecc_fix", "output checksum")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%8g %12d %12d %12d %12d %10d %8d %18x\n",
			row.DropP, row.ProbeLatency, row.Cycles, row.Retransmits, row.LinkFailed,
			row.CreditLost, row.EccCorrected, row.Checksum)
	}
	if r.Identical {
		fmt.Fprintf(&b, "all outputs byte-identical to the fault-free run; worst slowdown %.2fx\n", r.MaxSlowdown)
	} else {
		fmt.Fprintf(&b, "OUTPUT DIVERGED under loss — recovery failed\n")
	}
	return b.String()
}
