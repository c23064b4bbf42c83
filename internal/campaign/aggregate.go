package campaign

import (
	"encoding/json"
	"fmt"
	"strings"

	"smappic/internal/cloud"
	"smappic/internal/core"
	"smappic/internal/sim"
)

// Aggregate is the campaign-level report: per-job rows in expansion order,
// the merged counter registry, and the cloud cost estimate. Marshaling is
// deterministic — fixed field order, results sorted by job index, maps
// rendered with sorted keys — so two campaigns over the same spec produce
// byte-identical documents regardless of worker count, completion order or
// cache hits.
type Aggregate struct {
	Campaign string `json:"campaign"`
	Points   int    `json:"points"`
	Complete int    `json:"complete"`

	// Failed lists jobs that failed (label + error), in job order;
	// Skipped lists jobs a cancelled campaign never ran.
	Failed  []FailedJob `json:"failed,omitempty"`
	Skipped []string    `json:"skipped,omitempty"`

	// Results holds one row per completed job, in expansion order, with
	// the bulky MetricsJSON stripped (it stays in the cache).
	Results []Result `json:"results"`

	TotalCycles    uint64  `json:"total_cycles"`
	TotalFPGAHours float64 `json:"total_fpga_hours"`

	// MergedCounters sums every job's counter snapshot — the campaign's
	// view of the same registry a single run reports.
	MergedCounters map[string]uint64 `json:"merged_counters"`

	Cost *CostEstimate `json:"cost,omitempty"`
}

// FailedJob names a failure in the aggregate.
type FailedJob struct {
	Label string `json:"label"`
	Err   string `json:"error"`
}

// CostEstimate prices the campaign's FPGA-hours on the cheapest F1 instance
// that fits the largest job, and contrasts with buying the hardware
// (internal/cloud's Fig. 14 model).
type CostEstimate struct {
	Instance      string  `json:"instance"`
	FPGAHours     float64 `json:"fpga_hours"`
	CloudUSD      float64 `json:"cloud_usd"`
	OnPremUSD     float64 `json:"onprem_usd"`
	CrossoverDays float64 `json:"crossover_days"`
}

// Aggregate folds the campaign's outcomes into the report.
func (cr *CampaignResult) Aggregate() *Aggregate {
	agg := &Aggregate{
		Campaign:       cr.Spec.Name,
		Points:         len(cr.Jobs),
		MergedCounters: map[string]uint64{},
		Results:        []Result{},
	}
	maxFPGAs := 0
	for _, out := range cr.Jobs {
		switch out.Status {
		case StatusRun, StatusCached:
			row := *out.Result
			row.Metrics = nil
			agg.Results = append(agg.Results, row)
			agg.Complete++
			agg.TotalCycles += row.Cycles
			agg.TotalFPGAHours += row.FPGAHours
			for name, v := range row.Stats {
				agg.MergedCounters[name] += v
			}
			if a, _, _, err := core.ParseShape(row.Params.Shape); err == nil && a > maxFPGAs {
				maxFPGAs = a
			}
		case StatusFailed:
			agg.Failed = append(agg.Failed, FailedJob{Label: out.Job.Params.Label(), Err: out.Err})
		default:
			agg.Skipped = append(agg.Skipped, out.Job.Params.Label())
		}
	}
	if maxFPGAs > 0 {
		if inst, err := cloud.CheapestFor(cloud.Requirements{FPGAs: maxFPGAs}); err == nil {
			agg.Cost = &CostEstimate{
				Instance:      inst.Name,
				FPGAHours:     agg.TotalFPGAHours,
				CloudUSD:      agg.TotalFPGAHours * cloud.FPGAHourPrice,
				OnPremUSD:     cloud.OnPremCost(inst),
				CrossoverDays: cloud.CrossoverDays(inst),
			}
		}
	}
	return agg
}

// JSON renders the aggregate as the canonical campaign report document.
func (a *Aggregate) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// CSV renders one row per completed job for spreadsheet import.
func (a *Aggregate) CSV() string {
	var b strings.Builder
	b.WriteString("index,label,workload,shape,numa,homing,threads,active_nodes,keys,seed,faults,cycles,run_cycles,seconds,checksum,sorted,attempts,fpga_hours\n")
	for i, r := range a.Results {
		p := r.Params
		fmt.Fprintf(&b, "%d,%s,%s,%s,%v,%s,%d,%d,%d,%d,%q,%d,%d,%g,%s,%v,%d,%g\n",
			i, r.Label, p.Workload, p.Shape, p.NUMA, p.Homing, p.Threads, p.ActiveNodes,
			p.Keys, p.Seed, p.Faults, r.Cycles, r.RunCycles, r.Seconds, r.Checksum,
			r.Sorted, r.Attempts, r.FPGAHours)
	}
	return b.String()
}

// MergedReport renders the summed counters through the sim.Stats registry,
// reusing the single-run report machinery (sorted, aligned, one per line).
func (a *Aggregate) MergedReport() string {
	var s sim.Stats
	s.AddCounts(a.MergedCounters)
	return s.String()
}

// Summary renders the operator-facing run summary (counts, totals, cost).
// Wall-clock elapsed stays out of it; callers print that separately.
func (cr *CampaignResult) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign %q: %d points\n", cr.Spec.Name, len(cr.Jobs))
	fmt.Fprintf(&b, "  executed %d, cached %d, failed %d, skipped %d\n",
		cr.Executed, cr.Cached, cr.Failed, cr.Skipped)
	agg := cr.Aggregate()
	fmt.Fprintf(&b, "  simulated %d workload cycles over %d completed jobs\n", agg.TotalCycles, agg.Complete)
	if agg.Cost != nil {
		fmt.Fprintf(&b, "  cost: %.6f FPGA-hours -> $%.4f on %s (hardware $%.0f, crossover %.0f days)\n",
			agg.Cost.FPGAHours, agg.Cost.CloudUSD, agg.Cost.Instance, agg.Cost.OnPremUSD, agg.Cost.CrossoverDays)
	}
	if cr.Failed > 0 {
		for _, out := range cr.Jobs {
			if out.Status == StatusFailed {
				fmt.Fprintf(&b, "  FAILED %s: %s\n", out.Job.Params.Label(), firstLine(out.Err))
			}
		}
	}
	return b.String()
}

// firstLine truncates multi-line errors for the summary.
func firstLine(s string) string {
	first, _, _ := strings.Cut(s, "\n")
	return first
}
