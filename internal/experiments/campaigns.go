package experiments

import (
	"context"
	"fmt"
	"runtime"

	"smappic/internal/bridge"
	"smappic/internal/campaign"
)

// isSeed keeps the ported sweeps on the exact key streams the pre-campaign
// experiments used (workload.RunIS's historical default).
const isSeed = 12345

// runCampaign executes a spec on the campaign engine with one worker per
// CPU and no cache, panicking on any failed point — experiment figures are
// all-or-nothing, exactly as the hand-rolled loops were. Outcomes come back
// in expansion order, so callers can map them deterministically.
func runCampaign(spec campaign.Spec) []campaign.JobOutcome {
	r := &campaign.Runner{Workers: runtime.GOMAXPROCS(0)}
	res, err := r.Run(context.Background(), spec)
	if err != nil {
		panic(fmt.Sprintf("experiments: campaign %s: %v", spec.Name, err))
	}
	for _, out := range res.Jobs {
		if out.Status != campaign.StatusRun {
			panic(fmt.Sprintf("experiments: campaign %s: job %s: %s (%s)",
				spec.Name, out.Job.Params.Label(), out.Status, out.Err))
		}
	}
	return res.Jobs
}

// BuiltinSpec resolves a named builtin sweep for smappic-fleet. quick
// shrinks the problem sizes the same way the figure helpers' quick mode
// does.
func BuiltinSpec(name string, quick bool) (campaign.Spec, bool) {
	for _, s := range BuiltinSpecs(quick) {
		if s.Name == name {
			return s, true
		}
	}
	return campaign.Spec{}, false
}

// BuiltinSpecs lists the sweeps smappic-fleet can run by name: the CI smoke
// grid, the Fig. 8 NUMA scaling study, the Fig. 9 thread-allocation study,
// the three interconnect ablations and the fault-tolerance ablation.
func BuiltinSpecs(quick bool) []campaign.Spec {
	fig8 := campaign.Spec{
		Name:      "numa",
		Shapes:    []string{"4x1x12"},
		Workloads: []string{campaign.WorkloadIS},
		NUMA:      []bool{true, false},
		Threads:   []int{3, 6, 12, 24, 48},
		Seeds:     []uint64{isSeed},
		Keys:      1 << 15,
	}
	fig9 := campaign.Spec{
		Name:        "alloc",
		Shapes:      []string{"4x1x12"},
		Workloads:   []string{campaign.WorkloadIS},
		NUMA:        []bool{true, false},
		Threads:     []int{12},
		ActiveNodes: []int{1, 2, 3, 4},
		Seeds:       []uint64{isSeed},
		Keys:        1 << 15,
	}
	if quick {
		fig8.Threads = []int{3, 12, 48}
		fig8.Keys = 1 << 14
		fig9.Keys = 1 << 13
	}
	return []campaign.Spec{
		{
			Name:      "smoke",
			Shapes:    []string{"1x1x2", "2x1x2"},
			Workloads: []string{campaign.WorkloadIS},
			Seeds:     []uint64{1, 2},
			Keys:      1 << 10,
		},
		fig8,
		fig9,
		{
			Name:      "homing",
			Shapes:    []string{"2x1x4"},
			Workloads: []string{campaign.WorkloadIS},
			Homing:    []string{campaign.HomingRegion, campaign.HomingInterleave},
			Threads:   []int{8},
			Seeds:     []uint64{isSeed},
			Keys:      1 << 13,
		},
		{
			Name:      "credits",
			Shapes:    []string{"2x1x2"},
			Workloads: []string{campaign.WorkloadStores},
			Credits:   []int{9, 24, 72, bridge.DefaultParams().CreditsPerDst},
			Keys:      256,
		},
		{
			Name:         "interconnect",
			Shapes:       []string{"2x1x4"},
			Workloads:    []string{campaign.WorkloadProbe},
			ExtraLatency: []uint64{0, 125, 375},
			Keys:         1,
		},
		{
			Name:      "faults",
			Shapes:    []string{"4x1x2"},
			Workloads: []string{campaign.WorkloadProbe, campaign.WorkloadIS},
			Threads:   []int{8},
			Seeds:     []uint64{isSeed},
			Faults:    faultTolerancePlans(),
			FaultSeed: 7,
			Keys:      1 << 12,
		},
	}
}
