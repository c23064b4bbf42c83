// Package campaign is the experiment-sweep engine: a declarative Spec
// describes a parameter grid (shapes x workloads x NUMA modes x seeds x
// fault plans x ...), the engine expands it into independent jobs, runs them
// on a bounded worker pool with per-job timeouts, and merges the per-job
// statistics into one deterministic campaign report with a cloud cost
// estimate.
//
// Because every job is a deterministic simulation, the campaign's aggregate
// output is byte-identical regardless of worker count, job completion order
// or whether results came from the content-addressed cache — the same
// adversarial testability contract the sharded engine (internal/sim
// parallel) established for a single run, lifted to fleets of runs.
package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"strings"
	"time"

	"smappic/internal/core"
	"smappic/internal/fault"
)

// Workload names the execution-driven programs a job can run.
const (
	// WorkloadIS is the NPB integer sort (Figs. 8-9): the all-to-all
	// redistribution stresses the inter-node fabric and the sorted output
	// checksum proves end-to-end correctness.
	WorkloadIS = "is"
	// WorkloadProbe is the Fig. 7 latency probe: one dirty-line read from
	// node 0 to node 1 (requires >= 2 nodes).
	WorkloadProbe = "probe"
	// WorkloadStores is a cross-node store stream (256-style line stores
	// from node 0 into node 1's DRAM) — the bridge-credit ablation kernel.
	WorkloadStores = "stores"
)

// Params fully resolve one job: every knob that can influence the simulated
// outcome, no defaults left implicit. Two jobs with equal Params are the
// same experiment — Key() hashes the canonical encoding, and the result
// cache is addressed by that hash.
type Params struct {
	Shape    string `json:"shape"`    // AxBxC
	Workload string `json:"workload"` // is | probe | stores
	// NUMA selects the kernel's NUMA-aware placement/scheduling mode.
	NUMA bool `json:"numa"`
	// Homing is "region" (SMAPPIC's address-region homing) or "interleave"
	// (the ablation's global line interleaving).
	Homing string `json:"homing"`
	// Threads is the IS thread count; 0 means one per hart.
	Threads int `json:"threads"`
	// ActiveNodes pins the IS threads to the first N nodes (taskset);
	// 0 runs on all nodes.
	ActiveNodes int `json:"active_nodes"`
	// Keys is the problem size: IS key count, or store count for "stores".
	Keys int    `json:"keys"`
	Seed uint64 `json:"seed"`
	// Faults is a fault-injection spec in the internal/fault grammar;
	// empty disables injection.
	Faults    string `json:"faults"`
	FaultSeed uint64 `json:"fault_seed"`
	// Credits overrides the bridge's per-destination credit pool (0 keeps
	// the default sizing).
	Credits int `json:"credits"`
	// ExtraLatency adds cycles to the inter-node bridge shaper (the
	// slower-interconnect ablation).
	ExtraLatency uint64 `json:"extra_latency"`
	// MaxCycles aborts a runaway job past this simulated time (0 = none).
	MaxCycles uint64 `json:"max_cycles"`
}

// cacheVersion salts the content hash, and with it every result key and
// every in-flight checkpoint path; bump it whenever the executor or the
// Result encoding changes meaning, so stale cache entries miss instead of
// poisoning new runs. (v5: IS results moved when a bridge credit read began
// answering with the receiver's running total and the reconciliation
// watchdog went. v6: results of ExtraLatency > 0 jobs lost the always-zero
// bridge shaper throttle_cycles counter when the shaper's bandwidth model
// went.)
const cacheVersion = "campaign-v6"

// Key returns the content address of the job: a hash of the canonical JSON
// encoding of the fully resolved parameters.
func (p Params) Key() string {
	b, err := json.Marshal(p)
	if err != nil {
		panic(fmt.Sprintf("campaign: params not encodable: %v", err))
	}
	sum := sha256.Sum256(append([]byte(cacheVersion+"\n"), b...))
	return hex.EncodeToString(sum[:])
}

// Label renders a compact human-readable job name for reports and logs.
func (p Params) Label() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s", p.Workload, p.Shape)
	if p.Workload == WorkloadIS {
		fmt.Fprintf(&b, "/numa=%v", p.NUMA)
		if p.Threads > 0 {
			fmt.Fprintf(&b, "/t%d", p.Threads)
		}
		if p.ActiveNodes > 0 {
			fmt.Fprintf(&b, "/nodes%d", p.ActiveNodes)
		}
	}
	if p.Homing == HomingInterleave {
		b.WriteString("/interleave")
	}
	if p.Credits > 0 {
		fmt.Fprintf(&b, "/credits%d", p.Credits)
	}
	if p.ExtraLatency > 0 {
		fmt.Fprintf(&b, "/extra%d", p.ExtraLatency)
	}
	if p.Faults != "" {
		fmt.Fprintf(&b, "/faults[%s]", p.Faults)
	}
	fmt.Fprintf(&b, "/seed%d", p.Seed)
	return b.String()
}

// Homing policy names.
const (
	HomingRegion     = "region"
	HomingInterleave = "interleave"
)

// Validate checks a job's parameters without building the prototype,
// refusing every shape core.Build would refuse.
func (p Params) Validate() error {
	a, b, c, err := core.ParseShape(p.Shape)
	if err != nil {
		return err
	}
	if err := core.DefaultConfig(a, b, c).Validate(); err != nil {
		return err
	}
	if p.Threads < 0 || p.Credits < 0 || p.ActiveNodes < 0 {
		return fmt.Errorf("campaign: threads, credits and active_nodes must be >= 0 (got %d, %d, %d)", p.Threads, p.Credits, p.ActiveNodes)
	}
	switch p.Workload {
	case WorkloadIS:
		if p.Keys <= 0 {
			return fmt.Errorf("campaign: %s needs keys > 0", p.Workload)
		}
	case WorkloadProbe, WorkloadStores:
		if a*b < 2 {
			return fmt.Errorf("campaign: %s needs >= 2 nodes, shape %s has %d", p.Workload, p.Shape, a*b)
		}
		if p.Workload == WorkloadStores && p.Keys <= 0 {
			return fmt.Errorf("campaign: stores needs keys > 0 (the store count)")
		}
	default:
		return fmt.Errorf("campaign: unknown workload %q", p.Workload)
	}
	if p.Homing != HomingRegion && p.Homing != HomingInterleave {
		return fmt.Errorf("campaign: unknown homing policy %q", p.Homing)
	}
	if p.ActiveNodes > a*b {
		return fmt.Errorf("campaign: active_nodes %d exceeds the %d nodes of %s", p.ActiveNodes, a*b, p.Shape)
	}
	_, err = fault.Parse(p.Faults, p.FaultSeed)
	return err
}

// Spec is a declarative sweep: the cartesian product of every dimension
// list, with scalar knobs shared by all points. Empty dimension lists get a
// one-element default, so the minimal spec is just a name, one shape and
// one workload.
type Spec struct {
	Name      string   `json:"name"`
	Shapes    []string `json:"shapes"`
	Workloads []string `json:"workloads"`

	// Dimensions (empty = the single default in brackets).
	NUMA         []bool   `json:"numa,omitempty"`          // [true]
	Homing       []string `json:"homing,omitempty"`        // ["region"]
	Threads      []int    `json:"threads,omitempty"`       // [0] = all harts
	ActiveNodes  []int    `json:"active_nodes,omitempty"`  // [0] = all nodes
	Seeds        []uint64 `json:"seeds,omitempty"`         // [1]
	Faults       []string `json:"faults,omitempty"`        // [""] = none
	Credits      []int    `json:"credits,omitempty"`       // [0] = default pool
	ExtraLatency []uint64 `json:"extra_latency,omitempty"` // [0]

	// Scalars shared by every point.
	Keys      int    `json:"keys,omitempty"`       // default 1<<13
	FaultSeed uint64 `json:"fault_seed,omitempty"` // default 1
	MaxCycles uint64 `json:"max_cycles,omitempty"`

	// Execution policy (does not affect results, only how they are won).
	TimeoutSec float64 `json:"timeout_sec,omitempty"` // per-job wall clock, 0 = none
	// CheckpointEvery, with a cache configured, checkpoints every running
	// IS job each time it crosses another interval of simulated cycles; a
	// killed campaign resumes those jobs mid-flight instead of from zero.
	// Results are byte-identical with or without checkpointing.
	CheckpointEvery uint64 `json:"checkpoint_every,omitempty"`
}

// MaxPoints bounds a spec's expansion. Every built-in sweep and the
// benchmark's are a few hundred points at most; the bound exists so that a
// grid submitted to a shared fleetd is refused before it is allocated.
const MaxPoints = 1 << 16

// maxTimeoutSec is the longest timeout_sec a time.Duration holds: past it
// the per-job deadline overflows into the past and aborts every job at
// cycle 0.
const maxTimeoutSec = float64(math.MaxInt64 / int64(time.Second))

// Job is one expanded point of a campaign.
type Job struct {
	// Index is the job's position in the expansion order; aggregation
	// sorts by it, which is what makes reports independent of completion
	// order.
	Index  int
	Params Params
}

// ParseSpec decodes a JSON spec, rejecting unknown fields so typos in sweep
// files fail loudly instead of silently collapsing a dimension.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("campaign: bad spec: %w", err)
	}
	return s, nil
}

// withDefaults returns the spec with every empty dimension filled in.
func (s Spec) withDefaults() Spec {
	if len(s.NUMA) == 0 {
		s.NUMA = []bool{true}
	}
	if len(s.Homing) == 0 {
		s.Homing = []string{HomingRegion}
	}
	if len(s.Threads) == 0 {
		s.Threads = []int{0}
	}
	if len(s.ActiveNodes) == 0 {
		s.ActiveNodes = []int{0}
	}
	if len(s.Seeds) == 0 {
		s.Seeds = []uint64{1}
	}
	if len(s.Faults) == 0 {
		s.Faults = []string{""}
	}
	if len(s.Credits) == 0 {
		s.Credits = []int{0}
	}
	if len(s.ExtraLatency) == 0 {
		s.ExtraLatency = []uint64{0}
	}
	if s.Keys == 0 {
		s.Keys = 1 << 13
	}
	if s.FaultSeed == 0 {
		s.FaultSeed = 1
	}
	return s
}

// Jobs expands the spec into its grid, in a fixed nesting order (workload,
// shape, homing, NUMA, threads, active nodes, credits, extra latency,
// faults, seed — innermost last). The order is part of the report format:
// job indices, and therefore row order in every aggregate, depend only on
// the spec.
func (s Spec) Jobs() ([]Job, error) {
	if s.Name == "" {
		return nil, fmt.Errorf("campaign: spec needs a name")
	}
	if len(s.Shapes) == 0 || len(s.Workloads) == 0 {
		return nil, fmt.Errorf("campaign: spec needs at least one shape and one workload")
	}
	if !(s.TimeoutSec >= 0 && s.TimeoutSec <= maxTimeoutSec) {
		return nil, fmt.Errorf("campaign: timeout_sec %g out of range [0, %g]", s.TimeoutSec, maxTimeoutSec)
	}
	d := s.withDefaults()
	// Size the grid before building any of it: the axes multiply, so a spec
	// of a few hundred bytes can name more points than memory holds (and
	// more than an int counts, hence big).
	points := big.NewInt(1)
	for _, n := range []int{len(d.Workloads), len(d.Shapes), len(d.Homing), len(d.NUMA), len(d.Threads),
		len(d.ActiveNodes), len(d.Credits), len(d.ExtraLatency), len(d.Faults), len(d.Seeds)} {
		points.Mul(points, big.NewInt(int64(n)))
	}
	if points.Cmp(big.NewInt(MaxPoints)) > 0 {
		return nil, fmt.Errorf("campaign: spec expands to %s points; the limit is %d", points, MaxPoints)
	}
	jobs := make([]Job, 0, points.Int64())
	for _, wl := range d.Workloads {
		for _, shape := range d.Shapes {
			for _, homing := range d.Homing {
				for _, numa := range d.NUMA {
					for _, threads := range d.Threads {
						for _, nodes := range d.ActiveNodes {
							for _, credits := range d.Credits {
								for _, extra := range d.ExtraLatency {
									for _, faults := range d.Faults {
										for _, seed := range d.Seeds {
											p := Params{
												Shape:        shape,
												Workload:     wl,
												NUMA:         numa,
												Homing:       homing,
												Threads:      threads,
												ActiveNodes:  nodes,
												Keys:         d.Keys,
												Seed:         seed,
												Faults:       faults,
												FaultSeed:    d.FaultSeed,
												Credits:      credits,
												ExtraLatency: extra,
												MaxCycles:    d.MaxCycles,
											}
											if err := p.Validate(); err != nil {
												return nil, fmt.Errorf("job %d (%s): %w", len(jobs), p.Label(), err)
											}
											jobs = append(jobs, Job{Index: len(jobs), Params: p})
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return jobs, nil
}
