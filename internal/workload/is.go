// Package workload implements the benchmarks of the paper's case studies:
// the NAS Parallel Benchmarks integer sort (Figs. 8-9), the irregular
// kernels used to evaluate MAPLE (Fig. 11: SPMV, SPMM, SDHP, BFS), and the
// Gaussian-noise benchmarks used to evaluate the GNG accelerator (Fig. 10).
//
// All workloads are execution-driven: they run as mini-kernel threads whose
// loads and stores traverse the prototype's full memory system, so NUMA
// placement, coherence traffic and interconnect congestion shape the
// results the same way they do on the real platform. Data really flows:
// the integer sort's output is verifiably sorted.
//
// The integer sort additionally supports checkpoint cuts: a CutPlan asks
// the run to stop at the first phase barrier reached at or past a cycle,
// with every thread's resume cursor recorded, so the campaign layer can
// snapshot the quiescent machine and later resume (ResumeIS) with a
// byte-identical continuation.
package workload

import (
	"fmt"

	"smappic/internal/ckpt"
	"smappic/internal/kernel"
	"smappic/internal/sim"
)

// ISParams configure the integer sort. The paper runs NPB class C
// (134M keys); runs here scale the key count down and report scaled times
// (see EXPERIMENTS.md).
type ISParams struct {
	Keys    int // total keys
	Threads int
	// Affinity restricts the threads to these harts (taskset); nil means
	// all harts.
	Affinity []int
	// Seed drives key generation; 0 selects the historical default, so
	// existing callers keep their exact key streams.
	Seed uint64
}

const (
	// isMaxKey is the key range (buckets) of every sort.
	isMaxKey = 1 << 10
	// isComputePerKey models the per-element ALU work of the real kernel
	// (ROADMAP item 10: an ISA run is to measure it).
	isComputePerKey sim.Time = 4
)

// DefaultISParams returns a scaled-down class-C-shaped problem.
func DefaultISParams(threads int) ISParams {
	return ISParams{Keys: 1 << 15, Threads: threads, Seed: 12345}
}

// Tag canonically names this workload instance. Snapshots record it, and
// restore refuses a snapshot whose tag differs from the restoring run's —
// the same guard ConfigHash provides for the hardware configuration. The
// tag names the two constants too, so a snapshot taken before either
// changes is refused after.
func (p ISParams) Tag() string {
	seed := p.Seed
	if seed == 0 {
		seed = 12345
	}
	return fmt.Sprintf("is:keys=%d;maxkey=%d;threads=%d;affinity=%v;cpk=%d;seed=%d",
		p.Keys, isMaxKey, p.Threads, p.Affinity, isComputePerKey, seed)
}

// ISResult reports one run.
type ISResult struct {
	Cycles  sim.Time
	Seconds float64 // at the prototype clock
	Sorted  bool
	// Checksum is an FNV-1a hash of the fully sorted output. Two runs of
	// the same problem must agree byte-for-byte regardless of timing — the
	// fault-tolerance ablation uses it to prove injected faults were
	// recovered, not papered over.
	Checksum uint64
}

// isPhases is how many barrier-terminated phases the sort has.
const isPhases = 5

// CutPlan requests a checkpoint cut: the run stops at the first phase
// barrier whose first exiter is at or past After, with every thread of
// that round recording its resume cursor as it leaves the barrier. The
// decision is made once per barrier round — by the round's first exiter,
// which is always the round's last arriver, at cycle T: it leaves without
// blocking, while every other thread is woken by the barrier's home node at
// T + 2·barrierHopLatency or later, past a root barrier of any sharding —
// so either the whole round stops or the whole round proceeds, and no thread
// reads the latch before it is set. The plan is a pure function of simulated
// time and adds no events, keeping a cut-armed run byte-identical to an
// unarmed one up to the cut.
type CutPlan struct {
	// After is the request threshold in absolute cycles; zero disables.
	After sim.Time

	decided int // highest boundary whose latch decision was made
	bound   int // latched boundary; 0 = none
	// resume holds one list per node, appended to only from that node's
	// engine, in the node's exit order — which no sharding can change.
	resume [][]ckpt.ResumePoint
}

// DidCut reports whether the run stopped at a cut barrier.
func (cp *CutPlan) DidCut() bool { return cp != nil && cp.bound != 0 }

// arrived runs as each thread returns from the barrier at the given phase
// boundary; true tells the thread to record its cursor and exit.
func (cp *CutPlan) arrived(c *kernel.Ctx, ti, boundary int) bool {
	if cp == nil || cp.After == 0 {
		return false
	}
	if boundary > cp.decided {
		cp.decided = boundary
		// The final boundary is never a cut point: the sort is already
		// complete there apart from the engine's drain tail, which a
		// restored run has no work left to regenerate — cutting would
		// shift the final time. (A checkpoint there saves nothing anyway.)
		if cp.bound == 0 && boundary < isPhases && c.P.Now() >= cp.After {
			cp.bound = boundary
		}
	}
	if cp.bound == 0 {
		return false
	}
	n := c.T.Node()
	cp.resume[n] = append(cp.resume[n], ckpt.ResumePoint{Thread: ti, ResumeAt: uint64(c.P.Now())})
	return true
}

// ISCut is a completed cut: the quiescent run's software-side snapshot
// sections. The caller captures the hardware sections (core.CaptureState)
// alongside and assembles the full snapshot.
type ISCut struct {
	k     *kernel.Kernel
	bar   *kernel.Barrier
	plan  *CutPlan
	start uint64
}

// KernelState captures the mini-OS section (page table, thread contexts,
// barrier watermark) of the quiescent cut.
func (ic *ISCut) KernelState() *ckpt.KernelState { return ic.k.CaptureState(ic.bar) }

// WorkloadState returns the workload cursor: completed phases and the resume
// points, node by node, each node's in its barrier-exit order.
func (ic *ISCut) WorkloadState() *ckpt.WorkloadState {
	ws := &ckpt.WorkloadState{Name: "is", Phase: ic.plan.bound, Start: ic.start}
	for _, points := range ic.plan.resume {
		ws.Resume = append(ws.Resume, points...)
	}
	return ws
}

// isRun bundles the state the phase bodies share; the same structure
// drives cold runs and resumed runs so both execute identical code.
type isRun struct {
	k          *kernel.Kernel
	p          ISParams
	perThread  int
	bucketsPer int
	seed       uint64
	cut        *CutPlan

	// Memory layout (virtual; pages placed by the kernel's policy). The
	// allocation script is pure address bumping, so a resumed run replays
	// it to land every buffer exactly where the checkpointed run did.
	keys, hist, recv, offs []uint64
	counts                 uint64
	bar                    *kernel.Barrier
}

// newISRun defaults the parameters and replays the allocation script.
func newISRun(k *kernel.Kernel, p ISParams, cut *CutPlan) *isRun {
	if p.Affinity == nil {
		p.Affinity = k.AllHarts()
	}
	t := p.Threads
	r := &isRun{k: k, p: p, cut: cut, perThread: p.Keys / t}
	if r.perThread == 0 {
		panic("workload: fewer keys than threads")
	}
	r.bucketsPer = isMaxKey / t
	if r.bucketsPer == 0 {
		panic("workload: fewer buckets than threads")
	}
	r.keys = make([]uint64, t)
	r.hist = make([]uint64, t)
	r.recv = make([]uint64, t)
	r.offs = make([]uint64, t)
	for i := 0; i < t; i++ {
		r.keys[i] = k.Alloc(uint64(r.perThread) * 4)
		r.hist[i] = k.Alloc(isMaxKey * 4)
		r.recv[i] = k.Alloc(uint64(2*r.perThread) * 4)
		r.offs[i] = k.Alloc(uint64(t) * 8)
	}
	r.counts = k.Alloc(uint64(t) * 8) // received-key counts
	r.bar = k.NewBarrier(t)
	r.seed = p.Seed
	if r.seed == 0 {
		r.seed = 12345
	}
	if cut != nil {
		cut.resume = make([][]ckpt.ResumePoint, k.Prototype().Cfg.TotalNodes())
	}
	k.Prototype().WorkloadTag = p.Tag()
	return r
}

// affinityOf returns thread ti's taskset. NUMA-aware scheduling keeps each
// thread on its starting hart, spread evenly over the mask (so 12 threads
// on 4 nodes land 3 per node); the topology-blind scheduler lets threads
// migrate within the mask (paper §4.1, §4.3).
func (r *isRun) affinityOf(ti int) []int {
	if r.k.NUMA() {
		return []int{r.p.Affinity[(ti*len(r.p.Affinity)/r.p.Threads)%len(r.p.Affinity)]}
	}
	return r.p.Affinity
}

// phases runs phase bodies from..5, each terminated by the barrier and a
// cut check; a latched cut makes the thread record its cursor and exit.
func (r *isRun) phases(c *kernel.Ctx, ti, from int) {
	for ph := from; ph <= isPhases; ph++ {
		r.phase(c, ti, ph)
		r.bar.Wait(c)
		if r.cut.arrived(c, ti, ph) {
			return
		}
	}
}

// phase runs one phase body (without the trailing barrier). Every phase is
// self-contained — no locals carry across the barrier — which is what
// makes the sort resumable at any boundary.
func (r *isRun) phase(c *kernel.Ctx, ti, ph int) {
	t := r.p.Threads
	myLo := uint64(ti * r.bucketsPer)
	myHi := myLo + uint64(r.bucketsPer)
	if ti == t-1 {
		myHi = isMaxKey
	}
	switch ph {
	case 1:
		// Key generation (first touch places the pages).
		rng := sim.NewRNG(r.seed + uint64(ti))
		for i := 0; i < r.perThread; i++ {
			key := uint64(rng.Intn(isMaxKey))
			c.Store(r.keys[ti]+uint64(i)*4, 4, key)
			c.Compute(isComputePerKey)
		}

	case 2:
		// Local histogram.
		for i := 0; i < r.perThread; i++ {
			key := c.Load(r.keys[ti]+uint64(i)*4, 4)
			hAddr := r.hist[ti] + key*4
			c.Store(hAddr, 4, c.Load(hAddr, 4)+1)
			c.Compute(isComputePerKey)
		}

	case 3:
		// Histogram exchange. Each thread reads every thread's counts for
		// its own bucket range and computes the per-source write offsets
		// into its receive buffer. The last thread absorbs the remainder
		// buckets when isMaxKey does not divide evenly.
		var cursor uint64
		for src := 0; src < t; src++ {
			var fromSrc uint64
			for b := myLo; b < myHi; b++ {
				fromSrc += c.Load(r.hist[src]+b*4, 4)
			}
			c.Store(r.offs[ti]+uint64(src)*8, 8, cursor)
			cursor += fromSrc
			c.Compute(8)
		}
		c.Store(r.counts+uint64(ti)*8, 8, cursor)

	case 4:
		// Redistribution. Each thread scatters its keys to the bucket
		// owners' receive buffers (the all-to-all that stresses the
		// inter-node interconnect).
		writePos := make([]uint64, t)
		for dst := 0; dst < t; dst++ {
			writePos[dst] = c.Load(r.offs[dst]+uint64(ti)*8, 8)
		}
		for i := 0; i < r.perThread; i++ {
			key := c.Load(r.keys[ti]+uint64(i)*4, 4)
			dst := int(key) / r.bucketsPer
			if dst >= t {
				dst = t - 1
			}
			c.Store(r.recv[dst]+writePos[dst]*4, 4, key)
			writePos[dst]++
			c.Compute(isComputePerKey)
		}

	case 5:
		// Local ranking (counting sort of received keys).
		n := c.Load(r.counts+uint64(ti)*8, 8)
		local := make([]uint64, myHi-myLo)
		for i := uint64(0); i < n; i++ {
			key := c.Load(r.recv[ti]+i*4, 4)
			local[key-myLo]++
			c.Compute(isComputePerKey)
		}
		var pos uint64
		for b := 0; b < int(myHi-myLo); b++ {
			for j := uint64(0); j < local[b]; j++ {
				c.Store(r.recv[ti]+pos*4, 4, myLo+uint64(b))
				pos++
				c.Compute(1)
			}
		}
	}
}

// verify checks and hashes the sorted output: concatenated receive buffers
// must be globally sorted. The checksum folds every output key into an
// FNV-1a hash, giving a single value that detects any corruption the
// sortedness check misses (e.g. a flipped bit that preserves order).
func (r *isRun) verify(end, start sim.Time) ISResult {
	pr := r.k.Prototype()
	res := ISResult{
		Cycles:  end - start,
		Seconds: pr.Seconds(end - start),
		Sorted:  true,
	}
	last := uint64(0)
	sum := uint64(14695981039346656037)
	for ti := 0; ti < r.p.Threads; ti++ {
		n := r.k.Read(r.counts+uint64(ti)*8, 8)
		for i := uint64(0); i < n; i++ {
			v := r.k.Read(r.recv[ti]+i*4, 4)
			if v < last {
				res.Sorted = false
			}
			last = v
			sum = (sum ^ v) * 1099511628211
		}
	}
	res.Checksum = sum
	return res
}

// RunIS executes the parallel bucket sort on a booted kernel and returns
// the measured runtime. The algorithm follows NPB IS: key generation,
// per-thread histogram, global histogram exchange (all-to-all), key
// redistribution into bucket owners, and local ranking.
func RunIS(k *kernel.Kernel, p ISParams) ISResult {
	res, _ := RunISCut(k, p, nil)
	return res
}

// RunISCut is RunIS with an optional checkpoint cut. A nil (or zero) plan
// runs to completion exactly like RunIS. When the plan latches, the run
// stops quiescent at that barrier and the returned ISCut carries the
// software snapshot sections; the ISResult is then zero (the sort is
// unfinished).
func RunISCut(k *kernel.Kernel, p ISParams, cut *CutPlan) (ISResult, *ISCut) {
	r := newISRun(k, p, cut)
	pr := k.Prototype()
	start := pr.Now()
	for ti := 0; ti < p.Threads; ti++ {
		ti := ti
		k.Spawn(fmt.Sprintf("is%d", ti), r.affinityOf(ti), func(c *kernel.Ctx) {
			r.phases(c, ti, 1)
		})
	}
	end := k.Join()
	if cut.DidCut() {
		return ISResult{}, &ISCut{k: k, bar: r.bar, plan: cut, start: uint64(start)}
	}
	return r.verify(end, start), nil
}

// ResumeIS continues a checkpointed sort on a freshly booted kernel whose
// prototype already has the hardware state sections applied. It replays
// the allocation script, overlays the kernel section, re-parks every
// thread and wakes each at its recorded cycle in recorded order, so the
// continuation's event stream matches the uninterrupted run's exactly. A
// further cut may be requested, enabling periodic checkpoint chains.
func ResumeIS(k *kernel.Kernel, p ISParams, ks *ckpt.KernelState, ws *ckpt.WorkloadState, cut *CutPlan) (ISResult, *ISCut, error) {
	if ws == nil || ks == nil {
		return ISResult{}, nil, &ckpt.CorruptError{Reason: "state snapshot without kernel/workload sections"}
	}
	if ws.Name != "is" {
		return ISResult{}, nil, &ckpt.MismatchError{Field: "workload name", Got: ws.Name, Want: "is"}
	}
	if ws.Phase < 1 || ws.Phase >= isPhases {
		return ISResult{}, nil, &ckpt.CorruptError{Reason: fmt.Sprintf("cut at phase %d of %d", ws.Phase, isPhases)}
	}
	r := newISRun(k, p, cut)
	if len(ws.Resume) != p.Threads || len(ks.Threads) != p.Threads {
		return ISResult{}, nil, &ckpt.MismatchError{Field: "thread count",
			Got:  fmt.Sprintf("%d resume points, %d thread contexts", len(ws.Resume), len(ks.Threads)),
			Want: fmt.Sprint(p.Threads)}
	}
	if err := k.RestoreState(ks, r.bar); err != nil {
		return ISResult{}, nil, err
	}
	res := k.NewResumer()
	for ti := 0; ti < p.Threads; ti++ {
		ti := ti
		if _, err := res.Spawn(fmt.Sprintf("is%d", ti), r.affinityOf(ti), ks.Threads[ti], r.bar, func(c *kernel.Ctx) {
			r.phases(c, ti, ws.Phase+1)
		}); err != nil {
			return ISResult{}, nil, err
		}
	}
	if err := res.Release(ws.Resume); err != nil {
		return ISResult{}, nil, err
	}
	end := k.Join()
	if cut.DidCut() {
		return ISResult{}, &ISCut{k: k, bar: r.bar, plan: cut, start: ws.Start}, nil
	}
	return r.verify(end, sim.Time(ws.Start)), nil, nil
}
