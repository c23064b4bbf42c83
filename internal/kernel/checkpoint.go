package kernel

import (
	"fmt"
	"sort"

	"smappic/internal/ckpt"
	"smappic/internal/sim"
)

// Checkpoint support. A kernel state capture is taken at a quiescent
// workload safepoint — all threads parked on one barrier, event queue
// drained — so the only live state is the page table, the barrier's
// released-round watermark and each thread's scheduler context. Restore
// re-boots the kernel, re-runs the workload's (pure) Alloc sequence,
// overlays this state and re-parks freshly spawned threads until a
// finisher wakes them at their recorded resume times in recorded order,
// reproducing the uninterrupted run's event interleaving exactly.

// oneShard panics unless the prototype runs on one engine: Release wakes
// the resumed threads in recorded order from one finisher on
// Prototype.Eng. The hardware half of the state cut has no such limit.
func (k *Kernel) oneShard(what string) {
	if k.pr.Eng == nil {
		panic(fmt.Sprintf("kernel: %s needs a one-shard build; rebuild without Parallel", what))
	}
}

// CaptureState snapshots the kernel at a quiescent safepoint. bar is the
// workload's cut barrier (the one every thread is parked on); captures
// support one barrier, which covers the phase-structured workloads that
// take checkpoints. One shard only (see oneShard).
func (k *Kernel) CaptureState(bar *Barrier) *ckpt.KernelState {
	k.oneShard("CaptureState")
	k.mu.Lock()
	defer k.mu.Unlock()
	st := &ckpt.KernelState{NextVA: k.nextVA}
	if bar != nil {
		st.BarrierReleased = bar.released
	}
	for vp, pa := range k.pageTable {
		st.Pages = append(st.Pages, ckpt.KernelPageState{VPage: vp, Phys: pa, Node: k.pageNode[vp]})
	}
	sort.Slice(st.Pages, func(i, j int) bool { return st.Pages[i].VPage < st.Pages[j].VPage })
	for _, t := range k.threads {
		ts := ckpt.ThreadState{
			ID:         t.ID,
			Hart:       t.hart,
			RNG:        t.rng.State(),
			NextMigr:   uint64(t.nextMigr),
			Migrations: t.Migrations,
		}
		if bar != nil {
			ts.BarEpoch = t.barEpoch[bar]
		}
		for vp, pa := range t.tlb {
			ts.TLB = append(ts.TLB, ckpt.KernelPageState{VPage: vp, Phys: pa, Node: -1})
		}
		sort.Slice(ts.TLB, func(i, j int) bool { return ts.TLB[i].VPage < ts.TLB[j].VPage })
		st.Threads = append(st.Threads, ts)
	}
	return st
}

// RestoreState overlays a captured page table and barrier watermark onto a
// freshly booted kernel. Call it after re-running the workload's Alloc
// sequence — allocation is a pure address bump, so the replayed sequence
// must land exactly where the checkpointed one did; a NextVA mismatch
// means the restore ran a different allocation script and is rejected.
func (k *Kernel) RestoreState(st *ckpt.KernelState, bar *Barrier) error {
	k.oneShard("RestoreState")
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.nextVA != st.NextVA {
		return &ckpt.MismatchError{Field: "kernel heap cursor",
			Got: fmt.Sprintf("%#x", st.NextVA), Want: fmt.Sprintf("%#x", k.nextVA)}
	}
	for _, pg := range st.Pages {
		if pg.Node < 0 || pg.Node >= k.pr.Cfg.TotalNodes() {
			return &ckpt.CorruptError{Reason: fmt.Sprintf("page %#x on node %d of %d", pg.VPage, pg.Node, k.pr.Cfg.TotalNodes())}
		}
		k.pageTable[pg.VPage] = pg.Phys
		k.pageNode[pg.VPage] = pg.Node
	}
	if bar != nil {
		bar.released = st.BarrierReleased
	}
	return nil
}

// Resumer re-spawns checkpointed threads. Each resumed thread applies its
// recorded context and parks immediately; Release then schedules a
// finisher that wakes every thread at its recorded cycle, in recorded
// barrier-exit order, via front-of-cycle scheduling — the same ordering
// class barrier wakeups use, so the resumed event stream matches the
// uninterrupted run's.
type Resumer struct {
	k     *Kernel
	wakes map[int]func()
	ids   map[int]bool
}

// NewResumer prepares thread resumption on a freshly booted one-shard kernel.
func (k *Kernel) NewResumer() *Resumer {
	k.oneShard("NewResumer")
	return &Resumer{k: k, wakes: make(map[int]func()), ids: make(map[int]bool)}
}

// Spawn starts fn as a resumed thread: the body applies ts, parks, and
// only continues (into fn) once Release wakes it at its recorded cycle.
// Threads must be spawned in the same order as the original run so IDs
// line up. bar, when non-nil, receives the thread's barrier epoch.
func (r *Resumer) Spawn(name string, affinity []int, ts ckpt.ThreadState, bar *Barrier, fn func(*Ctx)) (*Thread, error) {
	k := r.k
	if ts.Hart < 0 || ts.Hart >= k.pr.Cfg.TotalTiles() {
		return nil, &ckpt.CorruptError{Reason: fmt.Sprintf("thread %d on hart %d of %d", ts.ID, ts.Hart, k.pr.Cfg.TotalTiles())}
	}
	if ts.ID != len(k.threads) {
		return nil, &ckpt.MismatchError{Field: "thread spawn order",
			Got: fmt.Sprint(ts.ID), Want: fmt.Sprint(len(k.threads))}
	}
	r.ids[ts.ID] = true
	t := k.Spawn(name, affinity, func(c *Ctx) {
		t := c.T
		t.hart = ts.Hart
		t.port = k.pr.PortAt(k.locOf(ts.Hart))
		t.rng.SetState(ts.RNG)
		t.nextMigr = sim.Time(ts.NextMigr)
		t.Migrations = ts.Migrations
		if bar != nil {
			t.barEpoch[bar] = ts.BarEpoch
		}
		for _, pg := range ts.TLB {
			t.tlb[pg.VPage] = pg.Phys
		}
		wake := c.P.Suspend()
		r.wakes[t.ID] = wake
		c.P.Park()
		fn(c)
	})
	return t, nil
}

// Release schedules the wakeups: every resume point's thread resumes at
// its recorded cycle, in slice (barrier-exit) order. Call after all
// Spawns, before running the engine; the finisher runs once the spawned
// bodies have parked.
func (r *Resumer) Release(resume []ckpt.ResumePoint) error {
	for _, rp := range resume {
		if !r.ids[rp.Thread] {
			return &ckpt.CorruptError{Reason: fmt.Sprintf("resume point for unspawned thread %d", rp.Thread)}
		}
	}
	eng := r.k.pr.Eng
	points := append([]ckpt.ResumePoint(nil), resume...)
	eng.Schedule(0, func() {
		for _, rp := range points {
			wake := r.wakes[rp.Thread]
			eng.AtFront(sim.Time(rp.ResumeAt), wake)
		}
	})
	return nil
}
