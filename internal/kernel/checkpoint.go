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
// overlays this state and re-parks freshly spawned threads until their
// engines' finishers wake them at their recorded resume times in recorded
// order, reproducing the uninterrupted run's event interleaving exactly.

// CaptureState snapshots the kernel at a quiescent safepoint. bar is the
// workload's cut barrier (the one every thread is parked on); captures
// support one barrier, which covers the phase-structured workloads that
// take checkpoints.
func (k *Kernel) CaptureState(bar *Barrier) *ckpt.KernelState {
	k.mu.Lock()
	defer k.mu.Unlock()
	st := &ckpt.KernelState{NextVA: k.nextVA}
	if bar != nil {
		st.BarrierReleased = bar.released
	}
	for vp, pa := range k.pageTable {
		st.Pages = append(st.Pages, ckpt.KernelPageState{VPage: vp, Phys: pa})
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
			ts.TLB = append(ts.TLB, ckpt.KernelPageState{VPage: vp, Phys: pa})
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
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.nextVA != st.NextVA {
		return &ckpt.MismatchError{Field: "kernel heap cursor",
			Got: fmt.Sprintf("%#x", st.NextVA), Want: fmt.Sprintf("%#x", k.nextVA)}
	}
	if err := k.checkFrames("page table", st.Pages); err != nil {
		return err
	}
	for _, pg := range st.Pages {
		k.pageTable[pg.VPage] = pg.Phys
	}
	if bar != nil {
		bar.released = st.BarrierReleased
	}
	return nil
}

// checkFrames refuses any row whose Phys is not the direct-mapped frame of
// its VPage (physFor) on a node of this platform.
func (k *Kernel) checkFrames(what string, pages []ckpt.KernelPageState) error {
	first := heapBase / PageBytes
	frames := (k.pr.Map.MainMemorySize() - heapPhysOffset) / PageBytes
	for _, pg := range pages {
		if pg.VPage >= first && pg.VPage-first < frames {
			if n := frameNode(pg.Phys); n < k.pr.Cfg.TotalNodes() && pg.Phys == k.physFor(pg.VPage, n) {
				continue
			}
		}
		return &ckpt.CorruptError{Reason: fmt.Sprintf("%s maps page %#x to %#x, not its frame on any of %d nodes",
			what, pg.VPage, pg.Phys, k.pr.Cfg.TotalNodes())}
	}
	return nil
}

// Resumer re-spawns checkpointed threads. Each resumed thread applies its
// recorded context on its own hart's engine and parks immediately; Release
// then schedules one finisher per engine that wakes that engine's threads at
// their recorded cycles, in recorded barrier-exit order, via front-of-cycle
// scheduling — the same ordering class barrier wakeups use, so the resumed
// event stream matches the uninterrupted run's.
type Resumer struct {
	k     *Kernel
	engs  []*sim.Engine // by thread id: a resumed thread's engine, nil for any other thread
	wakes []func()      // by thread id: a resumed thread's wake, set on its engine as it parks
}

// NewResumer prepares thread resumption on a freshly booted kernel.
func (k *Kernel) NewResumer() *Resumer { return &Resumer{k: k} }

// Spawn starts fn as a resumed thread on ts's hart: the body applies ts,
// parks, and only continues (into fn) once Release wakes it at its recorded
// cycle. Threads must be spawned in the same order as the original run so
// IDs line up. bar, when non-nil, receives the thread's barrier epoch.
func (r *Resumer) Spawn(name string, affinity []int, ts ckpt.ThreadState, bar *Barrier, fn func(*Ctx)) (*Thread, error) {
	k := r.k
	if ts.Hart < 0 || ts.Hart >= k.pr.Cfg.TotalTiles() {
		return nil, &ckpt.CorruptError{Reason: fmt.Sprintf("thread %d on hart %d of %d", ts.ID, ts.Hart, k.pr.Cfg.TotalTiles())}
	}
	if ts.ID != len(k.threads) {
		return nil, &ckpt.MismatchError{Field: "thread spawn order",
			Got: fmt.Sprint(ts.ID), Want: fmt.Sprint(len(k.threads))}
	}
	if err := k.checkFrames(fmt.Sprintf("thread %d TLB", ts.ID), ts.TLB); err != nil {
		return nil, err
	}
	t := k.spawnOn(name, affinity, ts.Hart, func(c *Ctx) {
		t := c.T
		t.rng.SetState(ts.RNG)
		t.nextMigr = sim.Time(ts.NextMigr)
		t.Migrations = ts.Migrations
		if bar != nil {
			t.barEpoch[bar] = ts.BarEpoch
		}
		for _, pg := range ts.TLB {
			t.tlb[pg.VPage] = pg.Phys
		}
		r.wakes[t.ID] = c.P.Suspend()
		c.P.Park()
		fn(c)
	})
	for len(r.engs) <= t.ID {
		r.engs, r.wakes = append(r.engs, nil), append(r.wakes, nil)
	}
	r.engs[t.ID] = k.pr.EngineForNode(t.Node())
	return t, nil
}

// Release schedules the wakeups: every resume point's thread resumes at its
// recorded cycle, and the threads of one engine in slice (barrier-exit)
// order. Call after all Spawns, before running; each engine's finisher runs
// once that engine's spawned bodies have parked.
func (r *Resumer) Release(resume []ckpt.ResumePoint) error {
	var engs []*sim.Engine
	byEng := make(map[*sim.Engine][]ckpt.ResumePoint)
	for _, rp := range resume {
		if rp.Thread < 0 || rp.Thread >= len(r.engs) || r.engs[rp.Thread] == nil {
			return &ckpt.CorruptError{Reason: fmt.Sprintf("resume point for unspawned thread %d", rp.Thread)}
		}
		eng := r.engs[rp.Thread]
		if byEng[eng] == nil {
			engs = append(engs, eng)
		}
		byEng[eng] = append(byEng[eng], rp)
	}
	for _, eng := range engs {
		points := byEng[eng]
		eng.Schedule(0, func() {
			for _, rp := range points {
				eng.AtFront(sim.Time(rp.ResumeAt), r.wakes[rp.Thread])
			}
		})
	}
	return nil
}
