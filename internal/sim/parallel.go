// Windowed execution: a Group runs a set of Engines — one per shard, from a
// single engine (the serial case) to one per simulated node — under a
// conservative bounded-lag synchronizer built from one kind of part, the
// window level.
//
// # One level
//
// A level couples a set of member engines at one radius: its lookahead la
// is the minimum latency of any envelope between two members (the PCIe
// crossing at the root, the intra-FPGA interconnect crossing inside a
// cluster). No member can affect another sooner than la cycles out, so the
// members may execute a chunk [c, c+la) without seeing each other. Every
// envelope emitted during that chunk is sent at some s >= c (the previous
// chunk drained everything earlier) and delivers at s + model latency >=
// c + la — never inside its own chunk. It parks in the (source engine,
// destination engine) outbox row, and the level merges its rows into the
// destination spools in the canonical CrossNet order (see crossnet.go)
// before any member runs past the boundary the envelope lands beyond. That
// is what makes every sharding produce the exact event order — and
// therefore byte-identical metrics — of the one-engine run.
//
// A level steps in windows. plan merges the rows, finds the earliest member
// event T and opens [T, T + width*la); the members run it as lockstep
// chunks of la cycles, meeting at the level's barrier between chunks, where
// the last arriver calls the window over at the first boundary with traffic
// parked in the rows (so no member ever crosses a chunk boundary ahead of an
// undelivered envelope) or with no member work left before the horizon. A
// window of width W is therefore event-for-event identical to W consecutive
// one-chunk windows whose barriers all had nothing to merge — the barriers
// that were skipped are exactly the ones that would have been no-ops. When
// the window closes, a quiet one doubles the next width up to the cap and
// one that parked traffic collapses it back to a single crossing: a fixed
// window would pay a full barrier every minimum crossing even while the
// members are not talking to each other, which is most of a bucket-sort
// run. The width sequence is host-side scheduling only: where the barriers
// fall never changes what executes, so nothing persisted depends on it.
//
// # Two radii
//
// The intra-FPGA interconnect couples co-located nodes far more tightly
// than PCIe couples FPGAs: its crossing is a few cycles, not sixty. One
// engine per *node* under a single level would force the whole system to
// the tiny lookahead. A Group therefore holds a root level over all engines
// and, for every cluster (FPGA) of more than one engine, an inner level
// over that cluster's engines (NewHierGroup). A root participant whose
// cluster has a level of its own tiles each root chunk with that level's
// windows. The only tier-specific clause is the clamp: an inner window's
// horizon never crosses the enclosing root chunk's end, so the root
// argument is untouched, and a final inner chunk [b, e) cut short by the
// clamp (e <= b + la) is safe for the same reason as a full one —
// everything it sends delivers at >= b + la >= e. The root is clamped the
// same way by the group's cut (the sampler's next row; nothing without one).
// Same-engine sends bypass the levels entirely — they go straight into the
// owning engine's delivery spool, which applies the identical canonical
// per-(endpoint, cycle) order in every mode.
//
// # Engines and workers
//
// Engines are the partition: which engine owns which node, where the levels'
// barriers fall and what they decide are functions of the model and of the
// partition alone. Who executes an engine is the host's business. A root
// window's participant engines are dealt (deal) to at most as many host
// workers as the Go scheduler has processors — the calling goroutine and a
// set of persistent worker goroutines — each taking a contiguous run of
// engines that it runs, chunk by chunk, in index order. A worker holds whole
// clusters, or a piece of one cluster and nothing else, so the party of a
// level's barrier is a worker, and a level whose participating members all
// sit with one worker has a one-party barrier: arriving at it is a plain
// call to the decision. With one processor the whole window, inner levels
// and all, runs on the caller's goroutine; with as many processors as
// engines every engine has a worker of its own.
//
// # One engine
//
// A one-engine group has no rows to merge and nobody to wait for: every
// send is same-engine and lands in the spool at once. Its window is the
// planned width run straight through — no worker, no chunk barrier — so
// the only thing the window machinery adds to a serial run is a boundary
// every few thousand cycles at which run predicates and observers get a
// quiescent look at the model. That is what lets one run loop serve every
// build.
package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultAdaptiveCap is the default ceiling on adaptive window widening, in
// units of a level's lookahead: windows grow geometrically 1, 2, 4, ... up
// to this multiplier while the level's traffic is absent. 64 puts the widest
// root window at a few thousand cycles with the PCIe-calibrated lookahead —
// long enough to amortize barriers (and, on more than one worker, the
// hand-off and join of a window) across a local compute phase, short
// enough that the group still reaches quiescent points (checkpoints, run
// predicates, dashboard snapshots) at a useful cadence. Inner windows
// use the same cap in units of the inner lookahead; the enclosing root chunk
// clamps them further.
const DefaultAdaptiveCap = 64

// Group executes a set of Engines — one per shard — in bounded-lag windows,
// optionally nested two levels deep (see NewHierGroup). Construct with
// NewGroup or NewHierGroup; it implements CrossNet for cross-shard sends.
//
// Threading contract: during a window every participant engine is run by
// exactly one worker — the caller's goroutine or one of the group's
// persistent worker goroutines, possibly a different one from window to
// window — and code running on an engine must only touch state owned by its
// shard; Send(src, ...) must be called from the worker currently running the
// engine that owns endpoint src. Between windows (and before Run / after it
// returns) the group is quiescent and the caller's goroutine may inspect any
// shard freely — the hand-off and the join of a window are the
// happens-before edges. A group that ran windows on more than one worker
// holds goroutines until it drains or is closed (Close).
type Group struct {
	engines  []*Engine
	clusters [][]int                 // engine indices per cluster (all singletons when flat)
	engCl    []int                   // engine index -> cluster index
	epEng    []int                   // endpoint id+1 -> engine index (slot 0: the host)
	seqs     []uint64                // per-source send sequence, indexed like epEng
	spools   []*spool                // per-engine canonical delivery spool
	minLat   func(src, dst int) Time // optional per-edge model floor
	// outbox is the batched envelope hand-off: one preallocated slice per
	// (src, dst) engine pair at index src*engines+dst. During a window row
	// src is owned by the worker running engine src (Send appends, nothing
	// else touches it); a row drains when a level that lists it plans its next
	// window — intra-cluster rows at the cluster's inner barriers, the rest
	// at the root barrier — merging into the destination engine's spool.
	// Slices are reused window to window, so a warmed-up group hands
	// envelopes off without allocating.
	outbox  [][]netEntry
	running bool // inside a window (workers active)

	// The host side of a window, all of it scratch reused window to window:
	// parts is the participant engines, busy clusters back to back, sizes
	// the engine count of each, shares their deal among the workers.
	parts   []int
	sizes   []int
	shares  [][]int
	budget  int          // workers a window may use; 0 until the first window after a drain reads it
	spin    bool         // read with it: waiters poll before they park; not on an oversubscribed host
	workers []*worker    // persistent, beyond the calling goroutine
	left    atomic.Int32 // workers still inside the current window
	joined  signal       // moved by the last of them
	exited  sync.WaitGroup

	root  *level   // all engines at the outer (cross-cluster) lookahead
	inner []*level // per cluster, at the inner lookahead; nil for singletons

	// Per-shard telemetry, maintained unconditionally (a few integer bumps
	// per window). envOut[i] is written only by the worker running engine i
	// during a window; envIn[i] is written by engine i's own sends, its
	// cluster's inner-barrier merges and the quiescent coordinator —
	// contexts the barriers already order. ranWindows is coordinator-owned.
	ranWindows []uint64 // root windows in which engine i actually executed work
	envIn      []uint64 // envelopes merged toward engine i
	envOut     []uint64 // envelopes sent by engine i
	// The critical path (see GroupSync.CriticalEvents): clEvents is each
	// cluster's executed-event total at the last root chunk boundary.
	clEvents []uint64
	critical uint64

	observers []func() // see OnBarrier
	// cut is a boundary no root window crosses, so that a barrier falls on
	// it: the Sampler keeps it on its next row. TimeMax clamps nothing.
	cut Time
}

// level is one radius of the synchronizer: the window machinery over a set
// of member engines whose mutual sends all honor the lookahead la. Between
// windows its fields belong to whoever holds the level quiescent — the
// coordinator for the root, the last arriver at bar for an inner level;
// during a window members only read start and end.
type level struct {
	la      Time       // minimum crossing between two members, in cycles
	members []int      // engine indices
	rows    []int      // outbox rows merged at this level's barriers, in (dst, src) order
	bar     winBarrier // chunk rendezvous of the window's participants

	// width is the next window's width in units of la; maxWidth caps the
	// geometric widening (1 = fixed windows).
	width, maxWidth int
	// The current window is [start, end); end is the planned horizon until
	// close trims it to what was reached. ran is the number of chunks the
	// window runs — set to the planned count by plan, cut by over when the
	// window ends early, and zero once close has booked it.
	start, end Time
	ran        int

	windows   uint64 // completed windows
	chunks    uint64 // completed chunks (windows in units of la)
	widenings uint64 // windows after which the width grew
	collapses uint64 // windows after which the width snapped back to 1
}

// NewGroup builds a flat synchronizer over the given shard engines, with
// one endpoint per engine. lookahead is the minimum cross-shard latency in
// cycles; it must be positive, and every Send must honor it. Windows start
// fixed at the lookahead; call SetAdaptive to let them widen when
// cross-shard traffic is sparse.
func NewGroup(lookahead Time, engines ...*Engine) *Group {
	clusters := make([][]*Engine, len(engines))
	for i, e := range engines {
		clusters[i] = []*Engine{e}
	}
	epEngine := make([]int, len(engines))
	for i := range epEngine {
		epEngine[i] = i
	}
	return NewHierGroup(lookahead, lookahead, clusters, epEngine)
}

// NewHierGroup builds a two-level synchronizer: engines grouped into
// clusters (one per FPGA), cross-cluster sends honoring the outer
// lookahead and cross-engine sends within one cluster honoring the inner
// lookahead, with endpoint ids mapped onto engines by epEngine. Both
// lookaheads must be positive and inner must not exceed outer. Clusters of
// one engine get no level of their own, so a hierarchical group whose
// clusters are all singletons behaves exactly like a flat one.
func NewHierGroup(outer, inner Time, clusters [][]*Engine, epEngine []int) *Group {
	if outer == 0 || inner == 0 {
		panic("sim: parallel group needs positive lookaheads")
	}
	if inner > outer {
		panic(fmt.Sprintf("sim: inner lookahead %d exceeds outer lookahead %d", inner, outer))
	}
	if len(clusters) == 0 {
		panic("sim: parallel group needs at least one cluster")
	}
	g := &Group{}
	for ci, members := range clusters {
		if len(members) == 0 {
			panic("sim: parallel group cluster with no engines")
		}
		var idx []int
		for _, e := range members {
			idx = append(idx, len(g.engines))
			g.engCl = append(g.engCl, ci)
			g.engines = append(g.engines, e)
		}
		g.clusters = append(g.clusters, idx)
	}
	if len(epEngine) == 0 {
		panic("sim: parallel group needs at least one endpoint")
	}
	for _, ei := range epEngine {
		if ei < 0 || ei >= len(g.engines) {
			panic(fmt.Sprintf("sim: endpoint mapped to engine %d outside group of %d engines", ei, len(g.engines)))
		}
	}
	g.epEng = append([]int{0}, epEngine...)
	n := len(g.engines)
	g.seqs = make([]uint64, len(g.epEng))
	g.outbox = make([][]netEntry, n*n)
	g.spools = make([]*spool, n)
	all := make([]int, n)
	for i, e := range g.engines {
		g.spools[i] = newSpool(e)
		all[i] = i
	}
	g.ranWindows = make([]uint64, n)
	g.envIn = make([]uint64, n)
	g.envOut = make([]uint64, n)
	g.clEvents = make([]uint64, len(g.clusters))
	g.joined.init()
	// The root lists every row: between windows the coordinator may send
	// on any of them, and at a root barrier the intra-cluster ones are
	// empty anyway (every cluster leaves a root chunk through a merge).
	g.root = g.newLevel(outer, all)
	g.cut = TimeMax
	g.inner = make([]*level, len(g.clusters))
	for ci, members := range g.clusters {
		if len(members) > 1 {
			g.inner[ci] = g.newLevel(inner, members)
		}
	}
	return g
}

// newLevel builds the level over the given member engines. The party of
// its barrier is set window by window, when the participants are dealt.
func (g *Group) newLevel(la Time, members []int) *level {
	l := &level{la: la, members: members, width: 1, maxWidth: 1}
	l.bar.phase.init()
	for _, de := range members {
		for _, se := range members {
			if se != de {
				l.rows = append(l.rows, se*len(g.engines)+de)
			}
		}
	}
	return l
}

// SetAdaptive sets the adaptive-lookahead cap: the maximum window width as a
// multiple of the lookahead, applied at every level (root windows in units
// of the outer lookahead, inner windows in units of the inner one — the
// enclosing root chunk clamps those further). 1 keeps fixed windows; larger
// caps let windows double geometrically while no envelope parks at the level
// and collapse back to 1 the window traffic returns. Must be called while
// the group is quiescent. The cap moves barriers, never results.
func (g *Group) SetAdaptive(cap int) {
	if cap < 1 {
		panic(fmt.Sprintf("sim: adaptive lookahead cap %d; need >= 1", cap))
	}
	for _, l := range append([]*level{g.root}, g.inner...) {
		if l != nil {
			l.maxWidth = cap
			l.width = min(l.width, cap)
		}
	}
}

// OnBarrier registers fn to run at every window barrier, after the observers
// registered before it: once a window's worker goroutines have joined and
// before the next window begins. The group is quiescent there: fn may
// inspect any shard engine or registry freely, but must not schedule events
// or send envelopes. It is the one place a running simulation is observed —
// the sampler and the dashboard publisher both hang here.
func (g *Group) OnBarrier(fn func()) { g.observers = append(g.observers, fn) }

func (g *Group) observe() {
	for _, fn := range g.observers {
		fn()
	}
}

// Pending reports whether any engine has an event queued or any row an
// envelope parked. The caller holds the group quiescent.
func (g *Group) Pending() bool {
	for _, e := range g.engines {
		if _, ok := e.NextEventTime(); ok {
			return true
		}
	}
	return g.parked(g.root)
}

// SetMinLatencyFunc arms an additional per-edge model-latency floor on top
// of the topology bounds the group always enforces (inner lookahead for
// intra-cluster cross-engine sends, outer lookahead for cross-cluster
// sends): a send undercutting class(src, dst) panics even when its
// endpoints share an engine, so a one-engine run polices the same contract
// a sharded one depends on.
func (g *Group) SetMinLatencyFunc(class func(src, dst int) Time) {
	g.minLat = class
}

// ShardSync is one shard engine's synchronizer state, captured at a barrier.
type ShardSync struct {
	Shard     int    `json:"shard"`
	Windows   uint64 `json:"windows"` // windows in which the shard ran work
	EnvIn     uint64 `json:"env_in"`  // envelopes merged into the shard
	EnvOut    uint64 `json:"env_out"` // envelopes the shard sent
	Events    uint64 `json:"events"`  // events the shard's engine executed
	LastEvent Time   `json:"last_event"`
	Pending   int    `json:"pending"` // live events still queued
	Lag       Time   `json:"lag"`     // cycles behind the window horizon
}

// LevelSync is one window level's books, captured at a barrier.
type LevelSync struct {
	Windows   uint64 `json:"windows"`   // completed windows
	Chunks    uint64 `json:"chunks"`    // completed chunks (windows in units of the lookahead)
	Lookahead Time   `json:"lookahead"` // minimum window width in cycles
	Width     int    `json:"width"`     // next window's width, in units of the lookahead
	WidthCap  int    `json:"width_cap"` // adaptive cap (1 = fixed windows)
	Widenings uint64 `json:"widenings"` // windows after which the width grew
	Collapses uint64 `json:"collapses"` // windows that snapped the width back
}

// InnerSync is one cluster's inner level (sub-FPGA sharding), captured at a
// root barrier.
type InnerSync struct {
	Cluster int `json:"cluster"`
	Engines int `json:"engines"`
	LevelSync
}

// GroupSync is the synchronizer's state, captured at a barrier: the root
// level's books, per-shard occupancy, and — under sub-FPGA sharding — each
// cluster's inner level.
type GroupSync struct {
	LevelSync
	Horizon Time `json:"horizon"` // last window's exclusive upper bound
	// CriticalEvents is the sum over root chunks of the largest number of
	// events any one cluster executed in the chunk: what a run with a worker
	// per cluster cannot go below, so Σ Shards[i].Events / CriticalEvents is
	// the speedup ceiling of this partition on any host. A function of the
	// model and the partition only — the worker count does not move it.
	CriticalEvents uint64      `json:"critical_events"`
	Shards         []ShardSync `json:"shards"`
	Inner          []InnerSync `json:"inner,omitempty"` // per multi-engine cluster
}

func (l *level) sync() LevelSync {
	return LevelSync{
		Windows:   l.windows,
		Chunks:    l.chunks,
		Lookahead: l.la,
		Width:     l.width,
		WidthCap:  l.maxWidth,
		Widenings: l.widenings,
		Collapses: l.collapses,
	}
}

// SyncSnapshot captures the synchronizer's state: window/chunk totals, the
// current horizon, the adaptive window width, and per-shard occupancy. It
// must only be called while the group is quiescent (between windows — e.g.
// from an OnBarrier observer — or before/after Run).
func (g *Group) SyncSnapshot() GroupSync {
	horizon := g.root.end
	sn := GroupSync{
		LevelSync:      g.root.sync(),
		Horizon:        horizon,
		CriticalEvents: g.critical,
		Shards:         make([]ShardSync, len(g.engines)),
	}
	for i, e := range g.engines {
		le := e.LastEventTime()
		var lag Time
		if horizon > 0 && horizon-1 > le {
			lag = horizon - 1 - le
		}
		sn.Shards[i] = ShardSync{
			Shard:     i,
			Windows:   g.ranWindows[i],
			EnvIn:     g.envIn[i],
			EnvOut:    g.envOut[i],
			Events:    e.Executed(),
			LastEvent: le,
			Pending:   e.Pending(),
			Lag:       lag,
		}
	}
	for ci, in := range g.inner {
		if in != nil {
			sn.Inner = append(sn.Inner, InnerSync{Cluster: ci, Engines: len(in.members), LevelSync: in.sync()})
		}
	}
	return sn
}

// Windows returns the number of completed synchronization windows.
func (g *Group) Windows() uint64 { return g.root.windows }

// Chunks returns the number of completed window chunks — the window count
// normalized to units of the lookahead, comparable across adaptive caps.
func (g *Group) Chunks() uint64 { return g.root.chunks }

// Shards returns the number of shard engines.
func (g *Group) Shards() int { return len(g.engines) }

// Engine returns shard i's engine.
func (g *Group) Engine(i int) *Engine { return g.engines[i] }

// Send implements CrossNet. Same-engine sends go straight into the owning
// engine's delivery spool; cross-engine sends park in the (src, dst)
// engine outbox row for the next inner (same cluster) or root
// (cross-cluster) barrier merge. Must be called from the worker currently
// running the engine that owns endpoint src (or from the coordinator while
// the group is quiescent). The host endpoint (-1, pcie.HostID) is accepted
// on either side and rides engine 0, which owns the fabric's host port. A
// delivery closer than the governing lookahead to the sender's clock would
// mean the model's cross-shard latency undercuts the synchronizer — a
// wiring bug — and panics. (Deliveries inside the current window's horizon
// are fine under adaptive widening: the chunk discipline ends the window
// before any shard crosses the boundary they land beyond.)
func (g *Group) Send(src, dst int, deliverAt Time, fn func()) {
	if src < hostEndpoint || src+1 >= len(g.epEng) || dst < hostEndpoint || dst+1 >= len(g.epEng) {
		panic(fmt.Sprintf("sim: cross-shard send %d->%d outside group of %d endpoints", src, dst, len(g.epEng)-1))
	}
	se, de := g.epEng[src+1], g.epEng[dst+1]
	sent := g.engines[se].Now()
	if g.running {
		var min Time
		if se != de {
			min = g.root.la
			if ci := g.engCl[se]; ci == g.engCl[de] {
				min = g.inner[ci].la
			}
		}
		if g.minLat != nil {
			if m := g.minLat(src, dst); m > min {
				min = m
			}
		}
		if min > 0 && deliverAt < sent+min {
			panic(fmt.Sprintf("sim: cross-shard send %d->%d at %d delivers at %d; model latency undercuts lookahead %d",
				src, dst, sent, deliverAt, min))
		}
	}
	g.seqs[src+1]++
	g.envOut[se]++
	e := netEntry{at: deliverAt, sent: sent, src: src, dst: dst, seq: g.seqs[src+1], fn: fn}
	if se == de {
		g.envIn[de]++
		g.spools[de].insert(e)
		return
	}
	box := &g.outbox[se*len(g.engines)+de]
	*box = append(*box, e)
}

// merge moves every envelope parked in the level's rows into its
// destination engine's spool. The spool applies each (endpoint, cycle)'s
// deliveries in canonical order at the front of the cycle, exactly like the
// SerialNet oracle; deliveries to different endpoints carry no cross-order
// (their state is disjoint). Consumed entries are zeroed so delivered
// closures don't linger, and all buffers are reused. It runs only while the
// level is quiescent, which orders the spool insertions against member
// execution on both sides.
func (g *Group) merge(l *level) {
	for _, r := range l.rows {
		box := &g.outbox[r]
		de := r % len(g.engines)
		for j := range *box {
			g.envIn[de]++
			g.spools[de].insert((*box)[j])
			(*box)[j] = netEntry{}
		}
		*box = (*box)[:0]
	}
}

// parked reports whether any of the level's rows holds an undelivered
// envelope.
func (g *Group) parked(l *level) bool {
	for _, r := range l.rows {
		if len(g.outbox[r]) > 0 {
			return true
		}
	}
	return false
}

// spinFor is how long a waiter polls the word it waits on, yielding its
// processor to any other runnable goroutine between bursts, before it parks
// on the mutex. It is sized from what a worker waits for on the host the
// committed numbers come from — the slower worker of a root chunk, or that
// plus the coordinator's turn between two windows: in a two-worker per-node
// NPB-IS run half the waits are over within 1.5 µs, nine in ten within 25 µs
// and 99 in 100 within 65 µs (EXPERIMENTS.md, "the spin bound") — and
// a waiter that parks short of that costs more than one that never spins. A
// constant, not a knob: past it the waiter parks exactly as before, so a
// bound that is wrong for a host costs time, never a result. Nobody spins
// when the scheduler has more processors than the host has cores
// (Group.spin): the word may be waiting on a worker that has no core to run
// on, and yielding a processor does not yield a core.
const spinFor = 100 * time.Microsecond

// signal is a word that moves and the waiters watching for it to move: they
// spin a bounded while, then park.
type signal struct {
	v    atomic.Uint64
	mu   sync.Mutex
	cond sync.Cond
}

func (s *signal) init() { s.cond.L = &s.mu }

// wait returns once the word has moved off seen, polling it for spinFor
// before parking if spin is set.
func (s *signal) wait(seen uint64, spin bool) {
	if spin {
		for start := time.Now(); time.Since(start) < spinFor; runtime.Gosched() {
			for i := 0; i < 256; i++ {
				if s.v.Load() != seen {
					return
				}
			}
		}
	}
	s.mu.Lock()
	for s.v.Load() == seen {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// move steps the word and wakes whoever parked; everything the caller did
// before happens-before a waiter's return.
func (s *signal) move() {
	s.v.Add(1)
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// winBarrier is the in-window chunk barrier: a reusable phase rendezvous
// for the workers that share a level's window. The last arriver of each
// phase evaluates the level's decision (every party's work for the chunk
// happens-before it, through the arrival count) and publishes the verdict
// by moving the phase, which the others wait on.
type winBarrier struct {
	parties int32 // set while the level is quiescent
	arrived atomic.Int32
	stop    bool
	phase   signal
}

// arrive blocks until every party has arrived, then reports whether the
// caller goes on. over runs exactly once per phase, in the last arriver.
// With one party that is a plain call: no count, no wait.
func (b *winBarrier) arrive(spin bool, over func() bool) (cont bool) {
	if b.parties == 1 {
		return !over()
	}
	phase := b.phase.v.Load()
	if b.arrived.Add(1) == b.parties {
		b.arrived.Store(0)
		b.stop = over()
		b.phase.move()
	} else {
		b.phase.wait(phase, spin)
	}
	return !b.stop
}

// plan opens the level's next window below clamp, the exclusive end of the
// enclosing parent chunk (the cut at the root). The caller holds the level
// quiescent. It first books the previous window if its members left it
// without a rendezvous (see runWindow), then merges the rows — the flush
// events this schedules count as member work — and looks for the earliest
// member event. It returns false, planning nothing, when the members have
// nothing left to do before clamp.
func (g *Group) plan(l *level, clamp Time) bool {
	if l.ran > 0 {
		g.close(l)
	}
	g.merge(l)
	var t Time
	found := false
	for _, ei := range l.members {
		if next, ok := g.engines[ei].NextEventTime(); ok && (!found || next < t) {
			t, found = next, true
		}
	}
	if !found || t >= clamp {
		return false
	}
	l.start = t
	l.end = min(t+Time(l.width)*l.la, clamp)
	l.ran = int((l.end - t + l.la - 1) / l.la)
	return true
}

// over is the chunk-boundary decision, made by the last barrier arriver
// after chunk k (1-based, not the final planned one) of the level's window.
// A window ends at its planned horizon, or before it at the first boundary
// where a row parked an envelope (its delivery lands at or beyond the next
// boundary, so stopping here is exactly a fixed-window barrier), or where
// no member has work left before the horizon (the remaining chunks would
// all be empty). Reading other members' engines and outbox rows is safe
// here: every worker of the window is parked in the barrier and its arrival
// orders the reads. (Non-participants of a root window have no work below
// the horizon by selection, and nothing can reach them before the next
// merge.)
func (g *Group) over(l *level, k int) bool {
	if l == g.root {
		g.bookCritical()
	}
	if !g.parked(l) {
		for _, ei := range l.members {
			if t, ok := g.engines[ei].NextEventTime(); ok && t < l.end {
				return false
			}
		}
	}
	l.ran = k
	return true
}

// bookCritical closes a root chunk's critical-path account: the largest
// number of events one cluster executed since the last call. The caller
// holds the whole group quiescent — the last arriver of a root chunk, the
// coordinator after the join.
func (g *Group) bookCritical() {
	var most uint64
	for ci, members := range g.clusters {
		var n uint64
		for _, ei := range members {
			n += g.engines[ei].Executed()
		}
		most = max(most, n-g.clEvents[ci])
		g.clEvents[ci] = n
	}
	g.critical += most
}

// close books the level's finished window: totals, the horizon it actually
// reached, and the width adaptation — traffic parked at this barrier
// collapses the width back to the minimum crossing; a quiet window doubles
// it up to the cap. The caller holds the level quiescent, with nothing
// merged since the members stopped.
func (g *Group) close(l *level) {
	if l == g.root {
		g.bookCritical()
	}
	l.end = min(l.end, l.start+Time(l.ran)*l.la)
	l.windows++
	l.chunks += uint64(l.ran)
	l.ran = 0
	if g.parked(l) {
		if l.width > 1 {
			l.collapses++
		}
		l.width = 1
	} else if l.width < l.maxWidth {
		l.width = min(2*l.width, l.maxWidth)
		l.widenings++
	}
}

// runWindow is one worker's share of the level's current window: own, a
// contiguous run of the level's participant engines, taken chunk after chunk
// of la cycles in index order, meeting the level's other workers at its
// barrier, until the last arriver calls the window over. At the root, a run
// of own that belongs to a cluster with a level of its own tiles each root
// chunk with that level's windows — plan, run, plan again, until the cluster
// is idle up to the chunk's end — and so leaves every chunk through a merge
// of the cluster's rows; the worker shares that level's barrier with
// whoever holds the rest of the cluster, or has it to itself.
//
// A worker that has run the final planned chunk (possibly cut short by the
// clamp) leaves without a rendezvous: the verdict is "over" whatever
// happened in it. Whoever next holds the level quiescent books the window —
// the coordinator after the join (root) or the last arriver of the next
// plan (inner) — and sees exactly what the skipped rendezvous would have
// seen, every member having stopped and nothing having been merged since.
func (g *Group) runWindow(l *level, own []int) {
	for k := 1; ; k++ {
		end := l.start + Time(k)*l.la
		final := end >= l.end
		if final {
			end = l.end
		}
		for rest := own; len(rest) > 0; {
			var in *level
			n := len(rest)
			if l == g.root {
				ci := g.engCl[rest[0]]
				in, n = g.inner[ci], 1
				for n < len(rest) && g.engCl[rest[n]] == ci {
					n++
				}
			}
			if in == nil {
				for _, ei := range rest[:n] {
					g.engines[ei].runTo(end - 1)
				}
			} else {
				for in.bar.arrive(g.spin, func() bool { return !g.plan(in, end) }) {
					g.runWindow(in, rest[:n])
				}
			}
			rest = rest[n:]
		}
		if final || !l.bar.arrive(g.spin, func() bool { return g.over(l, k) }) {
			return
		}
	}
}

// deal splits a window's participant engines — parts, the busy clusters'
// members back to back, sizes[i] of them in the i-th — into contiguous runs
// for at most w workers, appended to shares: whole clusters per worker while
// there are at least as many busy clusters as workers, otherwise each
// cluster's engines cut into even runs among its share of the workers (no
// more of them than it has engines). Either way no run holds part of one
// cluster and anything of another, and w == len(parts) gives every engine a
// run of its own.
func deal(shares [][]int, parts, sizes []int, w int) [][]int {
	c := len(sizes)
	lo := 0
	if w <= c {
		ci := 0
		for i := 1; i <= w; i++ {
			hi := lo
			for ; ci < i*c/w; ci++ {
				hi += sizes[ci]
			}
			shares = append(shares, parts[lo:hi])
			lo = hi
		}
		return shares
	}
	for ci, n := range sizes {
		k := w / c
		if ci < w%c {
			k++
		}
		k = min(k, n)
		for j := 0; j < k; j++ {
			shares = append(shares, parts[lo+j*n/k:lo+(j+1)*n/k])
		}
		lo += n
	}
	return shares
}

// worker is one persistent host worker beyond the calling goroutine: it
// waits for a share of a window, runs it, and reports in.
type worker struct {
	own  []int  // the share handed over; nil tells the worker to exit
	hand signal // moved once per hand-over
}

func (g *Group) work(w *worker) {
	defer g.exited.Done()
	for seen := uint64(0); ; seen++ {
		w.hand.wait(seen, g.spin)
		if w.own == nil {
			return
		}
		g.runWindow(g.root, w.own)
		if g.left.Add(-1) == 0 {
			g.joined.move()
		}
	}
}

// Close releases the group's worker goroutines and waits for them to exit.
// A group that drained has none; one abandoned mid-run does. The group stays
// usable — the next window that needs workers starts them again — and
// closing twice is harmless. Must be called while the group is quiescent.
func (g *Group) Close() {
	for _, w := range g.workers {
		w.own = nil
		w.hand.move()
	}
	g.exited.Wait()
	g.workers, g.budget = g.workers[:0], 0
}

// StepWindow runs one synchronization window: plans the root level (merging
// pending envelopes, finding the global next event time T) and lets every
// cluster with work before the horizon execute it — chunk by chunk under the
// adaptive width, each multi-engine cluster running its own inner windows
// inside each chunk — on as many workers as the host has processors for.
// Returns false when no work remains anywhere, after aligning every engine
// clock to the global last-event time (mirroring a single engine, whose
// clock rests on the last executed event — host code that schedules the next
// phase then sees one "now" whatever the shard count) and releasing the
// workers.
func (g *Group) StepWindow() bool {
	root := g.root
	for !g.plan(root, g.cut) {
		if !g.Pending() {
			now := g.Now()
			for _, e := range g.engines {
				e.alignTo(now)
			}
			g.Close()
			return false
		}
		// Idle up to the cut with work beyond it: the horizon steps onto the
		// cut without booking a window, and the sampler, observing that, moves
		// its cut on — boundary to boundary across a long gap.
		root.start, root.end = g.cut, g.cut
		g.observe()
	}
	g.running = true
	if len(g.engines) == 1 {
		// A one-engine group — the serial case — has nobody to meet: every
		// send is same-engine and already sits in the spool, so each chunk
		// boundary would decide "continue" over no rows. Run the whole
		// planned width straight through.
		g.ranWindows[0]++
		g.engines[0].runTo(root.end - 1)
	} else {
		g.runShares()
	}
	g.running = false
	g.close(root)
	g.observe()
	return true
}

// runShares deals the planned root window's participants to the workers,
// runs the caller's share and joins the rest.
func (g *Group) runShares() {
	root := g.root
	// A cluster takes part, all members together, when any member has work
	// before the horizon: its inner level needs every one of them.
	g.parts, g.sizes = g.parts[:0], g.sizes[:0]
	for ci, members := range g.clusters {
		busy := false
		for _, ei := range members {
			if next, ok := g.engines[ei].NextEventTime(); ok && next < root.end {
				g.ranWindows[ei]++
				busy = true
			}
		}
		if busy {
			g.parts = append(g.parts, members...)
			g.sizes = append(g.sizes, len(members))
			if in := g.inner[ci]; in != nil {
				in.bar.parties = 0 // counted below
			}
		}
	}
	if g.budget == 0 {
		// Once per run of windows: GOMAXPROCS takes the scheduler's lock.
		g.budget = runtime.GOMAXPROCS(0)
		g.spin = g.budget <= runtime.NumCPU()
	}
	g.shares = deal(g.shares[:0], g.parts, g.sizes, min(g.budget, len(g.parts)))
	// The party of each barrier is the workers that share its level: every
	// share at the root, and at a busy cluster's level the shares that hold
	// a piece of it — one, when a worker took the cluster whole.
	root.bar.parties = int32(len(g.shares))
	for _, own := range g.shares {
		for i, ei := range own {
			if ci := g.engCl[ei]; (i == 0 || ci != g.engCl[own[i-1]]) && g.inner[ci] != nil {
				g.inner[ci].bar.parties++
			}
		}
	}
	others := g.shares[1:]
	for len(g.workers) < len(others) {
		w := &worker{}
		w.hand.init()
		g.workers = append(g.workers, w)
		g.exited.Add(1)
		go g.work(w)
	}
	joined := g.joined.v.Load()
	g.left.Store(int32(len(others)))
	for i, own := range others {
		g.workers[i].own = own
		g.workers[i].hand.move()
	}
	g.runWindow(root, g.shares[0])
	if len(others) > 0 {
		g.joined.wait(joined, g.spin)
	}
}

// Run executes windows until every shard drains and returns the global
// last-event time.
func (g *Group) Run() Time {
	for g.StepWindow() {
	}
	return g.Now()
}

// Now returns the globally latest executed-event time. While the group is
// quiescent this matches what a single engine's Now would report after
// executing the same events.
func (g *Group) Now() Time {
	var t Time
	for _, e := range g.engines {
		if le := e.LastEventTime(); le > t {
			t = le
		}
	}
	return t
}
