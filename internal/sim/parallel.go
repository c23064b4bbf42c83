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
// same way by the group's cut (the nearer of the sampler's next row and a
// cycle held with HoldCut; nothing without either).
// Same-engine sends bypass the levels entirely — they go straight into the
// owning engine's delivery spool, which applies the identical canonical
// per-(endpoint, cycle) order in every mode.
//
// # One engine
//
// A one-engine group has no rows to merge and nobody to wait for: every
// send is same-engine and lands in the spool at once. Its window is the
// planned width run straight through — no goroutine, no chunk barrier — so
// the only thing the window machinery adds to a serial run is a boundary
// every few thousand cycles at which run predicates, observers and the
// watchdog get a quiescent look at the model. That is what lets one run
// loop and one watchdog serve every build.
package sim

import (
	"fmt"
	"sync"
)

// DefaultAdaptiveCap is the default ceiling on adaptive window widening, in
// units of a level's lookahead: windows grow geometrically 1, 2, 4, ... up
// to this multiplier while the level's traffic is absent. 64 puts the widest
// root window at a few thousand cycles with the PCIe-calibrated lookahead —
// long enough to amortize barriers across a local compute phase, short
// enough that the group still reaches quiescent points (checkpoints,
// watchdog checks, dashboard snapshots) at a useful cadence. Inner windows
// use the same cap in units of the inner lookahead; the enclosing root chunk
// clamps them further.
const DefaultAdaptiveCap = 64

// Group executes a set of Engines — one per shard — in bounded-lag windows,
// optionally nested two levels deep (see NewHierGroup). Construct with
// NewGroup or NewHierGroup; it implements CrossNet for cross-shard sends.
//
// Threading contract: during a window each engine runs on its own worker
// goroutine and must only touch state owned by its shard; Send(src, ...)
// must be called from the goroutine of the engine owning endpoint src.
// Between windows (and before Run / after it returns) the group is
// quiescent and the caller's goroutine may inspect any shard freely — the
// window barrier provides the happens-before edge.
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
	// src is owned by engine src's goroutine (Send appends, nothing else
	// touches it); a row drains when a level that lists it plans its next
	// window — intra-cluster rows at the cluster's inner barriers, the rest
	// at the root barrier — merging into the destination engine's spool.
	// Slices are reused window to window, so a warmed-up group hands
	// envelopes off without allocating.
	outbox  [][]netEntry
	running bool  // inside a window (workers active)
	parts   []int // the root window's participant engines; scratch, reused

	root  *level   // all engines at the outer (cross-cluster) lookahead
	inner []*level // per cluster, at the inner lookahead; nil for singletons

	// Per-shard telemetry, maintained unconditionally (a few integer bumps
	// per window). envOut[i] is written only by engine i's goroutine during
	// a window; envIn[i] is written by engine i's own sends, its cluster's
	// inner-barrier merges and the quiescent coordinator — contexts the
	// barriers already order. ranWindows is coordinator-owned.
	ranWindows []uint64 // root windows in which engine i actually executed work
	envIn      []uint64 // envelopes merged toward engine i
	envOut     []uint64 // envelopes sent by engine i

	observers []func() // see OnBarrier
	// cut and hold are boundaries no root window crosses, so that a barrier
	// falls on each: the Sampler keeps cut on its next row, HoldCut puts hold
	// on a caller's cycle. The root plan clamps to the nearer; TimeMax clamps
	// nothing.
	cut, hold Time
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
	// The root lists every row: between windows the coordinator may send
	// on any of them, and at a root barrier the intra-cluster ones are
	// empty anyway (every cluster leaves a root chunk through a merge).
	g.root = g.newLevel(outer, all)
	g.cut, g.hold = TimeMax, TimeMax
	g.inner = make([]*level, len(g.clusters))
	for ci, members := range g.clusters {
		if len(members) > 1 {
			g.inner[ci] = g.newLevel(inner, members)
		}
	}
	return g
}

// newLevel builds the level over the given member engines. Its barrier
// starts out sized for all of them, which is every inner window's party;
// the root resizes its own per window.
func (g *Group) newLevel(la Time, members []int) *level {
	l := &level{la: la, members: members, width: 1, maxWidth: 1}
	l.bar.reset(len(members))
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
// or send envelopes. It is the one place a run is observed — the watchdog,
// the sampler and the dashboard publisher all hang here.
func (g *Group) OnBarrier(fn func()) { g.observers = append(g.observers, fn) }

func (g *Group) observe() {
	for _, fn := range g.observers {
		fn()
	}
}

// pending reports whether any engine has an event queued or any row an
// envelope parked. The caller holds the group quiescent.
func (g *Group) pending() bool {
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
	Horizon Time        `json:"horizon"` // last window's exclusive upper bound
	Shards  []ShardSync `json:"shards"`
	Inner   []InnerSync `json:"inner,omitempty"` // per multi-engine cluster
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
		LevelSync: g.root.sync(),
		Horizon:   horizon,
		Shards:    make([]ShardSync, len(g.engines)),
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

// Horizon returns the exclusive upper bound of the last barrier: while the
// group is quiescent every event below it has executed and none at or past
// it has — the same state under every sharding and widening cap, which is
// what makes a cycle, not a window count, the name of a point in a run.
func (g *Group) Horizon() Time { return g.root.end }

// HoldCut holds a cut at cycle t beside the sampler's: no root window crosses
// it, so a barrier falls exactly on it and StepWindow returns there with
// Horizon() == t. The hold stays until it is moved or released with TimeMax;
// t must lie beyond the horizon. Must be called while the group is quiescent.
func (g *Group) HoldCut(t Time) {
	if t <= g.root.end {
		panic(fmt.Sprintf("sim: cut held at %d, not beyond the horizon %d", t, g.root.end))
	}
	g.hold = t
}

// Shards returns the number of shard engines.
func (g *Group) Shards() int { return len(g.engines) }

// Engine returns shard i's engine.
func (g *Group) Engine(i int) *Engine { return g.engines[i] }

// Lookahead returns the minimum root synchronization window length in
// cycles.
func (g *Group) Lookahead() Time { return g.root.la }

// Send implements CrossNet. Same-engine sends go straight into the owning
// engine's delivery spool; cross-engine sends park in the (src, dst)
// engine outbox row for the next inner (same cluster) or root
// (cross-cluster) barrier merge. Must be called from the goroutine of the
// engine owning endpoint src (or from the coordinator while the group is
// quiescent). The host endpoint (-1, pcie.HostID) is accepted on either
// side and rides engine 0, the engine that owns the fabric's host port. A
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

// winBarrier is the in-window chunk barrier: a reusable phase rendezvous
// for the window's participant shards. The last arriver of each phase
// evaluates the level's decision while it holds the lock (so every
// participant's work for the chunk happens-before the decision) and the
// verdict is read by all under the same lock on the way out.
type winBarrier struct {
	mu      sync.Mutex
	cond    sync.Cond
	parties int
	arrived int
	phase   uint64
	stop    bool
}

// reset prepares the barrier for windows with the given participant count.
func (b *winBarrier) reset(parties int) {
	b.parties = parties
	b.arrived = 0
	b.stop = false
	if b.cond.L == nil {
		b.cond.L = &b.mu
	}
}

// arrive blocks until every participant has arrived, then reports whether
// the caller goes on. over runs exactly once per phase, in the last
// arriver, under the barrier lock.
func (b *winBarrier) arrive(over func() bool) (cont bool) {
	b.mu.Lock()
	b.arrived++
	if b.arrived == b.parties {
		b.stop = over()
		b.arrived = 0
		b.phase++
		b.cond.Broadcast()
	} else {
		phase := b.phase
		for phase == b.phase {
			b.cond.Wait()
		}
	}
	stop := b.stop
	b.mu.Unlock()
	return !stop
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
// here: every participant is parked in the barrier and its lock orders the
// reads. (Non-participants of a root window have no work below the horizon
// by selection, and nothing can reach them before the next merge.)
func (g *Group) over(l *level, k int) bool {
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

// close books the level's finished window: totals, the horizon it actually
// reached, and the width adaptation — traffic parked at this barrier
// collapses the width back to the minimum crossing; a quiet window doubles
// it up to the cap. The caller holds the level quiescent, with nothing
// merged since the members stopped.
func (g *Group) close(l *level) {
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

// runWindow is participant engine ei's share of the level's current window:
// chunk after chunk of la cycles, meeting the other participants at the
// level's barrier, until the last arriver calls the window over. A root
// participant whose cluster has a level of its own tiles each root chunk
// with that level's windows — plan, run, plan again, until the cluster is
// idle up to the chunk's end — and so leaves every chunk through a merge of
// the cluster's rows.
//
// A member that has run the final planned chunk (possibly cut short by the
// clamp) leaves without a rendezvous: the verdict is "over" whatever
// happened in it. Whoever next holds the level quiescent books the window —
// the coordinator after the join (root) or the last arriver of the next
// plan (inner) — and sees exactly what the skipped rendezvous would have
// seen, every member having stopped and nothing having been merged since.
func (g *Group) runWindow(l *level, ei int) {
	var in *level
	if l == g.root {
		in = g.inner[g.engCl[ei]]
	}
	for k := 1; ; k++ {
		end := l.start + Time(k)*l.la
		final := end >= l.end
		if final {
			end = l.end
		}
		if in == nil {
			g.engines[ei].runTo(end - 1)
		} else {
			for in.bar.arrive(func() bool { return !g.plan(in, end) }) {
				g.runWindow(in, ei)
			}
		}
		if final || !l.bar.arrive(func() bool { return g.over(l, k) }) {
			return
		}
	}
}

// StepWindow runs one synchronization window: plans the root level (merging
// pending envelopes, finding the global next event time T) and lets every
// cluster with work before the horizon execute it concurrently — chunk by
// chunk under the adaptive width, each multi-engine cluster running its own
// inner windows inside each chunk. Returns false when no work remains
// anywhere, after aligning every engine clock to the global last-event time
// (mirroring a single engine, whose clock rests on the last executed event —
// host code that schedules the next phase then sees one "now" whatever the
// shard count).
func (g *Group) StepWindow() bool {
	root := g.root
	clamp := min(g.cut, g.hold)
	for !g.plan(root, clamp) {
		if !g.pending() {
			now := g.Now()
			for _, e := range g.engines {
				e.alignTo(now)
			}
			return false
		}
		// Idle up to the cut with work beyond it: the horizon steps onto the
		// cut without booking a window, and the sampler, observing that, moves
		// its cut on — boundary to boundary across a long gap. A cut nobody
		// moved is one the caller holds: the step ends on it.
		root.start, root.end = clamp, clamp
		g.observe()
		next := min(g.cut, g.hold)
		if next == clamp {
			return true
		}
		clamp = next
	}
	// A cluster takes part, all members together, when any member has work
	// before the horizon: the inner barrier needs every one of them.
	g.parts = g.parts[:0]
	for _, members := range g.clusters {
		busy := false
		for _, ei := range members {
			if next, ok := g.engines[ei].NextEventTime(); ok && next < root.end {
				g.ranWindows[ei]++
				busy = true
			}
		}
		if busy {
			g.parts = append(g.parts, members...)
		}
	}
	g.running = true
	root.bar.reset(len(g.parts))
	switch {
	case len(g.engines) == 1:
		// A one-engine group — the serial case — has nobody to meet: every
		// send is same-engine and already sits in the spool, so each chunk
		// boundary would decide "continue" over no rows. Run the whole
		// planned width straight through.
		g.engines[0].runTo(root.end - 1)
	case len(g.parts) == 1:
		// One busy singleton cluster: run the chunk loop inline. The barrier
		// with one party never blocks, but the chunk decisions still run —
		// the shard's own sends must end the window at the correct boundary.
		g.runWindow(root, g.parts[0])
	default:
		var wg sync.WaitGroup
		for _, ei := range g.parts {
			wg.Add(1)
			go func(ei int) {
				defer wg.Done()
				g.runWindow(root, ei)
			}(ei)
		}
		wg.Wait()
	}
	g.running = false
	g.close(root)
	g.observe()
	return true
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
