// Windowed execution: a Group runs a set of Engines — one per shard, from a
// single engine (the serial case) to one per simulated node — under a
// conservative bounded-lag synchronizer. The PCIe fabric's one-way latency
// is the outer lookahead L: no FPGA can affect another sooner than L cycles
// out, so between barriers every shard may safely execute all of its events
// in the window [T, T+L) without seeing the others. At each barrier the
// shards' outboxes are merged and injected in the canonical CrossNet order
// (see crossnet.go), which makes every sharding produce the exact event
// order — and therefore byte-identical metrics — of the one-engine run.
//
// # One engine
//
// A one-engine group has no outboxes to merge and nobody to wait for: every
// send is same-engine and lands in the spool at once. Its window is the
// planned width run straight through — no goroutine, no chunk barrier — so
// the only thing the window machinery adds to a serial run is a boundary
// every few thousand cycles at which run predicates, observers, the
// watchdog and replay cursors get a quiescent look at the model. That is
// what lets one run loop, one watchdog and one cursor serve every build.
//
// # Adaptive lookahead
//
// A fixed window of L cycles pays a full barrier (goroutine fan-out,
// coordinator merge, telemetry flush) every minimum-crossing interval even
// when the shards are not talking to each other — which is most of a
// bucket-sort run. The Group therefore widens windows adaptively: after a
// window closes with no cross-shard envelopes, the next window doubles in
// width (in units of L) up to a cap, and collapses back to L the moment
// traffic reappears.
//
// Widening never reorders events, because a widened window is executed as
// lockstep *chunks* of L cycles. The safety argument is the conservative
// one, applied per chunk: every envelope emitted during chunk [c, c+L) is
// sent at some s >= c (the previous chunk drained everything earlier) and
// delivers at s + model latency >= c + L — i.e. never inside its own chunk.
// Between chunks the shards meet at a lightweight in-window barrier; the
// last arriver checks the outboxes and ends the window at the first chunk
// boundary with traffic parked, so no shard ever crosses a chunk boundary
// ahead of an undelivered envelope. A window of width W is therefore
// event-for-event identical to W consecutive fixed windows whose barriers
// all had nothing to inject — the chunks that were skipped are exactly the
// barriers that would have been no-ops. The adaptive width sequence is a
// pure function of the (deterministic) simulation, so replay reproduces it,
// and WindowDigest fingerprints it so a checkpoint cursor can prove it did.
//
// # Hierarchical windows (sub-FPGA sharding)
//
// The intra-FPGA interconnect couples co-located nodes far more tightly
// than PCIe couples FPGAs: its crossing is a few cycles, not sixty. Running
// one engine per *node* under the flat scheme would therefore force the
// whole system to the tiny lookahead. Instead the Group supports two
// levels (NewHierGroup): engines are grouped into clusters (one per FPGA),
// and within each outer chunk of L cycles, each multi-engine cluster runs
// its own sequence of *inner* windows at the inner lookahead l — planned,
// chunked, adaptively widened and barriered exactly like the outer level,
// but entirely inside the cluster. Inner windows always tile outer chunks:
// an inner window never crosses the enclosing outer chunk boundary (its
// horizon is clamped to it), so the outer safety argument is untouched.
// The per-chunk argument then holds at both radii: a cross-cluster
// envelope sent inside outer chunk [c, c+L) delivers at >= c+L (outer
// barrier injection), and an intra-cluster envelope sent inside inner
// chunk [b, b+l) delivers at >= b+l (drained into the member's spool at
// the next inner barrier). A truncated final inner chunk [b, e) with
// e <= b+l is safe for the same reason: everything it sends delivers at
// >= b+l >= e. Same-engine sends bypass the window machinery entirely —
// they go straight into the owning engine's delivery spool, which applies
// the identical canonical per-(endpoint, cycle) order in every mode.
package sim

import (
	"fmt"
	"sync"
)

// DefaultAdaptiveCap is the default ceiling on adaptive window widening, in
// units of the lookahead L: windows grow geometrically 1, 2, 4, ... up to
// this multiplier while cross-shard traffic is absent. 64 puts the widest
// window at a few thousand cycles with the PCIe-calibrated L — long enough
// to amortize barriers across a local compute phase, short enough that the
// group still reaches quiescent points (checkpoints, watchdog checks,
// dashboard snapshots) at a useful cadence. Inner windows use the same cap
// in units of the inner lookahead; their width is additionally clamped by
// the enclosing outer chunk.
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
	lookahead Time // outer: minimum cross-cluster (PCIe) crossing
	innerLA   Time // inner: minimum intra-cluster cross-engine crossing
	engines   []*Engine
	clusters  [][]int                 // engine indices per cluster (all singletons when flat)
	engCl     []int                   // engine index -> cluster index
	epEng     []int                   // endpoint id+1 -> engine index (slot 0: the host)
	seqs      []uint64                // per-source send sequence, indexed like epEng
	spools    []*spool                // per-engine canonical delivery spool
	minLat    func(src, dst int) Time // optional per-edge model floor
	// outbox is the batched envelope hand-off: one preallocated slice per
	// (src, dst) engine pair at index src*engines+dst. During a window row
	// src is owned by engine src's goroutine (Send appends, nothing else
	// touches it); intra-cluster rows drain at the cluster's inner barriers
	// and cross-cluster rows at the outer window barrier, each merging into
	// the destination engine's spool. Slices are reused window to window, so
	// a warmed-up group hands envelopes off without allocating.
	outbox  [][]netEntry
	horizon Time  // current window's exclusive upper bound
	running bool  // inside a window (workers active)
	active  []int // active-cluster scratch, reused window to window

	// Adaptive-lookahead state. width is the next window's width in units
	// of lookahead; maxWidth caps the geometric widening (1 = fixed
	// windows). chunksRan is the width the current window actually reached
	// before traffic (or idleness) ended it — written by the last barrier
	// arriver, read by the coordinator after the workers join.
	width     int
	maxWidth  int
	chunksRan int
	bar       winBarrier

	// cl holds each cluster's inner synchronizer (meaningful only for
	// clusters with more than one engine).
	cl []clusterState

	// Synchronizer telemetry, maintained unconditionally (a few integer
	// bumps per window). envOut[i] is written only by engine i's goroutine
	// during a window; envIn[i] is written by engine i's own sends, its
	// cluster's inner-barrier drains and the quiescent coordinator —
	// contexts the barriers already order. Everything else is
	// coordinator-owned and touched only while the group is quiescent.
	windows    uint64   // completed synchronization windows
	chunks     uint64   // completed window chunks (windows in units of L)
	widenings  uint64   // windows after which the width grew
	collapses  uint64   // windows after which the width snapped back to 1
	digest     uint64   // FNV-1a over the (start, width) outer window sequence
	ranWindows []uint64 // windows in which engine i actually executed work
	envIn      []uint64 // envelopes merged toward engine i
	envOut     []uint64 // envelopes sent by engine i

	// syncStats, when bound with EnableSyncStats, mirrors the telemetry into
	// per-shard stats registries at every barrier.
	syncStats []shardSyncStats

	// OnBarrier, when non-nil, runs at the end of every synchronization
	// window, after the worker goroutines have joined and before the next
	// window begins. The group is quiescent: the callback may inspect any
	// shard engine or registry freely, but must not schedule events or send
	// envelopes. The observability layer publishes its snapshot here.
	OnBarrier func()
}

// clusterState is one cluster's inner window machinery: a private chunk
// barrier plus the same plan/adapt/digest state the outer level keeps, in
// units of the inner lookahead. All fields are touched only under the
// cluster's barrier lock (or while the group is quiescent).
type clusterState struct {
	engines  []int
	bar      winBarrier
	width    int // next inner window width, in units of innerLA
	maxWidth int
	winStart Time // current inner window start
	winEnd   Time // current inner window's exclusive clamp (tiles the outer chunk)

	windows   uint64
	chunks    uint64
	widenings uint64
	collapses uint64
	chunksRan int
	digest    uint64 // FNV-1a over the (start, chunks) inner window sequence
}

// shardSyncStats is the per-shard registry binding of the synchronizer
// telemetry (see EnableSyncStats).
type shardSyncStats struct {
	windows   *Counter
	chunks    *Counter
	widenings *Counter
	collapses *Counter
	envIn     *Counter
	envOut    *Counter
	horizon   *Gauge
	width     *Gauge
	lag       *Gauge

	// Inner-group instruments, bound only on the first engine of a
	// multi-engine cluster.
	innerWindows   *Counter
	innerChunks    *Counter
	innerWidenings *Counter
	innerCollapses *Counter
	innerWidth     *Gauge
}

// fnvOffset/fnvPrime are the FNV-1a constants for the window-sequence
// digest. Starting from the offset basis keeps the digest of an empty
// sequence nonzero, so a snapshot can always carry it.
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

// fnvFold mixes one word into the running window digest.
func fnvFold(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
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
// one engine skip the inner machinery entirely, so a hierarchical group
// whose clusters are all singletons behaves exactly like a flat one.
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
	g := &Group{
		lookahead: outer,
		innerLA:   inner,
		width:     1,
		maxWidth:  1,
		digest:    fnvOffset,
		cl:        make([]clusterState, len(clusters)),
	}
	for ci, members := range clusters {
		if len(members) == 0 {
			panic("sim: parallel group cluster with no engines")
		}
		cs := &g.cl[ci]
		cs.width = 1
		cs.maxWidth = 1
		cs.digest = fnvOffset
		var idx []int
		for _, e := range members {
			idx = append(idx, len(g.engines))
			g.engCl = append(g.engCl, ci)
			g.engines = append(g.engines, e)
		}
		cs.engines = idx
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
	for i, e := range g.engines {
		g.spools[i] = newSpool(e)
	}
	g.ranWindows = make([]uint64, n)
	g.envIn = make([]uint64, n)
	g.envOut = make([]uint64, n)
	return g
}

// SetAdaptive sets the adaptive-lookahead cap: the maximum window width as a
// multiple of the lookahead, applied at both levels (outer windows in units
// of the outer lookahead, inner windows in units of the inner one — inner
// widths are additionally clamped by the enclosing outer chunk). 1 keeps
// fixed windows; larger caps let windows double geometrically while no
// cross-shard envelope appears and collapse back to 1 the window traffic
// returns. Must be called while the group is quiescent. The cap shapes the
// window sequence a replay cursor counts, so a restore must run under the
// same value (core derives it from the hashed configuration; the digest
// check catches a test that overrides one side only).
func (g *Group) SetAdaptive(cap int) {
	if cap < 1 {
		panic(fmt.Sprintf("sim: adaptive lookahead cap %d; need >= 1", cap))
	}
	g.maxWidth = cap
	if g.width > cap {
		g.width = cap
	}
	for ci := range g.cl {
		cs := &g.cl[ci]
		cs.maxWidth = cap
		if cs.width > cap {
			cs.width = cap
		}
	}
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

// EnableSyncStats registers the synchronizer's telemetry as instruments in
// the given per-shard registries (regs[i] belongs to engine i) under the
// "fpga<i>.sync." prefix — "node<i>.sync." when the group is hierarchical
// (sub-FPGA sharding, where a shard is a node). Mirrored per engine:
// windows and chunks executed, envelopes merged in and sent out,
// widening/collapse counts, the current window horizon and width, and the
// engine's lag behind that horizon. Each multi-engine cluster additionally
// binds its inner-window counters ("...sync.inner_windows" etc.) on its
// first engine's registry. Values are refreshed at every window barrier.
// Note that reports folding these registries then differ between shardings
// of one configuration, so the feature is opt-in — see
// core.Config.SyncMetrics.
func (g *Group) EnableSyncStats(regs []*Stats) {
	if len(regs) != len(g.engines) {
		panic(fmt.Sprintf("sim: EnableSyncStats got %d registries for %d shards", len(regs), len(g.engines)))
	}
	kind := "fpga"
	if g.Hierarchical() {
		kind = "node"
	}
	g.syncStats = make([]shardSyncStats, len(regs))
	for i, s := range regs {
		prefix := fmt.Sprintf("%s%d.sync.", kind, i)
		g.syncStats[i] = shardSyncStats{
			windows:   s.Counter(prefix + "windows"),
			chunks:    s.Counter(prefix + "chunks"),
			widenings: s.Counter(prefix + "widenings"),
			collapses: s.Counter(prefix + "collapses"),
			envIn:     s.Counter(prefix + "envelopes_in"),
			envOut:    s.Counter(prefix + "envelopes_out"),
			horizon:   s.Gauge(prefix + "horizon"),
			width:     s.Gauge(prefix + "width"),
			lag:       s.Gauge(prefix + "lag"),
		}
	}
	for ci, members := range g.clusters {
		if len(members) < 2 {
			continue
		}
		ss := &g.syncStats[members[0]]
		s := regs[members[0]]
		prefix := fmt.Sprintf("%s%d.sync.", kind, members[0])
		_ = ci
		ss.innerWindows = s.Counter(prefix + "inner_windows")
		ss.innerChunks = s.Counter(prefix + "inner_chunks")
		ss.innerWidenings = s.Counter(prefix + "inner_widenings")
		ss.innerCollapses = s.Counter(prefix + "inner_collapses")
		ss.innerWidth = s.Gauge(prefix + "inner_width")
	}
}

// flushSyncStats assigns the current telemetry into the bound registries.
// Assignment (not accumulation) keeps it idempotent; it runs only at
// barriers, where the coordinator owns every shard registry.
func (g *Group) flushSyncStats() {
	for i := range g.syncStats {
		ss := &g.syncStats[i]
		ss.windows.Value = g.ranWindows[i]
		ss.chunks.Value = g.chunks
		ss.widenings.Value = g.widenings
		ss.collapses.Value = g.collapses
		ss.envIn.Value = g.envIn[i]
		ss.envOut.Value = g.envOut[i]
		ss.horizon.Set(int64(g.horizon))
		ss.width.Set(int64(g.width))
		lag := int64(0)
		if le := g.engines[i].LastEventTime(); g.horizon > 0 && g.horizon-1 > le {
			lag = int64(g.horizon - 1 - le)
		}
		ss.lag.Set(lag)
		if ss.innerWindows != nil {
			cs := &g.cl[g.engCl[i]]
			ss.innerWindows.Value = cs.windows
			ss.innerChunks.Value = cs.chunks
			ss.innerWidenings.Value = cs.widenings
			ss.innerCollapses.Value = cs.collapses
			ss.innerWidth.Set(int64(cs.width))
		}
	}
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

// InnerSync is one cluster's inner-window synchronizer state (sub-FPGA
// sharding), captured at an outer barrier.
type InnerSync struct {
	Cluster   int    `json:"cluster"`
	Engines   int    `json:"engines"`
	Lookahead Time   `json:"lookahead"` // inner lookahead in cycles
	Windows   uint64 `json:"windows"`   // completed inner windows
	Chunks    uint64 `json:"chunks"`    // completed inner chunks (units of the inner lookahead)
	Width     int    `json:"width"`     // next inner window's width
	WidthCap  int    `json:"width_cap"`
	Widenings uint64 `json:"widenings"`
	Collapses uint64 `json:"collapses"`
}

// GroupSync is the synchronizer's state, captured at a barrier: window and
// chunk totals, the adaptive-width machinery, per-shard occupancy, and —
// under sub-FPGA sharding — each cluster's inner-window state.
type GroupSync struct {
	Windows   uint64      `json:"windows"`   // completed synchronization windows
	Chunks    uint64      `json:"chunks"`    // completed chunks (windows in units of L)
	Horizon   Time        `json:"horizon"`   // last window's exclusive upper bound
	Lookahead Time        `json:"lookahead"` // minimum window width in cycles
	Width     int         `json:"width"`     // next window's width, in units of L
	WidthCap  int         `json:"width_cap"` // adaptive cap (1 = fixed windows)
	Widenings uint64      `json:"widenings"` // windows after which the width grew
	Collapses uint64      `json:"collapses"` // windows that snapped the width back
	Shards    []ShardSync `json:"shards"`
	Inner     []InnerSync `json:"inner,omitempty"` // per multi-engine cluster
}

// SyncSnapshot captures the synchronizer's state: window/chunk totals, the
// current horizon, the adaptive window width, and per-shard occupancy. It
// must only be called while the group is quiescent (between windows — e.g.
// from OnBarrier — or before/after Run).
func (g *Group) SyncSnapshot() GroupSync {
	sn := GroupSync{
		Windows:   g.windows,
		Chunks:    g.chunks,
		Horizon:   g.horizon,
		Lookahead: g.lookahead,
		Width:     g.width,
		WidthCap:  g.maxWidth,
		Widenings: g.widenings,
		Collapses: g.collapses,
		Shards:    make([]ShardSync, len(g.engines)),
	}
	for i, e := range g.engines {
		le := e.LastEventTime()
		var lag Time
		if g.horizon > 0 && g.horizon-1 > le {
			lag = g.horizon - 1 - le
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
	for ci := range g.cl {
		cs := &g.cl[ci]
		if len(cs.engines) < 2 {
			continue
		}
		sn.Inner = append(sn.Inner, InnerSync{
			Cluster:   ci,
			Engines:   len(cs.engines),
			Lookahead: g.innerLA,
			Windows:   cs.windows,
			Chunks:    cs.chunks,
			Width:     cs.width,
			WidthCap:  cs.maxWidth,
			Widenings: cs.widenings,
			Collapses: cs.collapses,
		})
	}
	return sn
}

// Windows returns the number of completed synchronization windows. It is
// the replay cursor: re-executing the same build for the same number of
// windows reproduces the exact global state. Under adaptive lookahead the
// window widths are themselves deterministic, so the cursor stays exact;
// WindowDigest lets a restore verify it replayed the identical width
// sequence.
func (g *Group) Windows() uint64 { return g.windows }

// Chunks returns the number of completed window chunks — the window count
// normalized to units of the lookahead, comparable across adaptive caps.
func (g *Group) Chunks() uint64 { return g.chunks }

// WindowDigest returns the running FNV-1a fingerprint of the window
// sequence: every completed outer window folds in its start time and the
// width it actually reached, and — under sub-FPGA sharding — each
// cluster's inner window sequence folds its own digest on top, in cluster
// order. Two runs that stepped the same windows at the same widths at both
// levels — what a replay cursor promises — have equal digests.
func (g *Group) WindowDigest() uint64 {
	h := g.digest
	for ci := range g.cl {
		if len(g.cl[ci].engines) > 1 {
			h = fnvFold(h, g.cl[ci].digest)
		}
	}
	return h
}

// Shards returns the number of shard engines.
func (g *Group) Shards() int { return len(g.engines) }

// Clusters returns the number of engine clusters (FPGAs). Equal to
// Shards() for a flat group.
func (g *Group) Clusters() int { return len(g.clusters) }

// Hierarchical reports whether any cluster holds more than one engine —
// i.e. whether the inner window machinery is in play.
func (g *Group) Hierarchical() bool {
	for _, members := range g.clusters {
		if len(members) > 1 {
			return true
		}
	}
	return false
}

// Engine returns shard i's engine.
func (g *Group) Engine(i int) *Engine { return g.engines[i] }

// Lookahead returns the minimum outer synchronization window length in
// cycles.
func (g *Group) Lookahead() Time { return g.lookahead }

// InnerLookahead returns the minimum inner (intra-cluster) window length in
// cycles; equal to Lookahead for a flat group.
func (g *Group) InnerLookahead() Time { return g.innerLA }

// Send implements CrossNet. Same-engine sends go straight into the owning
// engine's delivery spool; cross-engine sends park in the (src, dst)
// engine outbox for the next inner (same cluster) or outer (cross-cluster)
// barrier merge. Must be called from the goroutine of the engine owning
// endpoint src (or from the coordinator while the group is quiescent). The
// host endpoint (-1, pcie.HostID) is accepted on either side and rides
// engine 0, the engine that owns the fabric's host port. A
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
			min = g.lookahead
			if g.engCl[se] == g.engCl[de] {
				min = g.innerLA
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

// inject merges every parked envelope into its destination engine's spool.
// The spool applies each (endpoint, cycle)'s deliveries in canonical order
// at the front of the cycle, exactly like the SerialNet oracle; deliveries
// to different endpoints carry no cross-order (their state is disjoint).
// Consumed entries are zeroed so delivered closures don't linger, and all
// buffers are reused.
func (g *Group) inject() {
	n := len(g.engines)
	for de := 0; de < n; de++ {
		sp := g.spools[de]
		for se := 0; se < n; se++ {
			if se == de {
				continue
			}
			box := &g.outbox[se*n+de]
			for j := range *box {
				g.envIn[de]++
				sp.insert((*box)[j])
				(*box)[j] = netEntry{}
			}
			*box = (*box)[:0]
		}
	}
}

// drainIntraCluster merges the cluster's internal outbox rows into its
// member spools. It runs under the cluster's inner barrier lock with every
// member parked, which orders the spool insertions against member
// execution on both sides.
func (g *Group) drainIntraCluster(ci int) {
	n := len(g.engines)
	members := g.cl[ci].engines
	for _, de := range members {
		sp := g.spools[de]
		for _, se := range members {
			if se == de {
				continue
			}
			box := &g.outbox[se*n+de]
			for j := range *box {
				g.envIn[de]++
				sp.insert((*box)[j])
				(*box)[j] = netEntry{}
			}
			*box = (*box)[:0]
		}
	}
}

// pendingEnvelopes reports whether any outbox holds an undelivered envelope.
// At outer barriers only cross-cluster rows can be non-empty: every cluster
// leaves its outer chunk through an inner drain.
func (g *Group) pendingEnvelopes() bool {
	for i := range g.outbox {
		if len(g.outbox[i]) > 0 {
			return true
		}
	}
	return false
}

// pendingIntraCluster reports whether the cluster's internal rows hold an
// undelivered envelope.
func (g *Group) pendingIntraCluster(ci int) bool {
	n := len(g.engines)
	members := g.cl[ci].engines
	for _, se := range members {
		for _, de := range members {
			if se != de && len(g.outbox[se*n+de]) > 0 {
				return true
			}
		}
	}
	return false
}

// minNext returns the earliest live event time across all shards.
func (g *Group) minNext() (Time, bool) {
	var best Time
	found := false
	for _, e := range g.engines {
		if t, ok := e.NextEventTime(); ok && (!found || t < best) {
			best, found = t, true
		}
	}
	return best, found
}

// winBarrier is the in-window chunk barrier: a reusable phase rendezvous
// for the window's participant shards. The last arriver of each phase
// evaluates the window-over decision while it holds the lock (so every
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

// reset prepares the barrier for a window with the given participant count.
func (b *winBarrier) reset(parties int) {
	b.parties = parties
	b.arrived = 0
	b.stop = false
	if b.cond.L == nil {
		b.cond.L = &b.mu
	}
}

// arrive blocks until every participant has finished the chunk, then
// reports whether the window continues. over runs exactly once per phase,
// in the last arriver, under the barrier lock.
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

// windowOver is the outer chunk-boundary decision, made by the last barrier
// arriver after chunk k (1-based) of a window starting at start with the
// given planned width. The window ends when it reaches its planned width,
// when any outbox parked a cross-cluster envelope (its delivery lands at or
// beyond the next chunk boundary, so stopping here is exactly a
// fixed-window barrier), or when no shard has work left before the planned
// horizon (the remaining chunks would all be empty). Reading other shards'
// engines and outboxes is safe here: every participant is parked in the
// barrier and the barrier lock orders the reads.
func (g *Group) windowOver(start Time, k, planned int) bool {
	g.chunksRan = k
	if k >= planned {
		return true
	}
	if g.pendingEnvelopes() {
		return true
	}
	end := start + Time(planned)*g.lookahead
	for _, e := range g.engines {
		if t, ok := e.NextEventTime(); ok && t < end {
			return false
		}
	}
	return true
}

// innerSetup plans a cluster's next inner window inside the outer chunk
// ending (exclusively) at chunkEnd. It runs under the cluster's barrier
// lock: first it drains the cluster's internal envelopes (their flush
// events then count as member work), then it looks for the earliest member
// event before the chunk boundary. It returns true — "stop" — when the
// cluster has nothing left to do in this outer chunk.
func (g *Group) innerSetup(ci int, chunkEnd Time) bool {
	g.drainIntraCluster(ci)
	cs := &g.cl[ci]
	var t Time
	found := false
	for _, ei := range cs.engines {
		if next, ok := g.engines[ei].NextEventTime(); ok && next < chunkEnd && (!found || next < t) {
			t, found = next, true
		}
	}
	if !found {
		return true
	}
	cs.winStart = t
	end := t + Time(cs.width)*g.innerLA
	if end > chunkEnd {
		end = chunkEnd
	}
	cs.winEnd = end
	return false
}

// innerOver is the inner chunk-boundary decision after inner chunk k
// (1-based) of the cluster's current window: over when the window reached
// its clamp, parked intra-cluster traffic, or ran out of member work. When
// the window ends it also closes the books — chunk count, digest fold and
// the inner width adaptation — still under the barrier lock.
func (g *Group) innerOver(ci, k int) bool {
	cs := &g.cl[ci]
	cs.chunksRan = k
	over := true
	switch {
	case cs.winStart+Time(k)*g.innerLA >= cs.winEnd:
	case g.pendingIntraCluster(ci):
	default:
		over = false
		for _, ei := range cs.engines {
			if t, ok := g.engines[ei].NextEventTime(); ok && t < cs.winEnd {
				break
			}
			if ei == cs.engines[len(cs.engines)-1] {
				over = true
			}
		}
	}
	if !over {
		return false
	}
	cs.windows++
	cs.chunks += uint64(k)
	cs.digest = fnvFold(fnvFold(cs.digest, uint64(cs.winStart)), uint64(k))
	if g.pendingIntraCluster(ci) {
		if cs.width > 1 {
			cs.collapses++
		}
		cs.width = 1
	} else if cs.width < cs.maxWidth {
		cs.width *= 2
		if cs.width > cs.maxWidth {
			cs.width = cs.maxWidth
		}
		cs.widenings++
	}
	return true
}

// runClusterChunk executes one member engine's share of a single outer
// chunk ending (exclusively) at chunkEnd. Singleton clusters run straight
// through; multi-engine clusters alternate setup phases (drain + plan) and
// inner chunk loops at the cluster barrier until the cluster is idle up to
// the chunk boundary. Inner windows tile the outer chunk: their horizon
// never crosses chunkEnd.
func (g *Group) runClusterChunk(ci int, e *Engine, chunkEnd Time) {
	cs := &g.cl[ci]
	if len(cs.engines) == 1 {
		e.runTo(chunkEnd - 1)
		return
	}
	for {
		if !cs.bar.arrive(func() bool { return g.innerSetup(ci, chunkEnd) }) {
			return
		}
		for k := 1; ; k++ {
			end := cs.winStart + Time(k)*g.innerLA
			if end > cs.winEnd {
				end = cs.winEnd
			}
			e.runTo(end - 1)
			if !cs.bar.arrive(func() bool { return g.innerOver(ci, k) }) {
				break
			}
		}
	}
}

// runEngineWindow is one participant engine's outer window: execute chunk
// after chunk of L cycles (each possibly expanded into inner windows by its
// cluster), meeting the other participants at the outer chunk barrier,
// until the last arriver calls the window over.
func (g *Group) runEngineWindow(ci int, e *Engine, start Time, planned int) {
	for k := 1; ; k++ {
		g.runClusterChunk(ci, e, start+Time(k)*g.lookahead)
		if !g.bar.arrive(func() bool { return g.windowOver(start, k, planned) }) {
			return
		}
	}
}

// StepWindow runs one synchronization window: injects pending envelopes,
// finds the global next event time T, and lets every cluster with work
// before the horizon execute it concurrently — chunk by chunk under the
// adaptive width, each multi-engine cluster running its own inner windows
// inside each chunk. Returns false when no work remains anywhere, after
// aligning every engine clock to the global last-event time (mirroring a
// single engine, whose clock rests on the last executed event — host code
// that schedules the next phase then sees one "now" whatever the shard
// count).
func (g *Group) StepWindow() bool {
	g.inject()
	t, ok := g.minNext()
	if !ok {
		now := g.Now()
		for _, e := range g.engines {
			e.alignTo(now)
		}
		return false
	}
	planned := g.width
	g.horizon = t + Time(planned)*g.lookahead
	g.active = g.active[:0]
	parties := 0
	for ci, members := range g.clusters {
		act := false
		for _, ei := range members {
			if next, ok := g.engines[ei].NextEventTime(); ok && next < g.horizon {
				g.ranWindows[ei]++
				act = true
			}
		}
		if act {
			g.active = append(g.active, ci)
			parties += len(members)
		}
	}
	g.running = true
	g.chunksRan = planned
	for _, ci := range g.active {
		if len(g.clusters[ci]) > 1 {
			g.cl[ci].bar.reset(len(g.clusters[ci]))
		}
	}
	switch {
	case len(g.engines) == 1:
		// A one-engine group — the serial case — has nobody to meet: every
		// send is same-engine and already sits in the spool, so each chunk
		// boundary would decide "continue" over an empty outbox. Run the
		// whole planned width straight through.
		g.engines[0].runTo(g.horizon - 1)
	case planned == 1 && parties == 1:
		// Fixed-width window with a single busy singleton cluster: run
		// inline, no goroutine, no barrier.
		g.engines[g.clusters[g.active[0]][0]].runTo(g.horizon - 1)
	case planned == 1:
		// Fixed-width window: the outer chunk loop degenerates to one chunk
		// per cluster, so skip the outer chunk barrier entirely (the inner
		// machinery still runs inside the chunk).
		var wg sync.WaitGroup
		for _, ci := range g.active {
			for _, ei := range g.clusters[ci] {
				wg.Add(1)
				go func(ci int, e *Engine) {
					defer wg.Done()
					g.runClusterChunk(ci, e, g.horizon)
				}(ci, g.engines[ei])
			}
		}
		wg.Wait()
	case parties == 1:
		// Widened window, one busy singleton cluster: run the chunk loop
		// inline. The barrier with one party never blocks, but the chunk
		// decisions still run — the shard's own sends must end the window at
		// the correct boundary.
		g.bar.reset(1)
		g.runEngineWindow(g.active[0], g.engines[g.clusters[g.active[0]][0]], t, planned)
	default:
		g.bar.reset(parties)
		var wg sync.WaitGroup
		for _, ci := range g.active {
			for _, ei := range g.clusters[ci] {
				wg.Add(1)
				go func(ci int, e *Engine) {
					defer wg.Done()
					g.runEngineWindow(ci, e, t, planned)
				}(ci, g.engines[ei])
			}
		}
		wg.Wait()
	}
	g.running = false
	ran := g.chunksRan
	g.horizon = t + Time(ran)*g.lookahead
	g.windows++
	g.chunks += uint64(ran)
	g.digest = fnvFold(fnvFold(g.digest, uint64(t)), uint64(ran))
	// Adapt: traffic parked at this barrier collapses the width back to the
	// minimum crossing; a quiet window doubles it up to the cap.
	if g.pendingEnvelopes() {
		if g.width > 1 {
			g.collapses++
		}
		g.width = 1
	} else if g.width < g.maxWidth {
		g.width *= 2
		if g.width > g.maxWidth {
			g.width = g.maxWidth
		}
		g.widenings++
	}
	if g.syncStats != nil {
		g.flushSyncStats()
	}
	if g.OnBarrier != nil {
		g.OnBarrier()
	}
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
