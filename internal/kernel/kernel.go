// Package kernel is the mini operating system used for execution-driven
// studies on SMAPPIC prototypes. It stands in for the full-stack Linux of
// the paper's case studies and implements exactly the two policy dimensions
// those experiments exercise:
//
//   - NUMA-aware memory management (lazy first-touch page allocation on the
//     toucher's node, as Linux does with CONFIG_NUMA, available on RISC-V
//     since v5.12) versus topology-blind allocation (pages handed out with
//     no regard for locality);
//   - thread scheduling with taskset-style affinity: NUMA mode keeps
//     threads where they started, non-NUMA mode migrates them between
//     allowed harts on a timeslice, as a topology-blind scheduler would.
//
// Threads are Go functions running as simulation processes; their memory
// accesses are translated through the kernel's page table and flow through
// the prototype's cache hierarchy and NoC/bridge fabric, so placement
// policy turns directly into latency and congestion.
//
// The kernel is shard-safe: on a sharded prototype (core.Config.Parallel)
// threads on different FPGAs run on concurrent goroutines, so every piece
// of cross-thread kernel state is reached only through simulated memory
// operations whose ordering the conservative synchronizer already makes
// deterministic. Concretely:
//
//   - each thread has a private TLB; a miss always performs a real atomic
//     on the page's allocator lock line (striped over node 0) before
//     looking at the shared page table, so competing first-touchers of a
//     page are serialized in simulated time (cross-shard, the line
//     transfer costs at least one PCIe crossing = one lookahead window,
//     which also gives the host-side map accesses a happens-before edge);
//   - physical frames are direct-mapped (frame index = heap page index on
//     whichever node the policy picks), so the physical address of a page
//     never depends on the global order of unrelated faults;
//   - topology-blind placement hashes (seed, page) instead of drawing from
//     a shared RNG stream, and each thread's migration decisions come from
//     its own RNG, so no policy choice depends on global event order;
//   - barrier arrival is a fetch-add on a shared line; the same atomic
//     that generates the coherence traffic also serializes the arrivals,
//     so the release (futex-style wakeups sent through the cross-shard
//     network, one lookahead-bounded latency each) is deterministic;
//   - a migration that crosses nodes hops the thread's process between
//     engines through the cross-shard network, paying a fixed migration
//     cost that covers the governing lookahead (PCIe across FPGAs, the
//     intra-FPGA interconnect between co-located nodes).
package kernel

import (
	"fmt"
	"sync"

	"smappic/internal/cache"
	"smappic/internal/core"
	"smappic/internal/pcie"
	"smappic/internal/riscv"
	"smappic/internal/sim"
)

// PageBytes is the allocation granule (Sv39's 4 KiB).
const PageBytes = 4096

// heapBase is the start of the kernel's virtual heap. It is far above any
// physical address so mixups are caught immediately.
const heapBase uint64 = 1 << 44

// heapPhysOffset is where heap frames start within a node's DRAM (the low
// 32 MiB is reserved for code and kernel structures).
const heapPhysOffset uint64 = 32 << 20

// lockOffset places the allocator lock lines inside node 0's reserved low
// memory (below the 32 MiB kernel area, away from the probe scratch region
// at 16 MiB); lockLines stripes independent pages over distinct lines so
// only faults on the same page serialize against each other.
const (
	lockOffset uint64 = 8 << 20
	lockLines  uint64 = 64
)

// barrierHopLatency is the cost of one barrier slow-path message
// (register, release or wake: the futex/IPI path).
const barrierHopLatency sim.Time = 100

// Non-NUMA scheduling: quantum is the timeslice between migration decisions
// and migrateCost the context-switch penalty charged per migration, in
// cycles.
const (
	quantum     sim.Time = 50_000
	migrateCost sim.Time = 2000
)

// A barrier message and a migration are cross-shard sends, so each must
// cost at least the PCIe lookahead (and with it the intra-FPGA one, which
// sim.NewHierGroup keeps at or below it). sim.Time is unsigned: a
// shortfall overflows these constants and fails the build.
const (
	_ = barrierHopLatency - pcie.MinCrossing
	_ = migrateCost - pcie.MinCrossing
)

// Config selects the kernel policies.
type Config struct {
	// NUMA enables first-touch allocation and no-migration scheduling.
	NUMA bool
	// Seed drives the topology-blind allocator and migration choices.
	Seed uint64
}

// DefaultConfig returns NUMA-aware defaults.
func DefaultConfig() Config {
	return Config{NUMA: true, Seed: 42}
}

// Kernel is a booted mini-OS instance on a prototype.
type Kernel struct {
	pr  *core.Prototype
	cfg Config

	// mu guards the shared allocator state below. Timed accesses reach it
	// only after the page's lock-line atomic, which keeps cross-shard
	// contenders on the same page at least one synchronization window
	// apart; the mutex makes the host-side (functional) accesses safe as
	// well.
	mu        sync.Mutex
	pageTable map[uint64]uint64 // vpage -> physical page address (its node: frameNode)
	nextVA    uint64
	threads   []*Thread

	// runner, when non-nil, replaces Prototype.Run in Join (see SetRunner).
	runner func() sim.Time
}

// New boots the kernel on a prototype.
func New(pr *core.Prototype, cfg Config) *Kernel {
	return &Kernel{
		pr:        pr,
		cfg:       cfg,
		pageTable: make(map[uint64]uint64),
		nextVA:    heapBase,
	}
}

// Prototype returns the underlying hardware.
func (k *Kernel) Prototype() *core.Prototype { return k.pr }

// NUMA reports whether NUMA mode is enabled.
func (k *Kernel) NUMA() bool { return k.cfg.NUMA }

// lockAddr is the physical address of a virtual page's allocator lock line
// (on node 0, striped so unrelated pages do not contend).
func (k *Kernel) lockAddr(vp uint64) uint64 {
	stripe := (vp - heapBase/PageBytes) % lockLines
	return k.pr.Map.NodeDRAMBase(0) + lockOffset + stripe*cache.LineBytes
}

// mix is the splitmix64 finalizer over a seeded input, used for all
// order-independent pseudo-random policy decisions.
func mix(seed, x uint64) uint64 {
	z := seed ^ x*0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// blindNode is the topology-blind allocator's placement for a virtual page:
// a pure hash of (seed, page), so the choice does not depend on which
// thread faults first.
func (k *Kernel) blindNode(vp uint64) int {
	return int(mix(k.cfg.Seed, vp) % uint64(k.pr.Cfg.TotalNodes()))
}

// Alloc reserves size bytes of virtual address space (page aligned).
// Physical pages are assigned lazily on first touch.
func (k *Kernel) Alloc(size uint64) uint64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	va := k.nextVA
	pages := (size + PageBytes - 1) / PageBytes
	k.nextVA += pages * PageBytes
	return va
}

// physFor direct-maps a virtual heap page onto a node: frame index equals
// the heap page index, at an offset above the reserved kernel area. The
// physical address of a page therefore depends only on (vp, node), never
// on the order unrelated faults resolved in — the property that lets
// independent pages fault concurrently on different shards. Frames are
// sparse (the backing store materializes only touched pages), so the cost
// is address space, not memory.
func (k *Kernel) physFor(vp uint64, node int) uint64 {
	off := heapPhysOffset + (vp-heapBase/PageBytes)*PageBytes
	if off+PageBytes > k.pr.Map.MainMemorySize() {
		panic(fmt.Sprintf("kernel: virtual heap page %#x exceeds per-node main memory (direct-mapped paging)", vp))
	}
	return k.pr.Map.NodeDRAMBase(node) + off
}

// frameNode is the node whose DRAM holds physical page pa: the inverse of
// physFor's node choice.
func frameNode(pa uint64) int { return int((pa - core.DRAMBase) / core.NodeDRAMSize) }

// faultLocked resolves a page fault: look up the page, install it on first
// touch. toucher is the node charged for a NUMA first-touch allocation.
// Callers hold k.mu.
func (k *Kernel) faultLocked(vp uint64, toucher int) uint64 {
	pa, ok := k.pageTable[vp]
	if !ok {
		node := toucher
		if !k.cfg.NUMA {
			node = k.blindNode(vp)
		}
		pa = k.physFor(vp, node)
		k.pageTable[vp] = pa
	}
	return pa
}

// hostTranslate maps a virtual address functionally (no simulated time,
// host context). First touches from the host are charged to node 0 in NUMA
// mode.
func (k *Kernel) hostTranslate(va uint64) uint64 {
	if va < heapBase {
		// Identity-mapped low range (device or explicitly physical).
		return va
	}
	vp := va / PageBytes
	k.mu.Lock()
	pa := k.faultLocked(vp, 0)
	k.mu.Unlock()
	return pa + va%PageBytes
}

// Read performs a functional (zero-time) read at a virtual address, for
// verification and host-side inspection.
func (k *Kernel) Read(va uint64, size int) uint64 {
	return k.pr.ReadPhys(k.hostTranslate(va), size)
}

// Translate exposes the page table for hardware engines (e.g. MAPLE) that
// are programmed with already-touched buffers. The toucher for any page
// faulted here is node 0.
func (k *Kernel) Translate(va uint64) uint64 { return k.hostTranslate(va) }

// Thread is a schedulable software thread.
type Thread struct {
	ID       int
	kern     *Kernel
	affinity []int // allowed harts
	hart     int
	port     *core.Port
	proc     *sim.Process
	nextMigr sim.Time
	rng      *sim.RNG // private stream: migration choices
	tlb      map[uint64]uint64
	barEpoch map[*Barrier]uint64

	Migrations int
	Done       bool
}

// Ctx is passed to thread bodies: the thread plus its simulation process.
type Ctx struct {
	T *Thread
	P *sim.Process
}

// Spawn starts fn as a thread allowed on the given harts (a taskset mask),
// beginning on the hart at index (threadID mod len(affinity)) so sibling
// threads spread over the mask.
func (k *Kernel) Spawn(name string, affinity []int, fn func(*Ctx)) *Thread {
	if len(affinity) == 0 {
		panic("kernel: empty affinity")
	}
	return k.spawnOn(name, affinity, affinity[len(k.threads)%len(affinity)], fn)
}

// spawnOn starts fn as a thread allowed on affinity, beginning on hart. The
// thread's process runs on the engine of the hart's node.
func (k *Kernel) spawnOn(name string, affinity []int, hart int, fn func(*Ctx)) *Thread {
	t := &Thread{
		ID:       len(k.threads),
		kern:     k,
		affinity: append([]int(nil), affinity...),
		hart:     hart,
		tlb:      make(map[uint64]uint64),
		barEpoch: make(map[*Barrier]uint64),
	}
	t.rng = sim.NewRNG(mix(k.cfg.Seed, 0x7468_7264+uint64(t.ID)))
	t.port = k.pr.PortAt(k.locOf(hart))
	k.threads = append(k.threads, t)
	t.proc = sim.Go(k.pr.EngineForNode(t.Node()), name, func(p *sim.Process) {
		t.nextMigr = p.Now() + quantum
		fn(&Ctx{T: t, P: p})
		t.Done = true
	})
	return t
}

// AllHarts returns 0..n-1, the affinity of an unpinned thread.
func (k *Kernel) AllHarts() []int {
	out := make([]int, k.pr.Cfg.TotalTiles())
	for i := range out {
		out[i] = i
	}
	return out
}

// NodeHarts returns the harts of one node.
func (k *Kernel) NodeHarts(node int) []int {
	c := k.pr.Cfg.TilesPerNode
	out := make([]int, c)
	for i := range out {
		out[i] = node*c + i
	}
	return out
}

func (k *Kernel) locOf(hart int) cache.GID {
	c := k.pr.Cfg.TilesPerNode
	return cache.GID{Node: hart / c, Tile: hart % c}
}

// Node returns the thread's current NUMA node, whose engine runs the thread.
func (t *Thread) Node() int { return t.hart / t.kern.pr.Cfg.TilesPerNode }

// maybeMigrate implements the non-NUMA scheduler: at each expired quantum
// the thread may hop to another allowed hart. A hop that changes nodes
// moves the thread's process through the cross-shard network to the
// destination node's engine — the same route in every mode and at every
// granularity, so results are mode-invariant (migrateCost covers the
// governing lookahead, PCIe or intra-FPGA, checked at compile time); a
// same-node hop just charges the context-switch cost.
func (t *Thread) maybeMigrate(p *sim.Process) {
	if t.kern.cfg.NUMA || len(t.affinity) == 1 || p.Now() < t.nextMigr {
		return
	}
	t.nextMigr = p.Now() + quantum
	next := t.affinity[t.rng.Intn(len(t.affinity))]
	if next == t.hart {
		return
	}
	pr := t.kern.pr
	oldNode := t.Node()
	t.hart = next
	t.port = pr.PortAt(t.kern.locOf(next))
	t.Migrations++
	newNode := t.Node()
	if newNode == oldNode {
		p.Wait(migrateCost)
		return
	}
	p.Hop(pr.Net(), oldNode, newNode, pr.EngineForNode(newNode), migrateCost)
}

// translate maps a virtual address with timing: a TLB hit is free, a miss
// performs a real fetch-add on the page's allocator lock line before
// touching the shared page table. The atomic both charges a realistic
// page-walk/fault cost and — because competing faulters of the same page
// serialize on its lock line through the coherence protocol — makes the
// first toucher (and with it placement) deterministic even when faulting
// threads run on different shards. Unrelated pages sit on different
// stripes and fault concurrently; their installs commute because the
// physical frame is a pure function of (page, node).
func (c *Ctx) translate(va uint64) uint64 {
	if va < heapBase {
		// Identity-mapped low range (device or explicitly physical).
		return va
	}
	t := c.T
	vp := va / PageBytes
	if pa, ok := t.tlb[vp]; ok {
		return pa + va%PageBytes
	}
	k := t.kern
	t.port.Amo(c.P, k.lockAddr(vp), 8, riscv.AmoAdd, 1)
	k.mu.Lock()
	pa := k.faultLocked(vp, t.Node())
	k.mu.Unlock()
	t.tlb[vp] = pa
	return pa + va%PageBytes
}

// Load reads size bytes at virtual address va.
func (c *Ctx) Load(va uint64, size int) uint64 {
	c.T.maybeMigrate(c.P)
	pa := c.translate(va)
	return c.T.port.Load(c.P, pa, size)
}

// Store writes size bytes at virtual address va.
func (c *Ctx) Store(va uint64, size int, v uint64) {
	c.T.maybeMigrate(c.P)
	pa := c.translate(va)
	c.T.port.Store(c.P, pa, size, v)
}

// StoreAsync issues a fire-and-forget store (decoupled update): the write
// lands when permission arrives; the thread only pays the issue cycle.
func (c *Ctx) StoreAsync(va uint64, size int, v uint64) {
	c.T.maybeMigrate(c.P)
	pa := c.translate(va)
	c.T.port.StoreAsync(pa, size, v)
	c.P.Wait(1)
}

// Amo atomically applies op with operand at virtual address va and returns
// the old value.
func (c *Ctx) Amo(va uint64, size int, op riscv.AmoOp, operand uint64) uint64 {
	c.T.maybeMigrate(c.P)
	pa := c.translate(va)
	return c.T.port.Amo(c.P, pa, size, op, operand)
}

// Compute charges n cycles of computation.
func (c *Ctx) Compute(n sim.Time) {
	c.T.maybeMigrate(c.P)
	if n > 0 {
		c.P.Wait(n)
	}
}

// MMIOLoad performs an uncacheable device read from the current hart.
func (c *Ctx) MMIOLoad(addr uint64, size int) uint64 {
	c.T.maybeMigrate(c.P)
	return c.T.port.MMIOLoad(c.P, addr, size)
}

// Barrier synchronizes n threads. Arrival is a real fetch-add on a shared
// count line, generating the coherence traffic of a pthread barrier's fast
// path. The slow path is futex-style with the wait queue owned by a home
// node, the way a real futex's wait queue lives in the kernel of one node:
// waiters register with the home and the last arriver posts a release
// there, both as cross-shard messages, so every queue mutation executes on
// the home node's engine in the network's canonical delivery order. That
// makes the queue deterministic and shard-safe by construction — whatever
// the granularity, no other shard ever touches it from its own execution
// context. A register that reaches the home after its round's release
// (possible when fault-injected link delays reorder arrivals) is woken
// immediately via the released-round watermark.
type Barrier struct {
	k         *Kernel
	n         int
	countAddr uint64

	// Home-node-owned state: touched only inside CrossNet deliveries on
	// node homeNode's engine, never from a waiter's own execution context.
	homeNode int
	waiting  []barWaiter
	released uint64 // highest round already released
}

// barWaiter is a parked thread awaiting release: its round, the node it
// parked on and the callback that resumes it there.
type barWaiter struct {
	ep   uint64
	node int
	wake func()
}

// NewBarrier creates a barrier for n threads. The wait queue lives on
// node 0, alongside the kernel's other bookkeeping.
func (k *Kernel) NewBarrier(n int) *Barrier {
	return &Barrier{k: k, n: n, countAddr: k.Alloc(PageBytes), homeNode: 0}
}

// release runs on the home node: it marks the round released and wakes
// every registered waiter of that round.
func (b *Barrier) release(ep uint64) {
	if ep > b.released {
		b.released = ep
	}
	home := b.k.pr.EngineForNode(b.homeNode)
	at := home.Now() + barrierHopLatency
	var keep []barWaiter
	for _, w := range b.waiting {
		if w.ep <= b.released {
			b.k.pr.Net().Send(b.homeNode, w.node, at, w.wake)
		} else {
			keep = append(keep, w)
		}
	}
	b.waiting = keep
}

// register runs on the home node: it queues the waiter, or wakes it on the
// spot when its round was already released.
func (b *Barrier) register(w barWaiter) {
	if w.ep <= b.released {
		home := b.k.pr.EngineForNode(b.homeNode)
		b.k.pr.Net().Send(b.homeNode, w.node, home.Now()+barrierHopLatency, w.wake)
		return
	}
	b.waiting = append(b.waiting, w)
}

// Wait blocks until n threads have arrived. The arrival count is monotonic
// (never reset), so the i-th overall arrival belongs to round i/n; each
// thread tracks its own round in its epoch map.
func (b *Barrier) Wait(c *Ctx) {
	ep := c.T.barEpoch[b] + 1
	c.T.barEpoch[b] = ep
	old := c.Amo(b.countAddr, 8, riscv.AmoAdd, 1)
	pr := b.k.pr
	src := c.T.Node()
	if old+1 == uint64(b.n)*ep {
		// Last arriver of this round: post the release to the home node
		// and continue without blocking.
		pr.Net().Send(src, b.homeNode, c.P.Now()+barrierHopLatency, func() { b.release(ep) })
		return
	}
	w := barWaiter{ep: ep, node: src, wake: c.P.Suspend()}
	pr.Net().Send(src, b.homeNode, c.P.Now()+barrierHopLatency, func() { b.register(w) })
	c.P.Park()
}

// SetRunner replaces the engine-driving step Join uses (by default
// Prototype.Run, which drains the queue in one call). The campaign layer
// installs a chunked runner here so a job can honor wall-clock timeouts and
// cancellation between event slices; the replacement must only return once
// the event queue is empty, exactly like Prototype.Run.
func (k *Kernel) SetRunner(run func() sim.Time) { k.runner = run }

// Join runs the simulation until every spawned thread finished.
func (k *Kernel) Join() sim.Time {
	if k.runner != nil {
		k.runner()
	} else {
		k.pr.Run()
	}
	for _, t := range k.threads {
		if !t.Done {
			// Threads still parked with no pending events would be a deadlock.
			panic("kernel: Join: threads blocked with empty event queue")
		}
	}
	return k.pr.Now()
}
