package cache

import (
	"fmt"

	"smappic/internal/sim"
)

// mshr tracks one outstanding miss in the BPC. At most one transaction per
// line is in flight; later accesses to the same line coalesce as waiters.
// The cache recycles an MSHR, waiters' capacity included, once the grant
// has run its waiters.
type mshr struct {
	line    uint64
	op      MsgOp // GetS or GetM
	start   sim.Time
	waiters []access
}

// access is a load, store, fetch or AMO the BPC holds for later: the BPC
// lookup an L1 miss schedules, a waiter coalesced onto a pending miss, or
// an access stalled on MSHR exhaustion. A retry runs the BPC lookup again
// (a stalled access, or a store behind a pending GetS); any other access
// completes with the grant it waited for.
type access struct {
	line  uint64
	l1    *setAssoc
	done  func()
	write bool
	retry bool
}

// Private is a tile's private cache stack: L1I and L1D in front of the BYOC
// Private Cache (BPC). The TRI boundary of BYOC corresponds to this type's
// Load/Store/Fetch/Amo methods: compute units interact with the memory
// system only through them and are isolated from the coherence protocol.
type Private struct {
	eng  *sim.Engine
	id   GID
	conn Conn
	home HomeFunc
	name string

	l1i *setAssoc
	l1d *setAssoc
	bpc *setAssoc

	// The access path's records, each recycled when its access moves on.
	mshrs    []*mshr  // outstanding misses, at most maxMSHRs, unordered
	blocked  []access // accesses stalled on MSHR exhaustion
	retrying []access // blocked's spare backing, swapped in for a retry pass
	freeMSHR sim.FreeList[mshr]
	lookups  sim.FreeList[access] // BPC lookups in flight
	lookupFn func(any)            // bound once; arg is the *access
	// msgs holds this cache's message records: a request comes back as its
	// grant and is kept for the next one.
	msgs sim.FreeList[Msg]

	// Hot-path instruments, resolved at construction.
	cL1Hit    *sim.Counter
	cL1Miss   *sim.Counter
	cBpcHit   *sim.Counter
	cBpcMiss  *sim.Counter
	cUpgrade  sim.LazyCounter // silent E->M upgrades
	cCoalesce sim.LazyCounter // accesses coalesced onto a pending MSHR
	cStall    sim.LazyCounter // accesses stalled on MSHR exhaustion
	cGetS     sim.LazyCounter
	cGetM     sim.LazyCounter
	cWback    sim.LazyCounter
	cClean    sim.LazyCounter
	cInvRx    sim.LazyCounter
	cDownRx   sim.LazyCounter
	hMissLat  *sim.Histogram // BPC miss to grant, cycles
	gMSHR     *sim.Gauge     // MSHR occupancy
}

// NewPrivate builds a tile's private cache stack.
func NewPrivate(eng *sim.Engine, id GID, p Params, conn Conn, home HomeFunc, stats *sim.Stats, name string) *Private {
	c := &Private{
		eng: eng, id: id, conn: conn, home: home, name: name,
		l1i:   newSetAssoc(p.L1ISizeBytes),
		l1d:   newSetAssoc(p.L1DSizeBytes),
		bpc:   newSetAssoc(p.BPCSizeBytes),
		mshrs: make([]*mshr, 0, maxMSHRs),
	}
	c.lookupFn = func(v any) {
		a := v.(*access)
		w := *a
		*a = access{}
		c.lookups.Put(a)
		c.bpcAccess(w.line, w.write, w.l1, w.done)
	}
	c.cL1Hit = stats.Counter(name + ".l1_hit")
	c.cL1Miss = stats.Counter(name + ".l1_miss")
	c.cBpcHit = stats.Counter(name + ".bpc_hit")
	c.cBpcMiss = stats.Counter(name + ".bpc_miss")
	c.hMissLat = stats.Histogram(name + ".miss_latency")
	c.gMSHR = stats.Gauge(name + ".mshr_occ")
	c.cUpgrade = stats.LazyCounter(name + ".bpc_upgrade_silent")
	c.cCoalesce = stats.LazyCounter(name + ".mshr_coalesce")
	c.cStall = stats.LazyCounter(name + ".mshr_stall")
	c.cGetS = stats.LazyCounter(name + ".GetS")
	c.cGetM = stats.LazyCounter(name + ".GetM")
	c.cWback = stats.LazyCounter(name + ".writeback")
	c.cClean = stats.LazyCounter(name + ".evict_clean")
	c.cInvRx = stats.LazyCounter(name + ".inv_rx")
	c.cDownRx = stats.LazyCounter(name + ".downgrade_rx")
	return c
}

// Load performs a data read of any size within one line. done fires when
// the value may be consumed.
func (c *Private) Load(addr uint64, done func()) { c.access(addr, false, c.l1d, done) }

// Store performs a data write within one line. done fires at the point the
// store is globally ordered (M permission held).
func (c *Private) Store(addr uint64, done func()) { c.access(addr, true, c.l1d, done) }

// Fetch performs an instruction read.
func (c *Private) Fetch(addr uint64, done func()) { c.access(addr, false, c.l1i, done) }

// Amo performs an atomic read-modify-write: it acquires M permission like a
// store; the caller applies the functional operation inside done, which runs
// while no other cache holds the line.
func (c *Private) Amo(addr uint64, done func()) { c.access(addr, true, c.l1d, done) }

func (c *Private) access(addr uint64, write bool, l1 *setAssoc, done func()) {
	line := LineOf(addr)
	// L1 hit: the L1s are inclusive in the BPC and mirror its permissions.
	if w := l1.lookup(line); w != nil {
		if !write || w.st == stModified {
			c.cL1Hit.Inc()
			c.eng.Schedule(l1Latency, done)
			return
		}
	}
	c.cL1Miss.Inc()
	// BPC lookup after the L1 latency.
	a := c.lookups.Get()
	*a = access{line: line, l1: l1, done: done, write: write}
	c.eng.ScheduleArg(l1Latency+bpcLatency, c.lookupFn, a)
}

func (c *Private) bpcAccess(line uint64, write bool, l1 *setAssoc, done func()) {
	w := c.bpc.lookup(line)
	if w != nil {
		switch {
		case !write:
			c.cBpcHit.Inc()
			c.fillL1(l1, line, w.st)
			done()
			return
		case w.st == stModified:
			c.cBpcHit.Inc()
			c.fillL1(l1, line, stModified)
			done()
			return
		case w.st == stExclusive:
			// Silent E->M upgrade: the directory already records us as
			// the exclusive owner.
			c.cUpgrade.Inc()
			w.st = stModified
			w.dirty = true
			c.fillL1(l1, line, stModified)
			done()
			return
		}
		// Shared and writing: fall through to GetM.
	}
	c.cBpcMiss.Inc()
	c.miss(line, write, l1, done)
}

func (c *Private) miss(line uint64, write bool, l1 *setAssoc, done func()) {
	op := GetS
	if write {
		op = GetM
	}
	a := access{line: line, l1: l1, done: done, write: write}
	if i := c.findMSHR(line); i >= 0 {
		// Coalesce. A pending GetS cannot satisfy a store: escalate by
		// queueing the store to retry after the fill completes.
		m := c.mshrs[i]
		a.retry = write && m.op == GetS
		m.waiters = append(m.waiters, a)
		c.cCoalesce.Inc()
		return
	}
	if len(c.mshrs) >= maxMSHRs {
		c.cStall.Inc()
		a.retry = true
		c.blocked = append(c.blocked, a)
		return
	}
	m := c.freeMSHR.Get()
	m.line, m.op, m.start = line, op, c.eng.Now()
	m.waiters = append(m.waiters, a)
	c.mshrs = append(c.mshrs, m)
	c.gMSHR.Set(int64(len(c.mshrs)))
	if op == GetS {
		c.cGetS.Inc()
	} else {
		c.cGetM.Inc()
	}
	c.conn.SendProto(c.id, c.home(line), c.newMsg(op, line))
}

// findMSHR returns the index of line's MSHR in c.mshrs, or -1.
func (c *Private) findMSHR(line uint64) int {
	for i, m := range c.mshrs {
		if m.line == line {
			return i
		}
	}
	return -1
}

// newMsg fills a message record from this cache for line. Records come from
// the cache's free list, which its grants refill.
func (c *Private) newMsg(op MsgOp, line uint64) *Msg {
	m := c.msgs.Get()
	*m = Msg{Op: op, Line: line, From: c.id, Req: c.id}
	return m
}

// resume runs an access the BPC held: a retry looks the BPC up again, a
// waiter completes with the grant it coalesced onto.
func (c *Private) resume(a access) {
	if a.retry {
		c.bpcAccess(a.line, a.write, a.l1, a.done)
		return
	}
	c.fillL1(a.l1, a.line, c.grantState(a.write))
	a.done()
}

func (c *Private) grantState(write bool) state {
	if write {
		return stModified
	}
	return stShared
}

func (c *Private) fillL1(l1 *setAssoc, line uint64, st state) {
	// Never downgrade an existing L1 entry: a read waiter coalesced onto a
	// write miss would otherwise lower the fresh M fill back to S.
	if w := l1.peek(line); w != nil && w.st >= st {
		return
	}
	// L1 victims need no protocol action: the BPC is inclusive of the L1s.
	l1.insert(line, st)
}

// HandleMsg processes a protocol message addressed to this private cache.
func (c *Private) HandleMsg(msg *Msg) {
	switch msg.Op {
	case DataS, DataE, DataM:
		c.handleGrant(msg)
	case Inv:
		c.handleInv(msg)
	case Downgrade:
		c.handleDowngrade(msg)
	default:
		panic(fmt.Sprintf("cache: %s: unexpected message %v", c.name, msg.Op))
	}
}

func (c *Private) handleGrant(msg *Msg) {
	i := c.findMSHR(msg.Line)
	if i < 0 {
		panic(fmt.Sprintf("cache: %s: grant %v for line %#x with no MSHR", c.name, msg.Op, msg.Line))
	}
	m := c.mshrs[i]
	last := len(c.mshrs) - 1
	c.mshrs[i], c.mshrs[last] = c.mshrs[last], nil
	c.mshrs = c.mshrs[:last]
	c.hMissLat.Observe(uint64(c.eng.Now() - m.start))
	c.gMSHR.Set(int64(len(c.mshrs)))

	var st state
	switch msg.Op {
	case DataS:
		st = stShared
	case DataE:
		st = stExclusive
	case DataM:
		st = stModified
	}
	victim, evicted := c.bpc.insert(msg.Line, st)
	if st == stModified {
		c.bpc.peek(msg.Line).dirty = true
	}
	if evicted {
		c.evict(victim)
	}
	// The MSHR is out of c.mshrs, so a waiter may open a new one for the
	// same line; its record goes back to the free list only after the
	// waiters have run.
	for _, w := range m.waiters {
		c.resume(w)
	}
	clear(m.waiters)
	m.waiters = m.waiters[:0]
	c.freeMSHR.Put(m)
	// The grant is this cache's own request come back.
	c.msgs.Put(msg)
	// Retry accesses stalled on MSHR pressure; any that stall again queue
	// on the spare backing.
	if len(c.blocked) > 0 {
		retry := c.blocked
		c.blocked = c.retrying
		for _, r := range retry {
			c.resume(r)
		}
		clear(retry)
		c.retrying = retry[:0]
	}
}

// evict notifies the home when a line leaves the BPC. Evictions are
// fire-and-forget: functional data lives in the backing store, so a probe
// racing with the eviction can always be acked safely (see package comment).
func (c *Private) evict(v way) {
	// Keep the L1s inclusive.
	c.l1i.invalidate(v.line)
	c.l1d.invalidate(v.line)
	op := PutS
	if v.st == stModified {
		op = PutM
		c.cWback.Inc()
	} else {
		c.cClean.Inc()
	}
	// A Put has no answer to come back as, so its record is the home's to
	// drop: the one message a cache allocates once warm.
	c.conn.SendProto(c.id, c.home(v.line), c.newMsg(op, v.line))
}

// answer turns a probe into its response: the record goes back to the home
// that sent it, which keeps it for its next probe.
func (c *Private) answer(probe *Msg, op MsgOp) {
	home := probe.From
	probe.Op, probe.From = op, c.id
	c.conn.SendProto(c.id, home, probe)
}

func (c *Private) handleInv(msg *Msg) {
	c.bpc.invalidate(msg.Line)
	c.l1i.invalidate(msg.Line)
	c.l1d.invalidate(msg.Line)
	c.cInvRx.Inc()
	c.answer(msg, InvAck)
}

func (c *Private) handleDowngrade(msg *Msg) {
	if w := c.bpc.peek(msg.Line); w != nil && (w.st == stModified || w.st == stExclusive) {
		w.st = stShared
		w.dirty = false
		if l := c.l1d.peek(msg.Line); l != nil {
			l.st = stShared
		}
		if l := c.l1i.peek(msg.Line); l != nil {
			l.st = stShared
		}
	}
	c.cDownRx.Inc()
	c.answer(msg, DownAck)
}
