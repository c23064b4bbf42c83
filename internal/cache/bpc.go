package cache

import (
	"fmt"

	"smappic/internal/sim"
)

// mshr tracks one outstanding miss in the BPC. At most one transaction per
// line is in flight; later accesses to the same line coalesce as waiters.
type mshr struct {
	line    uint64
	op      MsgOp // GetS or GetM
	start   sim.Time
	waiters []func()
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

	mshrs   map[uint64]*mshr
	blocked []func() // accesses stalled on MSHR exhaustion

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
		mshrs: make(map[uint64]*mshr),
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
	c.eng.Schedule(l1Latency+bpcLatency, func() {
		c.bpcAccess(line, write, l1, done)
	})
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
	if m, ok := c.mshrs[line]; ok {
		// Coalesce. A pending GetS cannot satisfy a store: escalate by
		// queueing the store to retry after the fill completes.
		if write && m.op == GetS {
			m.waiters = append(m.waiters, func() { c.bpcAccess(line, true, l1, done) })
		} else {
			m.waiters = append(m.waiters, func() {
				c.fillL1(l1, line, c.grantState(write))
				done()
			})
		}
		c.cCoalesce.Inc()
		return
	}
	if len(c.mshrs) >= maxMSHRs {
		c.cStall.Inc()
		c.blocked = append(c.blocked, func() { c.bpcAccess(line, write, l1, done) })
		return
	}
	m := &mshr{line: line, op: op, start: c.eng.Now()}
	m.waiters = append(m.waiters, func() {
		c.fillL1(l1, line, c.grantState(write))
		done()
	})
	c.mshrs[line] = m
	c.gMSHR.Set(int64(len(c.mshrs)))
	if op == GetS {
		c.cGetS.Inc()
	} else {
		c.cGetM.Inc()
	}
	c.conn.SendProto(c.id, c.home(line), &Msg{Op: op, Line: line, From: c.id, Req: c.id})
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
	m, ok := c.mshrs[msg.Line]
	if !ok {
		panic(fmt.Sprintf("cache: %s: grant %v for line %#x with no MSHR", c.name, msg.Op, msg.Line))
	}
	delete(c.mshrs, msg.Line)
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
	waiters := m.waiters
	for _, w := range waiters {
		w()
	}
	// Retry accesses stalled on MSHR pressure.
	if len(c.blocked) > 0 {
		retry := c.blocked
		c.blocked = nil
		for _, r := range retry {
			r()
		}
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
	c.conn.SendProto(c.id, c.home(v.line), &Msg{Op: op, Line: v.line, From: c.id, Req: c.id})
}

func (c *Private) handleInv(msg *Msg) {
	c.bpc.invalidate(msg.Line)
	c.l1i.invalidate(msg.Line)
	c.l1d.invalidate(msg.Line)
	c.cInvRx.Inc()
	c.conn.SendProto(c.id, msg.From, &Msg{Op: InvAck, Line: msg.Line, From: c.id, Req: msg.Req})
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
	c.conn.SendProto(c.id, msg.From, &Msg{Op: DownAck, Line: msg.Line, From: c.id, Req: msg.Req})
}
