package cache

import (
	"cmp"
	"fmt"
	"slices"

	"smappic/internal/mem"
	"smappic/internal/noc"
	"smappic/internal/sim"
)

// NoReq marks probes that belong to no transaction (fire-and-forget
// back-invalidations); their acks are dropped instead of being counted
// toward whatever transaction happens to be live on the line.
var NoReq = GID{Node: -1, Tile: -1}

// dirState is the directory's view of a line.
type dirState uint8

const (
	dirI dirState = iota // no private copies
	dirS                 // one or more shared copies
	dirE                 // one exclusive owner (E or M in its cache)
)

// record is the home's one record of a line: the directory half (state,
// owner, sharers) and the line lock (the request holding it, its ack count
// and the requests queued behind it). The home is blocking: one transaction
// per line at a time; others queue.
type record struct {
	st    dirState
	owner GID
	// sharers is kept in (node, tile) order with no duplicates.
	// Invalidations go out in this order: the send order shapes NoC timing,
	// so it must not depend on anything but the set.
	sharers []GID

	req      *Msg   // request holding the line lock; nil when free
	needAcks int    // probe responses req still waits for
	queue    []*Msg // requests waiting for the lock, in arrival order
}

func cmpGID(a, b GID) int { return cmp.Or(cmp.Compare(a.Node, b.Node), cmp.Compare(a.Tile, b.Tile)) }

func (r *record) addSharer(g GID) {
	if i, ok := slices.BinarySearchFunc(r.sharers, g, cmpGID); !ok {
		r.sharers = slices.Insert(r.sharers, i, g)
	}
}

func (r *record) removeSharer(g GID) {
	if i, ok := slices.BinarySearchFunc(r.sharers, g, cmpGID); ok {
		r.sharers = slices.Delete(r.sharers, i, i+1)
	}
}

// Slice is one tile's LLC slice plus the directory for the lines it homes.
// It is the "home" of the coherence protocol.
type Slice struct {
	eng  *sim.Engine
	id   GID
	p    Params
	conn Conn
	name string

	tags    *setAssoc
	lines   map[uint64]*record
	memTags map[uint64]memFetch // outstanding memory fetches by tag
	nextTag uint64

	nq      int            // total requests queued behind busy lines
	gQueue  *sim.Gauge     // directory queue depth
	hMemLat *sim.Histogram // LLC miss memory fetch latency, cycles

	// Hot-path counters, resolved once at construction (lazy handles,
	// registered on first hit). Avoids a string concat + registry lookup
	// per message.
	cQueued, cHit, cMiss sim.LazyCounter
	cGetS, cGetM         sim.LazyCounter
	cPutS, cPutM         sim.LazyCounter
	cBackInval, cWB      sim.LazyCounter // eviction path
	lookupFn             func(any)       // bound once; arg is the *Msg
}

// memFetch is one outstanding memory fetch: the request to resume on the
// response plus the issue time for latency accounting.
type memFetch struct {
	msg *Msg
	at  sim.Time
}

// NewSlice builds an LLC slice.
func NewSlice(eng *sim.Engine, id GID, p Params, conn Conn, stats *sim.Stats, name string) *Slice {
	s := &Slice{
		eng: eng, id: id, p: p, conn: conn, name: name,
		tags:    newSetAssoc(p.LLCSliceSize, p.Ways),
		lines:   make(map[uint64]*record),
		memTags: make(map[uint64]memFetch),
	}
	s.gQueue = stats.Gauge(name + ".dir_queue")
	s.hMemLat = stats.Histogram(name + ".mem_latency")
	s.cQueued = stats.LazyCounter(name + ".queued")
	s.cHit = stats.LazyCounter(name + ".llc_hit")
	s.cMiss = stats.LazyCounter(name + ".llc_miss")
	s.cGetS = stats.LazyCounter(name + ".GetS")
	s.cGetM = stats.LazyCounter(name + ".GetM")
	s.cPutS = stats.LazyCounter(name + ".puts")
	s.cPutM = stats.LazyCounter(name + ".putm")
	s.cBackInval = stats.LazyCounter(name + ".back_inval")
	s.cWB = stats.LazyCounter(name + ".llc_writeback")
	s.lookupFn = func(msg any) { s.lookup(msg.(*Msg)) }
	return s
}

func (s *Slice) entry(line uint64) *record {
	r, ok := s.lines[line]
	if !ok {
		r = &record{}
		s.lines[line] = r
	}
	return r
}

// HandleMsg processes a protocol message addressed to this home slice.
func (s *Slice) HandleMsg(msg *Msg) {
	switch msg.Op {
	case GetS, GetM:
		if r := s.lines[msg.Line]; r != nil && r.req != nil {
			r.queue = append(r.queue, msg)
			s.nq++
			s.gQueue.Set(int64(s.nq))
			s.cQueued.Inc()
			return
		}
		s.begin(msg)
	case PutS:
		// Directory hygiene; does not need the line lock (a concurrent
		// transaction's probes will still be acked by the evicter).
		r := s.entry(msg.Line)
		r.removeSharer(msg.From)
		if r.st == dirE && r.owner == msg.From {
			r.st = dirI
		}
		if r.st == dirS && len(r.sharers) == 0 {
			r.st = dirI
		}
		s.cPutS.Inc()
	case PutM:
		r := s.entry(msg.Line)
		if r.st == dirE && r.owner == msg.From {
			r.st = dirI
		}
		r.removeSharer(msg.From)
		if w := s.tags.peek(msg.Line); w != nil {
			w.dirty = true
		} else {
			// Writeback to a line the LLC has since evicted: forward
			// straight to memory (timing only; data is in the backing
			// store).
			s.memWrite(msg.Line)
		}
		s.cPutM.Inc()
	case InvAck, DownAck:
		s.ack(msg)
	default:
		panic(fmt.Sprintf("cache: %s: unexpected message %v", s.name, msg.Op))
	}
}

// begin starts processing a GetS/GetM after the LLC lookup latency.
func (s *Slice) begin(msg *Msg) {
	r := s.entry(msg.Line)
	r.req, r.needAcks = msg, 0
	if msg.Op == GetS {
		s.cGetS.Inc()
	} else {
		s.cGetM.Inc()
	}
	s.eng.ScheduleArg(sim.Time(s.p.LLCLatency), s.lookupFn, msg)
}

// lookup ensures the line is resident in the LLC, fetching from memory on a
// miss, then runs the directory action.
func (s *Slice) lookup(msg *Msg) {
	if s.tags.lookup(msg.Line) != nil {
		s.cHit.Inc()
		s.direct(msg)
		return
	}
	s.cMiss.Inc()
	s.nextTag++
	tag := s.nextTag
	s.memTags[tag] = memFetch{msg: msg, at: s.eng.Now()}
	s.conn.SendMem(s.id, &mem.Req{
		Addr: msg.Line,
		Size: LineBytes,
		Src:  s.nocDest(),
		Tag:  tag,
	})
}

// nocDest is where the memory controller should send responses.
func (s *Slice) nocDest() (d noc.Dest) {
	d.Port = noc.PortTile
	d.Tile = s.id.Tile
	return d
}

// HandleMemResp resumes a transaction waiting on a memory fetch or
// acknowledges a writeback.
func (s *Slice) HandleMemResp(r *mem.Resp) {
	if r.Write {
		return // writeback acks need no action
	}
	f, ok := s.memTags[r.Tag]
	if !ok {
		panic(fmt.Sprintf("cache: %s: memory response with unknown tag %d", s.name, r.Tag))
	}
	delete(s.memTags, r.Tag)
	s.hMemLat.Observe(uint64(s.eng.Now() - f.at))
	s.fill(f.msg)
}

// fill installs a fetched line and continues the transaction.
func (s *Slice) fill(msg *Msg) {
	victim, evicted := s.tags.insert(msg.Line, stShared)
	if evicted {
		s.evictLLC(victim)
	}
	s.direct(msg)
}

// evictLLC handles an LLC victim: dirty lines write back to memory, and the
// LLC's inclusivity is restored by back-invalidating any private copies
// (fire-and-forget; see package comment).
func (s *Slice) evictLLC(v way) {
	if r, ok := s.lines[v.line]; ok {
		switch r.st {
		case dirE:
			s.conn.SendProto(s.id, r.owner, &Msg{Op: Inv, Line: v.line, From: s.id, Req: NoReq})
			s.cBackInval.Inc()
		case dirS:
			for _, g := range r.sharers {
				s.conn.SendProto(s.id, g, &Msg{Op: Inv, Line: v.line, From: s.id, Req: NoReq})
				s.cBackInval.Inc()
			}
		}
		if r.req == nil {
			delete(s.lines, v.line)
		} else {
			// A request holds the line and keeps its place; the directory
			// half starts over as a deleted-and-recreated entry would.
			r.st, r.owner, r.sharers = dirI, GID{}, r.sharers[:0]
		}
	}
	if v.dirty {
		s.memWrite(v.line)
		s.cWB.Inc()
	}
}

// A back-invalidation's InvAck may arrive outside any transaction; ack
// handling tolerates that (the r.req == nil case in ack).

func (s *Slice) memWrite(line uint64) {
	s.nextTag++
	s.conn.SendMem(s.id, &mem.Req{
		Write: true,
		Addr:  line,
		Size:  LineBytes,
		Src:   s.nocDest(),
		Tag:   s.nextTag,
	})
}

// direct performs the directory action for a resident line.
func (s *Slice) direct(msg *Msg) {
	r := s.lines[msg.Line]
	switch msg.Op {
	case GetS:
		switch r.st {
		case dirI:
			// No other copies: grant exclusive (MESI E optimization).
			r.st = dirE
			r.owner = msg.Req
			s.grant(msg, DataE)
			s.finish(msg.Line)
		case dirS:
			r.addSharer(msg.Req)
			s.grant(msg, DataS)
			s.finish(msg.Line)
		case dirE:
			if r.owner == msg.Req {
				// Requester lost the line silently? Cannot happen: BPC
				// evictions send PutS/PutM. Re-grant defensively.
				s.grant(msg, DataE)
				s.finish(msg.Line)
				return
			}
			// Demote the owner, then grant shared to both.
			r.needAcks = 1
			s.conn.SendProto(s.id, r.owner, &Msg{Op: Downgrade, Line: msg.Line, From: s.id, Req: msg.Req})
		}
	case GetM:
		switch r.st {
		case dirI:
			r.st = dirE
			r.owner = msg.Req
			s.grant(msg, DataM)
			s.finish(msg.Line)
		case dirS:
			n := 0
			for _, g := range r.sharers {
				if g == msg.Req {
					continue
				}
				s.conn.SendProto(s.id, g, &Msg{Op: Inv, Line: msg.Line, From: s.id, Req: msg.Req})
				n++
			}
			if n == 0 {
				r.st = dirE
				r.owner = msg.Req
				r.sharers = r.sharers[:0]
				s.grant(msg, DataM)
				s.finish(msg.Line)
				return
			}
			r.needAcks = n
		case dirE:
			if r.owner == msg.Req {
				s.grant(msg, DataM)
				s.finish(msg.Line)
				return
			}
			r.needAcks = 1
			s.conn.SendProto(s.id, r.owner, &Msg{Op: Inv, Line: msg.Line, From: s.id, Req: msg.Req})
		}
	}
}

// ack counts a probe response toward the current transaction and completes
// it when all probes have answered.
func (s *Slice) ack(msg *Msg) {
	if msg.Req == NoReq {
		return // response to a fire-and-forget back-invalidation
	}
	r := s.lines[msg.Line]
	if r == nil || r.req == nil || r.needAcks == 0 {
		return // stray ack (evicter answered a probe it no longer needed)
	}
	r.needAcks--
	if r.needAcks > 0 {
		return
	}
	req := r.req
	switch req.Op {
	case GetS:
		// Owner was downgraded; its data is now at the home (DownAck).
		if w := s.tags.peek(msg.Line); w != nil {
			w.dirty = true
		}
		r.st = dirS
		r.sharers = r.sharers[:0]
		r.addSharer(r.owner)
		r.addSharer(req.Req)
		s.grant(req, DataS)
	case GetM:
		r.st = dirE
		r.owner = req.Req
		r.sharers = r.sharers[:0]
		s.grant(req, DataM)
	}
	s.finish(msg.Line)
}

func (s *Slice) grant(req *Msg, op MsgOp) {
	s.conn.SendProto(s.id, req.Req, &Msg{Op: op, Line: req.Line, From: s.id, Req: req.Req})
}

// finish releases the line lock and starts the next queued transaction.
func (s *Slice) finish(line uint64) {
	r := s.lines[line]
	r.req, r.needAcks = nil, 0
	if len(r.queue) == 0 {
		return
	}
	next := r.queue[0]
	r.queue = r.queue[1:]
	s.nq--
	s.gQueue.Set(int64(s.nq))
	s.begin(next)
}
