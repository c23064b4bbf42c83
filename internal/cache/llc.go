package cache

import (
	"fmt"
	"sort"

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

// dirEntry is the directory record for one line.
type dirEntry struct {
	st      dirState
	owner   GID
	sharers map[GID]struct{}
}

func (d *dirEntry) addSharer(g GID)    { d.sharers[g] = struct{}{} }
func (d *dirEntry) removeSharer(g GID) { delete(d.sharers, g) }

// sortedSharers returns the sharer set in (node, tile) order. Invalidations
// must go out in a fixed order: Go randomizes map iteration per process, and
// the send order shapes NoC timing, so iterating the map directly makes two
// runs of the same configuration diverge.
func (d *dirEntry) sortedSharers() []GID {
	out := make([]GID, 0, len(d.sharers))
	for g := range d.sharers {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Tile < out[j].Tile
	})
	return out
}

// txn is one in-flight transaction at the home. The home is blocking: one
// transaction per line at a time; others queue.
type txn struct {
	msg      *Msg
	needAcks int
}

// Slice is one tile's LLC slice plus the directory for the lines it homes.
// It is the "home" of the coherence protocol.
type Slice struct {
	eng   *sim.Engine
	id    GID
	p     Params
	conn  Conn
	stats *sim.Stats
	name  string

	tags *setAssoc
	dir  map[uint64]*dirEntry

	busy    map[uint64]*txn
	pending map[uint64][]*Msg
	memTags map[uint64]memFetch // outstanding memory fetches by tag
	nextTag uint64

	nq      int            // total requests queued behind busy lines
	gQueue  *sim.Gauge     // directory queue depth
	hMemLat *sim.Histogram // LLC miss memory fetch latency, cycles

	// Hot-path counters, resolved once at construction (lazy handles:
	// no-ops without stats, registered on first hit). Avoids a string
	// concat + registry lookup per message.
	cQueued, cHit, cMiss sim.LazyCounter
	cGetS, cGetM         sim.LazyCounter
	cPutS, cPutM         sim.LazyCounter
	lookupFn             func(any) // bound once; arg is the *Msg
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
		eng: eng, id: id, p: p, conn: conn, stats: stats, name: name,
		tags:    newSetAssoc(p.LLCSliceSize, p.Ways),
		dir:     make(map[uint64]*dirEntry),
		busy:    make(map[uint64]*txn),
		pending: make(map[uint64][]*Msg),
		memTags: make(map[uint64]memFetch),
	}
	if stats != nil {
		s.gQueue = stats.Gauge(name + ".dir_queue")
		s.hMemLat = stats.Histogram(name + ".mem_latency")
	}
	s.cQueued = stats.LazyCounter(name + ".queued")
	s.cHit = stats.LazyCounter(name + ".llc_hit")
	s.cMiss = stats.LazyCounter(name + ".llc_miss")
	s.cGetS = stats.LazyCounter(name + ".GetS")
	s.cGetM = stats.LazyCounter(name + ".GetM")
	s.cPutS = stats.LazyCounter(name + ".puts")
	s.cPutM = stats.LazyCounter(name + ".putm")
	s.lookupFn = func(msg any) { s.lookup(msg.(*Msg)) }
	return s
}

func (s *Slice) count(what string) {
	if s.stats != nil {
		s.stats.Counter(s.name + "." + what).Inc()
	}
}

func (s *Slice) entry(line uint64) *dirEntry {
	e, ok := s.dir[line]
	if !ok {
		e = &dirEntry{sharers: make(map[GID]struct{})}
		s.dir[line] = e
	}
	return e
}

// HandleMsg processes a protocol message addressed to this home slice.
func (s *Slice) HandleMsg(msg *Msg) {
	switch msg.Op {
	case GetS, GetM:
		if _, inFlight := s.busy[msg.Line]; inFlight {
			s.pending[msg.Line] = append(s.pending[msg.Line], msg)
			s.nq++
			s.gQueue.Set(int64(s.nq))
			s.cQueued.Inc()
			return
		}
		s.begin(msg)
	case PutS:
		// Directory hygiene; does not need the line lock (a concurrent
		// transaction's probes will still be acked by the evicter).
		e := s.entry(msg.Line)
		e.removeSharer(msg.From)
		if e.st == dirE && e.owner == msg.From {
			e.st = dirI
		}
		if e.st == dirS && len(e.sharers) == 0 {
			e.st = dirI
		}
		s.cPutS.Inc()
	case PutM:
		e := s.entry(msg.Line)
		if e.st == dirE && e.owner == msg.From {
			e.st = dirI
		}
		e.removeSharer(msg.From)
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
	s.busy[msg.Line] = &txn{msg: msg}
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
	if e, ok := s.dir[v.line]; ok {
		switch e.st {
		case dirE:
			s.conn.SendProto(s.id, e.owner, &Msg{Op: Inv, Line: v.line, From: s.id, Req: NoReq})
			s.count("back_inval")
		case dirS:
			for _, g := range e.sortedSharers() {
				s.conn.SendProto(s.id, g, &Msg{Op: Inv, Line: v.line, From: s.id, Req: NoReq})
				s.count("back_inval")
			}
		}
		delete(s.dir, v.line)
	}
	if v.dirty {
		s.memWrite(v.line)
		s.count("llc_writeback")
	}
}

// A back-invalidation's InvAck may arrive outside any transaction; ack
// handling tolerates that (t == nil case in ack).

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
	e := s.entry(msg.Line)
	t := s.busy[msg.Line]
	switch msg.Op {
	case GetS:
		switch e.st {
		case dirI:
			// No other copies: grant exclusive (MESI E optimization).
			e.st = dirE
			e.owner = msg.Req
			s.grant(msg, DataE)
			s.finish(msg.Line)
		case dirS:
			e.addSharer(msg.Req)
			s.grant(msg, DataS)
			s.finish(msg.Line)
		case dirE:
			if e.owner == msg.Req {
				// Requester lost the line silently? Cannot happen: BPC
				// evictions send PutS/PutM. Re-grant defensively.
				s.grant(msg, DataE)
				s.finish(msg.Line)
				return
			}
			// Demote the owner, then grant shared to both.
			t.needAcks = 1
			s.conn.SendProto(s.id, e.owner, &Msg{Op: Downgrade, Line: msg.Line, From: s.id, Req: msg.Req})
		}
	case GetM:
		switch e.st {
		case dirI:
			e.st = dirE
			e.owner = msg.Req
			s.grant(msg, DataM)
			s.finish(msg.Line)
		case dirS:
			n := 0
			for _, g := range e.sortedSharers() {
				if g == msg.Req {
					continue
				}
				s.conn.SendProto(s.id, g, &Msg{Op: Inv, Line: msg.Line, From: s.id, Req: msg.Req})
				n++
			}
			if n == 0 {
				e.st = dirE
				e.owner = msg.Req
				e.sharers = make(map[GID]struct{})
				s.grant(msg, DataM)
				s.finish(msg.Line)
				return
			}
			t.needAcks = n
		case dirE:
			if e.owner == msg.Req {
				s.grant(msg, DataM)
				s.finish(msg.Line)
				return
			}
			t.needAcks = 1
			s.conn.SendProto(s.id, e.owner, &Msg{Op: Inv, Line: msg.Line, From: s.id, Req: msg.Req})
		}
	}
}

// ack counts a probe response toward the current transaction and completes
// it when all probes have answered.
func (s *Slice) ack(msg *Msg) {
	if msg.Req == NoReq {
		return // response to a fire-and-forget back-invalidation
	}
	t := s.busy[msg.Line]
	if t == nil || t.needAcks == 0 {
		return // stray ack (evicter answered a probe it no longer needed)
	}
	t.needAcks--
	if t.needAcks > 0 {
		return
	}
	e := s.entry(msg.Line)
	req := t.msg
	switch req.Op {
	case GetS:
		// Owner was downgraded; its data is now at the home (DownAck).
		if w := s.tags.peek(msg.Line); w != nil {
			w.dirty = true
		}
		e.st = dirS
		e.sharers = make(map[GID]struct{})
		e.addSharer(e.owner)
		e.addSharer(req.Req)
		s.grant(req, DataS)
	case GetM:
		e.st = dirE
		e.owner = req.Req
		e.sharers = make(map[GID]struct{})
		s.grant(req, DataM)
	}
	s.finish(msg.Line)
}

func (s *Slice) grant(req *Msg, op MsgOp) {
	s.conn.SendProto(s.id, req.Req, &Msg{Op: op, Line: req.Line, From: s.id, Req: req.Req})
}

// finish releases the line lock and starts the next queued transaction.
func (s *Slice) finish(line uint64) {
	delete(s.busy, line)
	q := s.pending[line]
	if len(q) == 0 {
		delete(s.pending, line)
		return
	}
	next := q[0]
	if len(q) == 1 {
		delete(s.pending, line)
	} else {
		s.pending[line] = q[1:]
	}
	s.nq--
	s.gQueue.Set(int64(s.nq))
	s.begin(next)
}
