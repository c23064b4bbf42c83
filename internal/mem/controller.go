package mem

import (
	"fmt"

	"smappic/internal/axi"
	"smappic/internal/ckpt"
	"smappic/internal/noc"
	"smappic/internal/sim"
)

// Req is a memory request carried over the NoC from an LLC slice to the
// memory controller. Tag is the requester's MSHR handle, echoed back in the
// response (the ID-MSHR mapping of paper Fig. 5). The controller answers
// with the request's own record, sent back to Src unchanged, so a round
// trip is one record that the requester owns and may recycle.
type Req struct {
	Write bool
	Addr  uint64 // node-local DRAM offset
	Size  int    // bytes
	Src   noc.Dest
	Tag   uint64
}

// FlitsFor returns the NoC flit count for a memory message: one header flit
// plus one flit per 8 data bytes.
func FlitsFor(dataBytes int) int { return 1 + (dataBytes+7)/8 }

// engineKind selects the read or write engine.
type engineKind int

const (
	readEngine engineKind = iota
	writeEngine
)

// Controller is the NoC-AXI4 memory controller of paper §3.2 / Fig. 5.
// Requests arriving from the NoC are deserialized, buffered in the
// management module for non-blocking operation, steered into the read or
// write engine (each with a bounded AXI ID space), aligned to the 64-byte
// AXI4 boundary and issued to the DRAM channel. Responses restore the
// requester's MSHR tag and are serialized back onto the NoC.
type Controller struct {
	eng  *sim.Engine
	mesh *noc.Mesh
	name string
	dram axi.Target

	// DeserializeDelay models the NoC deserializer + management module.
	DeserializeDelay sim.Time
	// IDsPerEngine bounds in-flight AXI transactions per engine.
	IDsPerEngine int

	inflight [2]int
	queue    [2][]queuedReq
	nextID   axi.ID

	gInflight [2]*sim.Gauge  // read/write engine occupancy
	gQueue    [2]*sim.Gauge  // requests waiting for a free AXI ID
	hQWait    *sim.Histogram // cycles spent in the management queue
	cErrors   *sim.Counter   // DRAM responses with OK:false (e.g. ECC fatal)
	cQueued   sim.LazyCounter
	cWrites   sim.LazyCounter
	cReads    sim.LazyCounter
	enqueueFn func(any) // bound once; arg is the *Req
	issues    sim.FreeList[issueRec]
}

// issueRec is one request in an AXI engine: the transfer the DRAM serves and
// its completion, bound once per record. The record is recycled when the
// DRAM answers, which the axi.Target rule makes safe: the target reads
// nothing of the transfer after calling done.
type issueRec struct {
	k    engineKind
	req  *Req
	txn  axi.Txn
	done func(axi.Resp)
}

// zeroData backs the write engine's AXI beats. The protocol path is
// timing-only (functional data moves through the backing store), so every
// write carries zeros; sharing one read-only buffer avoids a 64-byte
// allocation per writeback.
var zeroData [4096]byte

// queuedReq is a request waiting for a free engine ID, with its enqueue
// time for wait accounting.
type queuedReq struct {
	req *Req
	at  sim.Time
}

// NewController creates a controller that replies through mesh and issues
// to dram (typically a *DRAM, possibly wrapped in an axi.Shaper).
func NewController(eng *sim.Engine, mesh *noc.Mesh, name string, dram axi.Target, stats *sim.Stats) *Controller {
	c := &Controller{
		eng: eng, mesh: mesh, name: name, dram: dram,
		DeserializeDelay: 4,
		IDsPerEngine:     16,
	}
	c.gInflight[readEngine] = stats.Gauge(name + ".rd_inflight")
	c.gInflight[writeEngine] = stats.Gauge(name + ".wr_inflight")
	c.gQueue[readEngine] = stats.Gauge(name + ".rd_queue")
	c.gQueue[writeEngine] = stats.Gauge(name + ".wr_queue")
	c.hQWait = stats.Histogram(name + ".queue_wait")
	c.cErrors = stats.Counter(name + ".axi_errors")
	c.cQueued = stats.LazyCounter(name + ".queued")
	c.cWrites = stats.LazyCounter(name + ".write_reqs")
	c.cReads = stats.LazyCounter(name + ".read_reqs")
	c.enqueueFn = func(req any) { c.enqueue(req.(*Req)) }
	return c
}

// CaptureState records the controller's persistent state. Only the
// monotonic AXI ID counter survives a quiescent safepoint: the engines and
// management queue are empty by definition (checked, since a non-quiescent
// capture would silently drop requests).
func (c *Controller) CaptureState() (ckpt.MemCtlState, error) {
	if c.inflight[readEngine] != 0 || c.inflight[writeEngine] != 0 ||
		len(c.queue[readEngine]) != 0 || len(c.queue[writeEngine]) != 0 {
		return ckpt.MemCtlState{}, fmt.Errorf("mem: %s has in-flight requests; not at a quiescent safepoint", c.name)
	}
	return ckpt.MemCtlState{NextID: uint64(c.nextID)}, nil
}

// RestoreState applies a captured state.
func (c *Controller) RestoreState(st ckpt.MemCtlState) { c.nextID = axi.ID(st.NextID) }

// Handle accepts a memory request delivered from the NoC. It is wired to
// the chipset port demux by the platform core.
func (c *Controller) Handle(pkt *noc.Packet) {
	req, ok := pkt.Payload.(*Req)
	if !ok {
		panic(fmt.Sprintf("mem: %s: unexpected payload %T", c.name, pkt.Payload))
	}
	c.eng.ScheduleArg(c.DeserializeDelay, c.enqueueFn, req)
}

func (c *Controller) enqueue(req *Req) {
	k := readEngine
	if req.Write {
		k = writeEngine
	}
	if c.inflight[k] >= c.IDsPerEngine {
		c.queue[k] = append(c.queue[k], queuedReq{req: req, at: c.eng.Now()})
		c.gQueue[k].Set(int64(len(c.queue[k])))
		c.cQueued.Inc()
		return
	}
	c.issue(k, req)
}

func (c *Controller) issue(k engineKind, req *Req) {
	c.inflight[k]++
	c.gInflight[k].Set(int64(c.inflight[k]))
	c.nextID++
	id := c.nextID
	aligned, _ := axi.Align(req.Addr)
	size := req.Size
	if size < axi.BeatBytes {
		size = axi.BeatBytes // AXI4 transfers are whole beats; narrow
		// requests select the needed bytes on return (Fig. 5).
	}
	is := c.issues.Get()
	if is.done == nil {
		is.done = func(r axi.Resp) { c.complete(is, r) }
	}
	is.k, is.req = k, req
	t := &is.txn
	*t = axi.Txn{Write: req.Write, Addr: aligned, ID: id}
	if req.Write {
		c.cWrites.Inc()
		if size <= len(zeroData) {
			t.Data = zeroData[:size]
		} else {
			t.Data = make([]byte, size)
		}
	} else {
		c.cReads.Inc()
		t.Len = size
	}
	c.dram.Do(t, is.done)
}

// complete retires an issued request when the DRAM answers it.
func (c *Controller) complete(is *issueRec, r axi.Resp) {
	k, req := is.k, is.req
	is.req, is.txn = nil, axi.Txn{}
	c.issues.Put(is)
	if !r.OK {
		// The requester's MSHR is still released and the tag echoed —
		// the NoC response format has no error channel — but the fault
		// is recorded instead of silently swallowed.
		c.cErrors.Inc()
	}
	c.inflight[k]--
	c.gInflight[k].Set(int64(c.inflight[k]))
	c.respond(req)
	if q := c.queue[k]; len(q) > 0 {
		next := q[0]
		n := copy(q, q[1:])
		q[n] = queuedReq{}
		c.queue[k] = q[:n]
		c.gQueue[k].Set(int64(len(c.queue[k])))
		c.hQWait.Observe(uint64(c.eng.Now() - next.at))
		c.issue(k, next.req)
	}
}

// respond sends the request back to its source as the response; the
// controller holds no reference to it afterwards.
func (c *Controller) respond(req *Req) {
	data := 0
	if !req.Write {
		data = req.Size
	}
	c.mesh.Send(&noc.Packet{
		Class:   noc.NoC2,
		Src:     noc.Dest{Port: noc.PortChipset},
		Dst:     req.Src,
		Flits:   FlitsFor(data),
		Payload: req,
	})
}
