package core

import (
	"sync"

	"smappic/internal/axi"
	"smappic/internal/pcie"
	"smappic/internal/sim"
)

// icLatency is the intra-FPGA interconnect traversal latency in cycles: the
// crossing every hop inside the custom logic pays (bridge slot to bridge
// slot, shell to bridge slot). It replaces the old per-FPGA crossbar's
// traversal latency — but as a CrossNet send instead of a same-engine
// forward, so co-located nodes become shard boundaries and the per-node
// sharded engine can use it as its inner lookahead. Every mode routes these
// hops the same way (the serial reference and per-FPGA shards included),
// which is what keeps results granularity-invariant.
const icLatency sim.Time = 2

// icBeats converts a transfer size to target-port beats (one beat per cycle
// on the 512-bit port), minimum one.
func icBeats(n int) sim.Time {
	beats := sim.Time((n + axi.BeatBytes - 1) / axi.BeatBytes)
	if beats == 0 {
		beats = 1
	}
	return beats
}

// icPort is the destination side of one interconnect window: the
// arbitration point serializing beats onto one bridge's inbound port. It is
// owned by the destination node's engine — arbitration state is only
// touched from delivered events, so per-node shards need no locking.
type icPort struct {
	node   int // the node whose bridge sits behind this port
	eng    *sim.Engine
	target axi.Target
	busy   sim.Time
	writes sim.LazyCounter
	reads  sim.LazyCounter
}

// arbitrate reserves beats on the port and runs invoke when the transfer
// wins the port, exactly like the old crossbar's per-target serialization
// (start = max(arrival, busy); busy = start + beats).
func (pt *icPort) arbitrate(beats sim.Time, invoke func()) {
	now := pt.eng.Now()
	start := now
	if pt.busy > start {
		start = pt.busy
	}
	pt.busy = start + beats
	if start > now {
		pt.eng.Schedule(start-now, invoke)
		return
	}
	invoke()
}

// icMaster is one node's master port onto its FPGA's interconnect: addresses
// below the PCIe aperture decode to a co-located bridge window and cross the
// interconnect (a CrossNet send at icLatency); addresses inside the
// aperture leave through the FPGA's shell, hopping to the shell-owning
// slot-0 node first when the master lives elsewhere. The shell's inbound
// custom-logic port is the slot-0 node's icMaster, so PCIe-delivered
// transactions join the same arbitration as local ones.
type icMaster struct {
	p    *Prototype
	node int // source endpoint
	eng  *sim.Engine
}

// decode resolves a CL-local address to the co-located bridge port behind
// it, or nil when unmapped.
func (m *icMaster) decode(addr axi.Addr) *icPort {
	base := bridgeWindow(0)
	if addr < base {
		return nil
	}
	b := m.p.Cfg.NodesPerFPGA
	slot := int(uint64(addr-base) / bridgeWindowSize)
	if slot >= b {
		return nil
	}
	return m.p.icPorts[m.node/b*b+slot]
}

// outNode returns the slot-0 node of the master's FPGA — the node whose
// engine owns the FPGA's shell.
func (m *icMaster) outNode() int {
	b := m.p.Cfg.NodesPerFPGA
	return m.node / b * b
}

// crossing is one transfer's passage across the interconnect, pooled: the
// copy of the transfer the crossing owns, the source's completion and the
// response on its way back, with the stage callbacks bound once per record.
// The crossing owns a copy because t may point into a pooled record (a
// bridge chunk, a PCIe exchange's rewritten transfer) that its owner
// recycles at a later cycle of the same window — which another engine may
// execute concurrently. Within one engine sim order protects the pointer;
// across engines only a value handed off at the Send boundary is safe.
//
// A record is taken on the source's engine and released on whichever
// engine completes it (the far node's for a posted write, the source's for
// a response), possibly while another prototype runs in the same process,
// so the pool is a sync.Pool. It is zeroed and released exactly once, before
// the completion it delivers, which may issue the next transfer.
type crossing struct {
	m    *icMaster // the master the transfer entered through
	pt   *icPort   // destination port; nil for a hop to the shell
	far  int       // the node the transfer crosses to
	txn  axi.Txn
	done func(axi.Resp)
	resp axi.Resp

	arriveFn func()         // at pt: count the transfer and arbitrate
	invokeFn func()         // the transfer won pt: hand it to the target
	ackFn    func(axi.Resp) // a posted write's answer: nobody waits
	shellFn  func()         // at the shell's node: issue on the shell
	replyFn  func(axi.Resp) // a response at the far node: cross back
	returnFn func()         // at the source: complete
}

var crossings sync.Pool

// bindCrossing makes a record and binds its callbacks.
func bindCrossing() *crossing {
	c := &crossing{}
	c.arriveFn = func() {
		count := &c.pt.reads
		if c.txn.Write {
			count = &c.pt.writes
		}
		count.Inc()
		c.pt.arbitrate(icBeats(c.txn.Size()), c.invokeFn)
	}
	c.invokeFn = func() {
		if c.txn.Write {
			c.pt.target.Do(&c.txn, c.ackFn)
			return
		}
		c.pt.target.Do(&c.txn, c.replyFn)
	}
	c.ackFn = func(axi.Resp) { c.release() }
	c.shellFn = func() {
		c.m.p.Shells[c.m.node/c.m.p.Cfg.NodesPerFPGA].Outbound().Do(&c.txn, c.replyFn)
	}
	c.replyFn = func(r axi.Resp) {
		c.resp = r
		p := c.m.p
		p.Group.Send(c.far, c.m.node, p.EngineForNode(c.far).Now()+icLatency, c.returnFn)
	}
	c.returnFn = func() {
		done, resp := c.done, c.resp
		c.release()
		done(resp)
	}
	return c
}

// newCrossing takes a record for t entering through m toward node far.
func newCrossing(m *icMaster, far int, t *axi.Txn, done func(axi.Resp)) *crossing {
	c, _ := crossings.Get().(*crossing)
	if c == nil {
		c = bindCrossing()
	}
	c.m, c.far, c.txn, c.done = m, far, *t, done
	return c
}

func (c *crossing) release() {
	c.m, c.pt, c.far = nil, nil, 0
	c.txn, c.done, c.resp = axi.Txn{}, nil, axi.Resp{}
	crossings.Put(c)
}

// Do carries one transfer across the interconnect. A write is posted: the
// source is answered at issue, and the bridge's acknowledgement at the far
// side has no consumer. A read is a full round trip: the response pays the
// return crossing too, delivered back on the source node's engine.
func (m *icMaster) Do(t *axi.Txn, done func(axi.Resp)) {
	if t.Addr >= pcie.WindowBase {
		m.toShell(t, done)
		return
	}
	pt := m.decode(t.Addr)
	if pt == nil {
		done(axi.Resp{ID: t.ID, OK: false})
		return
	}
	c := newCrossing(m, pt.node, t, done)
	c.pt = pt
	m.p.Group.Send(m.node, pt.node, m.eng.Now()+icLatency, c.arriveFn)
	if t.Write {
		// The decode succeeded, so the source is answered now. The bridge's
		// inbound port unconditionally acknowledges writes (loss shows up as
		// a missing envelope, reconciled by credits), so no information is
		// lost by acknowledging at the source.
		done(axi.Resp{ID: t.ID, OK: true})
	}
}

// toShell routes a PCIe-aperture transfer out through the FPGA's shell. The
// shell is owned by the slot-0 node's engine; masters on other nodes cross
// the interconnect to reach it, and the response crosses back (the bridge
// reclaims credits on a failed write, so the completion must arrive in the
// source's own execution context).
func (m *icMaster) toShell(t *axi.Txn, done func(axi.Resp)) {
	out := m.outNode()
	if m.node == out {
		m.p.Shells[m.node/m.p.Cfg.NodesPerFPGA].Outbound().Do(t, done)
		return
	}
	c := newCrossing(m, out, t, done)
	m.p.Group.Send(m.node, out, m.eng.Now()+icLatency, c.shellFn)
}

var _ axi.Target = (*icMaster)(nil)

// pcieView adapts the node-endpoint CrossNet to the PCIe fabric's endpoint
// language: fabric endpoint f is FPGA f, carried by its slot-0 node (whose
// engine owns the shell and the fabric port). The host endpoint
// (pcie.HostID, negative) passes through untranslated.
type pcieView struct {
	net   sim.CrossNet
	nodes int // nodes per FPGA
}

func (v pcieView) Send(src, dst int, deliverAt sim.Time, fn func()) {
	if src >= 0 {
		src *= v.nodes
	}
	if dst >= 0 {
		dst *= v.nodes
	}
	v.net.Send(src, dst, deliverAt, fn)
}
