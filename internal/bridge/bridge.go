// Package bridge implements SMAPPIC's inter-node bridge (paper §3.1,
// Fig. 4): the unit that makes large-scale multi-node prototypes possible by
// encapsulating NoC traffic into AXI4 write requests. Nodes on the same FPGA
// are connected through the AXI4 crossbar; nodes on different FPGAs through
// the Hard Shell's AXI4-PCIe transducer — the bridge itself is agnostic, it
// just issues AXI against the address its route table gives it.
//
// Encapsulation follows the paper: the aw channel (request address) carries
// the transfer info — destination node ID, source node ID and flit valid
// bits — and the w channel carries three NoC flits per write. Packets longer
// than three flits are sent as consecutive writes. To guarantee freedom from
// deadlock the NoCs are credit-flow-controlled across the bridge: the
// sending side consumes credits per flit and periodically issues an AXI4
// read to the receiving side, which answers with the running total of flits
// it has freed from that sender. The sender takes the difference from the
// last total it saw, so a lost answer costs one poll, never credits.
package bridge

import (
	"encoding/binary"
	"fmt"

	"smappic/internal/axi"
	"smappic/internal/ckpt"
	"smappic/internal/fault"
	"smappic/internal/noc"
	"smappic/internal/sim"
)

// ChunkFlits is the number of NoC flits carried per AXI4 write (w channel).
const ChunkFlits = 3

// creditReadFailLimit bounds consecutive failed credit reads toward one
// destination before the bridge declares it wedged and stops polling, so the
// run drains and the drain's stall check reports it.
const creditReadFailLimit = 4

// Envelope is an inter-node NoC packet in flight between bridges. The
// platform's transport wraps coherence/interrupt messages in one.
type Envelope struct {
	SrcNode int
	DstNode int
	// DstPort/DstTile address the packet within the destination node's
	// mesh; the zero DstPort is a tile destination.
	DstPort noc.Port
	DstTile int
	Class   noc.Class
	Flits   int
	Payload any
}

// processDelay is the encapsulation/decapsulation latency per side in
// cycles: the F1 deployment's light bridge pipeline.
const processDelay sim.Time = 5

// Params configure the bridge.
type Params struct {
	CreditsPerDst int // flit credits per destination node
	// ExtraLatency models a slower inter-node link (paper §3.5) with a
	// shaper on the outbound path; zero leaves the link unshaped.
	ExtraLatency sim.Time
}

// DefaultParams matches the F1 deployment: enough credits to cover the PCIe
// round trip at full rate.
func DefaultParams() Params {
	return Params{CreditsPerDst: 24 * ChunkFlits}
}

// peer is one bridge's state toward one other node: the send side's credit
// bookkeeping for traffic to it and the receive side's for traffic from it.
type peer struct {
	credits    int       // send credits left
	sendq      []stalled // packets stalled on credits
	creditRead bool      // a credit-return read is outstanding
	returned   uint64    // the receiver's last freed total seen
	crFails    int       // consecutive failed credit reads
	wedged     bool      // declared unreachable after creditReadFailLimit
	freedTotal uint64    // receive side: cumulative flits freed

	// The credit-return read toward this peer: at most one is
	// outstanding, so one transfer serves every read.
	creditTxn axi.Txn
}

// Bridge is one node's inter-node bridge.
type Bridge struct {
	eng    *sim.Engine
	mesh   *noc.Mesh
	node   int
	p      Params
	stats  *sim.Stats
	name   string
	out    axi.Target
	addrOf func(dstNode int) axi.Addr

	peers []peer // indexed by node id, every node of the platform

	site   *fault.Site // receive-side fault site ("<name>"), nil when clean
	tracer *sim.Tracer

	hCreditWait *sim.Histogram // cycles spent queued waiting for credits
	gSendq      *sim.Gauge     // total packets stalled on credits
	nStalled    int

	// Pre-resolved counters (the conditionally hit ones list themselves
	// only once touched) and bound callbacks, so neither the per-packet
	// path nor the stall path builds strings or captures closures.
	cTxPackets       sim.LazyCounter
	cTxFlits         sim.LazyCounter
	cRxPackets       sim.LazyCounter
	cRxFlits         sim.LazyCounter
	cAXIErrors       sim.LazyCounter
	cTxLost          sim.LazyCounter
	cCreditStall     sim.LazyCounter
	cCreditReads     sim.LazyCounter
	cCreditReclaimed sim.LazyCounter
	cCreditLoss      sim.LazyCounter
	cDstWedged       sim.LazyCounter
	trySendFn        func(any)           // arg is the *Envelope
	rxFn             func(any)           // arg is the *Envelope
	fetchFn          func(any)           // arg is the destination node (int)
	creditRespFn     func(axi.Resp)      // credit read completion; ID names the peer
	chunks           sim.FreeList[chunk] // recycled chunk records
}

// chunk is one encapsulation write in flight: the transfer the bridge issues
// and what its completion needs, copied at issue so the completion reads
// nothing but its record. Its completion callback is bound once per record. Records are taken and
// released on the bridge's engine: a write is answered at the bridge's own
// node.
type chunk struct {
	txn    axi.Txn
	dst    int // destination node
	flits  int // the packet's flits, reclaimed if the final chunk fails
	final  bool
	respFn func(axi.Resp)
}

// chunkData backs the w channel of every encapsulation chunk. The payload
// bytes are never inspected (the envelope rides on the final chunk's User
// field), so all bridges share one read-only buffer instead of allocating
// 24 bytes per chunk.
var chunkData [ChunkFlits * 8]byte

func (b *Bridge) newChunk() *chunk {
	c := b.chunks.Get()
	if c.respFn == nil {
		c.respFn = func(r axi.Resp) { b.chunkDone(c, r) }
	}
	return c
}

// stalled is one packet queued on credit exhaustion, with the cycle it
// stalled at for wait-time accounting.
type stalled struct {
	env *Envelope
	at  sim.Time
}

// New creates the bridge of node, one of nodes in the platform, and
// registers it at the mesh's bridge port. Every peer starts with full send
// credits.
func New(eng *sim.Engine, mesh *noc.Mesh, node, nodes int, p Params, stats *sim.Stats, name string) *Bridge {
	b := &Bridge{
		eng: eng, mesh: mesh, node: node, p: p, stats: stats, name: name,
		peers: make([]peer, nodes),
	}
	for i := range b.peers {
		b.peers[i].credits = p.CreditsPerDst
	}
	b.hCreditWait = stats.Histogram(name + ".credit_wait")
	b.gSendq = stats.Gauge(name + ".sendq")
	b.cTxPackets = stats.LazyCounter(name + ".tx_packets")
	b.cTxFlits = stats.LazyCounter(name + ".tx_flits")
	b.cRxPackets = stats.LazyCounter(name + ".rx_packets")
	b.cRxFlits = stats.LazyCounter(name + ".rx_flits")
	b.cAXIErrors = stats.LazyCounter(name + ".axi_errors")
	b.cTxLost = stats.LazyCounter(name + ".tx_lost")
	b.cCreditStall = stats.LazyCounter(name + ".credit_stall")
	b.cCreditReads = stats.LazyCounter(name + ".credit_reads")
	b.cCreditReclaimed = stats.LazyCounter(name + ".credit_reclaimed")
	b.cCreditLoss = stats.LazyCounter(name + ".credit_loss")
	b.cDstWedged = stats.LazyCounter(name + ".dst_wedged")
	b.trySendFn = func(env any) { b.trySend(env.(*Envelope)) }
	b.rxFn = func(env any) { b.rx(env.(*Envelope)) }
	b.fetchFn = func(dst any) { b.fetchCredits(dst.(int)) }
	b.creditRespFn = b.creditsAnswered
	mesh.AttachBridge(b.handleMeshPacket)
	return b
}

// SetInjector resolves this bridge's receive-side fault site (named after the
// bridge itself, e.g. "node1.bridge"). A triggered drop there loses one
// credit-return update; the sender's next poll reads the total it missed.
// Must be called before traffic; nil-safe.
func (b *Bridge) SetInjector(inj *fault.Injector) { b.site = inj.Site(b.name, b.eng) }

// SetTracer installs the trace ring of the bridge's node; tx/rx instants
// appear on the bridge's own track ("<node>.bridge") in exported timelines.
func (b *Bridge) SetTracer(t *sim.Tracer) { b.tracer = t }

// ConnectOut wires the bridge's outbound AXI path: out is the crossbar or
// shell port, addrOf maps a destination node to the AXI address of its
// bridge window. A shaper is inserted when Params.ExtraLatency asks for one.
func (b *Bridge) ConnectOut(out axi.Target, addrOf func(dstNode int) axi.Addr) {
	if b.p.ExtraLatency > 0 {
		out = axi.NewShaper(b.eng, out, b.p.ExtraLatency, b.stats, b.name+".shaper")
	}
	b.out = out
	b.addrOf = addrOf
}

// handleMeshPacket receives a NoC packet routed to the bridge port
// (northbound out of tile 0) and encapsulates it.
func (b *Bridge) handleMeshPacket(pkt *noc.Packet) {
	env, ok := pkt.Payload.(*Envelope)
	if !ok {
		panic(fmt.Sprintf("bridge: %s: non-envelope payload %T at bridge port", b.name, pkt.Payload))
	}
	b.eng.ScheduleArg(processDelay, b.trySendFn, env)
}

// trySend transmits env if credits allow, otherwise queues it and arranges
// a credit-return read.
func (b *Bridge) trySend(env *Envelope) {
	if b.out == nil {
		panic(fmt.Sprintf("bridge: %s: not connected", b.name))
	}
	dst := env.DstNode
	pe := &b.peers[dst]
	if len(pe.sendq) > 0 || pe.credits < env.Flits {
		// Preserve order behind already-stalled packets.
		pe.sendq = append(pe.sendq, stalled{env: env, at: b.eng.Now()})
		b.nStalled++
		b.gSendq.Set(int64(b.nStalled))
		b.cCreditStall.Inc()
		b.fetchCredits(dst)
		return
	}
	pe.credits -= env.Flits
	b.transmit(env)
}

// transmit issues ceil(flits/3) AXI writes; the last carries the envelope.
// A failed final chunk means the packet never reaches the remote bridge: its
// flits can never be freed there, so the sender reclaims the credits it
// charged and counts the loss instead of leaking them.
func (b *Bridge) transmit(env *Envelope) {
	chunks := (env.Flits + ChunkFlits - 1) / ChunkFlits
	addr := b.addrOf(env.DstNode) |
		axi.Addr(uint64(b.node)<<8) | // source node ID in the address
		axi.Addr(uint64(env.Class)<<4)
	b.cTxPackets.Inc()
	b.cTxFlits.Add(uint64(env.Flits))
	b.tracer.Instant(b.name, sim.CatBridge, "tx")
	for i := 0; i < chunks; i++ {
		c := b.newChunk()
		c.txn = axi.Txn{Write: true, Addr: addr, Data: chunkData[:]}
		c.dst, c.flits, c.final = env.DstNode, env.Flits, i == chunks-1
		if c.final {
			c.txn.User = env
		}
		b.out.Do(&c.txn, c.respFn)
	}
}

// chunkDone completes one chunk write and releases its record. A lost
// payload chunk is only counted: the final chunk, which carries the
// envelope, decides the packet's fate.
func (b *Bridge) chunkDone(c *chunk, r axi.Resp) {
	dst, flits, final := c.dst, c.flits, c.final
	c.txn, c.dst, c.flits, c.final = axi.Txn{}, 0, 0, false
	b.chunks.Put(c)
	if r.OK {
		return
	}
	b.cAXIErrors.Inc()
	if !final {
		return
	}
	b.cTxLost.Inc()
	b.cCreditReclaimed.Add(uint64(flits))
	b.peers[dst].credits += flits
	b.drain(dst)
}

// fetchCredits issues the credit-return AXI read (ar channel) unless one is
// already outstanding toward dst. The answer is the receiver's running total
// of flits freed from this node; the credits are its growth since the last
// total seen, clamped to the pool. An answer without a total (a lost update)
// adds nothing, and the next poll reads what it missed. A failed read retries
// after a few bridge delays; creditReadFailLimit consecutive failures declare
// dst wedged and stop polling so the run drains into a stall diagnosis
// instead of spinning the event queue forever.
func (b *Bridge) fetchCredits(dst int) {
	pe := &b.peers[dst]
	if pe.creditRead || pe.wedged {
		return
	}
	pe.creditRead = true
	b.cCreditReads.Inc()
	// The read is tagged with its destination, so one bound completion
	// serves every peer.
	pe.creditTxn = axi.Txn{Addr: b.addrOf(dst) | axi.Addr(uint64(b.node)<<8), Len: 8, ID: axi.ID(dst)}
	b.out.Do(&pe.creditTxn, b.creditRespFn)
}

// creditsAnswered completes the credit-return read toward node r.ID.
func (b *Bridge) creditsAnswered(r axi.Resp) {
	dst := int(r.ID)
	pe := &b.peers[dst]
	pe.creditRead = false
	if !r.OK {
		b.cAXIErrors.Inc()
		pe.crFails++
		if pe.crFails >= creditReadFailLimit {
			pe.wedged = true
			b.cDstWedged.Inc()
			return
		}
		b.eng.ScheduleArg(processDelay*4, b.fetchFn, dst)
		return
	}
	pe.crFails = 0
	if len(r.Data) == 8 {
		total := binary.LittleEndian.Uint64(r.Data)
		if total > pe.returned {
			pe.credits = min(pe.credits+int(total-pe.returned), b.p.CreditsPerDst)
		}
		pe.returned = total
	}
	b.drain(dst)
}

// drain retries queued packets after credits arrive.
func (b *Bridge) drain(dst int) {
	pe := &b.peers[dst]
	for len(pe.sendq) > 0 {
		st := pe.sendq[0]
		if pe.credits < st.env.Flits {
			// Still short: poll again. The receiver frees credits as it
			// injects, so this terminates (the wedged flag bounds the
			// pathological case of an unreachable receiver).
			b.eng.ScheduleArg(processDelay*4, b.fetchFn, dst)
			return
		}
		// Shift rather than reslice, so the queue keeps its capacity.
		n := copy(pe.sendq, pe.sendq[1:])
		pe.sendq[n] = stalled{}
		pe.sendq = pe.sendq[:n]
		b.nStalled--
		b.gSendq.Set(int64(b.nStalled))
		b.hCreditWait.Observe(uint64(b.eng.Now() - st.at))
		pe.credits -= st.env.Flits
		b.transmit(st.env)
	}
}

// CaptureState records the bridge's credit bookkeeping, one entry per peer
// node that has left its initial state (full credits, nothing returned or
// freed), in node order. The send queue and outstanding credit reads must be
// idle (quiescence check): a stalled packet is an in-flight NoC transfer and
// cannot be captured at the bridge layer. Nothing else is in flight: the
// bridge schedules events only while a packet or a credit read is.
func (b *Bridge) CaptureState() (ckpt.BridgeState, error) {
	if b.nStalled != 0 {
		return ckpt.BridgeState{}, fmt.Errorf("bridge: %s has %d packets stalled on credits; not at a quiescent safepoint", b.name, b.nStalled)
	}
	var st ckpt.BridgeState
	for d := range b.peers {
		pe := &b.peers[d]
		if pe.creditRead {
			return ckpt.BridgeState{}, fmt.Errorf("bridge: %s has an outstanding credit read toward node %d; not at a quiescent safepoint", b.name, d)
		}
		row := ckpt.BridgeDstState{
			Dst:        d,
			Credits:    pe.credits,
			Returned:   pe.returned,
			FreedTotal: pe.freedTotal,
			CrFails:    pe.crFails,
			Wedged:     pe.wedged,
		}
		if row != (ckpt.BridgeDstState{Dst: d, Credits: b.p.CreditsPerDst}) {
			st.Dsts = append(st.Dsts, row)
		}
	}
	return st, nil
}

// RestoreState overlays captured credit bookkeeping onto a fresh bridge;
// a peer the snapshot does not list keeps its initial state.
func (b *Bridge) RestoreState(st ckpt.BridgeState) error {
	for _, d := range st.Dsts {
		if d.Dst < 0 || d.Dst >= len(b.peers) {
			return &ckpt.CorruptError{Reason: fmt.Sprintf("bridge %s: peer node %d out of range", b.name, d.Dst)}
		}
		pe := &b.peers[d.Dst]
		pe.credits = d.Credits
		pe.returned = d.Returned
		pe.freedTotal = d.FreedTotal
		pe.crFails = d.CrFails
		pe.wedged = d.Wedged
	}
	return nil
}

// Inbound returns the AXI target of this bridge's receive side, to be
// mapped into the node's inbound address decode.
func (b *Bridge) Inbound() axi.Target { return (*inbound)(b) }

type inbound Bridge

// Do receives a transfer from a peer bridge. A write is an encapsulation
// chunk: only the final chunk of a packet carries the envelope; earlier
// chunks have paid their bus time already. A read asks for credits back (see
// returnCredits). The transfer is read before it is acknowledged: done may
// recycle it.
func (in *inbound) Do(t *axi.Txn, done func(axi.Resp)) {
	b := (*Bridge)(in)
	if !t.Write {
		b.returnCredits(t, done)
		return
	}
	env, _ := t.User.(*Envelope)
	done(axi.Resp{ID: t.ID, OK: true})
	if env == nil {
		return
	}
	b.eng.ScheduleArg(processDelay, b.rxFn, env)
}

// rx decapsulates a received packet and injects it into the local mesh.
func (b *Bridge) rx(env *Envelope) {
	b.cRxPackets.Inc()
	b.cRxFlits.Add(uint64(env.Flits))
	b.tracer.Instant(b.name, sim.CatBridge, "rx")
	// Inject into the local mesh toward the destination tile; the buffer
	// slot is freed at injection, returning credits to the sender on its
	// next credit read.
	b.peers[env.SrcNode].freedTotal += uint64(env.Flits)
	b.mesh.Send(&noc.Packet{
		Class:   env.Class,
		Src:     noc.Dest{Port: noc.PortBridge},
		Dst:     noc.Dest{Port: env.DstPort, Tile: env.DstTile},
		Flits:   env.Flits,
		Payload: env.Payload,
	})
}

// returnCredits answers a credit-return read with the running total of flits
// freed from the source as its 8 bytes of read data. Answering does not
// change the total, so a read asked twice, or answered and lost, is harmless.
// The answer is a fresh slice: on a faulted link a retried read can overlap
// the one it replaces, so a buffer reused per peer could change under an
// answer still on its way back.
//
// The bridge's fault site models loss of the credit-return update itself: a
// triggered drop or corruption answers without a total and counts one lost
// update; the source's next poll reads the total it missed.
func (b *Bridge) returnCredits(t *axi.Txn, done func(axi.Resp)) {
	src := int(uint64(t.Addr) >> 8 & 0xFF)
	if src >= len(b.peers) {
		done(axi.Resp{ID: t.ID, OK: false}) // no such node to owe credits to
		return
	}
	if fate := b.site.Transfer(); fate.Drop || fate.Corrupt {
		b.cCreditLoss.Inc()
		done(axi.Resp{ID: t.ID, OK: true})
		return
	}
	total := make([]byte, 8)
	binary.LittleEndian.PutUint64(total, b.peers[src].freedTotal)
	done(axi.Resp{ID: t.ID, Data: total, OK: true})
}
