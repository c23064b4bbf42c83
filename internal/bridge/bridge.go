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
// read to the receiving side, which answers with the number of credits to
// return.
package bridge

import (
	"fmt"
	"sort"

	"smappic/internal/axi"
	"smappic/internal/ckpt"
	"smappic/internal/fault"
	"smappic/internal/noc"
	"smappic/internal/sim"
)

// ChunkFlits is the number of NoC flits carried per AXI4 write (w channel).
const ChunkFlits = 3

// ReconcileFlag marks a credit read as a reconciliation request: the receive
// side answers with its cumulative freed-flit count instead of the increment
// since the last read. The bit sits inside the 16 MB bridge window, above the
// source-node and class fields.
const ReconcileFlag axi.Addr = 1 << 20

const (
	// reconcileInterval is the period of the credit-reconciliation watchdog
	// while packets are stalled on credits (a few PCIe round trips).
	reconcileInterval sim.Time = 2048
	// creditReadFailLimit bounds consecutive failed credit/reconcile reads
	// toward one destination before the bridge declares it wedged and stops
	// polling, leaving the stall visible to the forward-progress watchdog.
	creditReadFailLimit = 4
)

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

// Params configure the bridge.
type Params struct {
	ProcessDelay  sim.Time // encapsulation/decapsulation latency per side
	CreditsPerDst int      // flit credits per destination node
	// Shaper models a slower inter-node link (paper §3.5); zero values
	// leave the link unshaped.
	ExtraLatency  sim.Time
	BytesPerCycle int
}

// DefaultParams matches the F1 deployment: light bridge pipeline, enough
// credits to cover the PCIe round trip at full rate.
func DefaultParams() Params {
	return Params{ProcessDelay: 5, CreditsPerDst: 24 * ChunkFlits}
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
	shaper *axi.Shaper // non-nil when Params request link shaping
	addrOf func(dstNode int) axi.Addr

	credits    map[int]int       // send credits per destination node
	sendq      map[int][]stalled // packets stalled on credits
	creditRead map[int]bool      // outstanding credit-return read per dst
	returned   map[int]uint64    // cumulative credits received back per dst
	crFails    map[int]int       // consecutive failed credit reads per dst
	wedged     map[int]bool      // dst declared unreachable after crFails limit
	reconArmed map[int]bool      // reconciliation watchdog armed per dst
	reconAt    map[int]sim.Time  // deadline of the last watchdog armed per dst

	freed      map[int]int    // receive side: credits to return per src
	freedTotal map[int]uint64 // receive side: cumulative freed per src

	site   *fault.Site // receive-side fault site ("<name>"), nil when clean
	tracer *sim.Tracer

	hCreditWait *sim.Histogram // cycles spent queued waiting for credits
	gSendq      *sim.Gauge     // total packets stalled on credits
	nStalled    int

	// Pre-resolved hot-path counters (nil and free without stats) and bound
	// callbacks, so the per-packet path does no string building and no
	// closure captures.
	cTxPackets  sim.LazyCounter
	cTxFlits    sim.LazyCounter
	cRxPackets  sim.LazyCounter
	cRxFlits    sim.LazyCounter
	trySendFn   func(any)            // arg is the *Envelope
	rxFn        func(any)            // arg is the *Envelope
	chunkRespFn func(*axi.WriteResp) // non-final chunk completion
}

// chunkData backs the w channel of every encapsulation chunk. The payload
// bytes are never inspected (the envelope rides on the final chunk's User
// field), so all bridges share one read-only buffer instead of allocating
// 24 bytes per chunk.
var chunkData [ChunkFlits * 8]byte

// stalled is one packet queued on credit exhaustion, with the cycle it
// stalled at for wait-time accounting.
type stalled struct {
	env *Envelope
	at  sim.Time
}

// New creates a bridge for the given node and registers it at the mesh's
// bridge port.
func New(eng *sim.Engine, mesh *noc.Mesh, node int, p Params, stats *sim.Stats, name string) *Bridge {
	b := &Bridge{
		eng: eng, mesh: mesh, node: node, p: p, stats: stats, name: name,
		credits:    make(map[int]int),
		sendq:      make(map[int][]stalled),
		creditRead: make(map[int]bool),
		returned:   make(map[int]uint64),
		crFails:    make(map[int]int),
		wedged:     make(map[int]bool),
		reconArmed: make(map[int]bool),
		reconAt:    make(map[int]sim.Time),
		freed:      make(map[int]int),
		freedTotal: make(map[int]uint64),
	}
	if stats != nil {
		b.hCreditWait = stats.Histogram(name + ".credit_wait")
		b.gSendq = stats.Gauge(name + ".sendq")
	}
	b.cTxPackets = stats.LazyCounter(name + ".tx_packets")
	b.cTxFlits = stats.LazyCounter(name + ".tx_flits")
	b.cRxPackets = stats.LazyCounter(name + ".rx_packets")
	b.cRxFlits = stats.LazyCounter(name + ".rx_flits")
	b.trySendFn = func(env any) { b.trySend(env.(*Envelope)) }
	b.rxFn = func(env any) { b.rx(env.(*Envelope)) }
	b.chunkRespFn = func(r *axi.WriteResp) {
		if !r.OK {
			// Payload chunk lost; the envelope chunk decides the packet's
			// fate, so only the error is recorded here.
			b.count("axi_errors", 1)
		}
	}
	mesh.AttachBridge(b.handleMeshPacket)
	return b
}

// SetInjector resolves this bridge's receive-side fault site (named after the
// bridge itself, e.g. "node1.bridge"). A triggered drop there loses a
// credit-return update — the classic leak the reconciliation watchdog exists
// to repair. Must be called before traffic; nil-safe.
func (b *Bridge) SetInjector(inj *fault.Injector) { b.site = inj.SiteOn(b.name, b.eng) }

// SetTracer installs the trace ring of the bridge's node; tx/rx instants
// appear on the bridge's own track ("<node>.bridge") in exported timelines.
func (b *Bridge) SetTracer(t *sim.Tracer) { b.tracer = t }

// ConnectOut wires the bridge's outbound AXI path: out is the crossbar or
// shell port, addrOf maps a destination node to the AXI address of its
// bridge window. A shaper is inserted when Params request one.
func (b *Bridge) ConnectOut(out axi.Target, addrOf func(dstNode int) axi.Addr) {
	if b.p.ExtraLatency > 0 || b.p.BytesPerCycle > 0 {
		sh := axi.NewShaper(b.eng, out, b.p.ExtraLatency, b.p.BytesPerCycle)
		sh.SetStats(b.stats, b.name+".shaper")
		b.shaper = sh
		out = sh
	}
	b.out = out
	b.addrOf = addrOf
}

func (b *Bridge) count(what string, n uint64) {
	if b.stats != nil {
		b.stats.Counter(b.name + "." + what).Add(n)
	}
}

// handleMeshPacket receives a NoC packet routed to the bridge port
// (northbound out of tile 0) and encapsulates it.
func (b *Bridge) handleMeshPacket(pkt *noc.Packet) {
	env, ok := pkt.Payload.(*Envelope)
	if !ok {
		panic(fmt.Sprintf("bridge: %s: non-envelope payload %T at bridge port", b.name, pkt.Payload))
	}
	b.eng.ScheduleArg(b.p.ProcessDelay, b.trySendFn, env)
}

// trySend transmits env if credits allow, otherwise queues it and arranges
// a credit-return read.
func (b *Bridge) trySend(env *Envelope) {
	if b.out == nil {
		panic(fmt.Sprintf("bridge: %s: not connected", b.name))
	}
	dst := env.DstNode
	if _, ok := b.credits[dst]; !ok {
		b.credits[dst] = b.p.CreditsPerDst
	}
	if len(b.sendq[dst]) > 0 || b.credits[dst] < env.Flits {
		// Preserve order behind already-stalled packets.
		b.sendq[dst] = append(b.sendq[dst], stalled{env: env, at: b.eng.Now()})
		b.nStalled++
		b.gSendq.Set(int64(b.nStalled))
		b.count("credit_stall", 1)
		b.fetchCredits(dst)
		b.armReconcileWatchdog(dst)
		return
	}
	b.credits[dst] -= env.Flits
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
		req := &axi.WriteReq{
			Addr: addr,
			Data: chunkData[:],
		}
		if i == chunks-1 {
			req.User = env
			b.out.Write(req, func(r *axi.WriteResp) {
				if r.OK {
					return
				}
				b.count("axi_errors", 1)
				b.count("tx_lost", 1)
				b.count("credit_reclaimed", uint64(env.Flits))
				b.credits[env.DstNode] += env.Flits
				b.drain(env.DstNode)
			})
			continue
		}
		b.out.Write(req, b.chunkRespFn)
	}
}

// fetchCredits issues the credit-return AXI read (ar channel) unless one is
// already outstanding toward dst. A failed read escalates to a reconciliation
// read; creditReadFailLimit consecutive failures declare dst wedged and stop
// polling so the stall surfaces to the forward-progress watchdog instead of
// spinning the event queue forever.
func (b *Bridge) fetchCredits(dst int) {
	if b.creditRead[dst] || b.wedged[dst] {
		return
	}
	b.creditRead[dst] = true
	b.count("credit_reads", 1)
	b.out.Read(&axi.ReadReq{
		Addr: b.addrOf(dst) | axi.Addr(uint64(b.node)<<8),
		Len:  8,
	}, func(r *axi.ReadResp) {
		b.creditRead[dst] = false
		if !r.OK {
			b.creditReadFailed(dst)
			return
		}
		b.crFails[dst] = 0
		got := 0
		if cr, ok := r.User.(int); ok {
			got = cr
		}
		b.credits[dst] += got
		b.returned[dst] += uint64(got)
		b.drain(dst)
	})
}

// reconcile issues a reconciliation read: the receiver answers with its
// cumulative freed-flit count, and any gap against the credits this sender
// has actually received back is restored. This repairs credit-return updates
// lost in flight (the receive side decrements its pending count before its
// response is known to arrive).
func (b *Bridge) reconcile(dst int) {
	if b.creditRead[dst] || b.wedged[dst] {
		return
	}
	b.creditRead[dst] = true
	b.count("credit_reconciles", 1)
	b.out.Read(&axi.ReadReq{
		Addr: b.addrOf(dst) | ReconcileFlag | axi.Addr(uint64(b.node)<<8),
		Len:  8,
	}, func(r *axi.ReadResp) {
		b.creditRead[dst] = false
		if !r.OK {
			b.creditReadFailed(dst)
			return
		}
		b.crFails[dst] = 0
		var freedTotal uint64
		if ft, ok := r.User.(uint64); ok {
			freedTotal = ft
		}
		if leaked := int64(freedTotal) - int64(b.returned[dst]); leaked > 0 {
			b.count("credit_restored", uint64(leaked))
			b.credits[dst] += int(leaked)
			if b.credits[dst] > b.p.CreditsPerDst {
				b.credits[dst] = b.p.CreditsPerDst
			}
		}
		b.returned[dst] = freedTotal
		b.drain(dst)
	})
}

// creditReadFailed counts a failed credit read and gives up on dst after the
// limit.
func (b *Bridge) creditReadFailed(dst int) {
	b.count("axi_errors", 1)
	b.crFails[dst]++
	if b.crFails[dst] >= creditReadFailLimit {
		b.wedged[dst] = true
		b.count("dst_wedged", 1)
		return
	}
	// Escalate to reconciliation: the increment the failed read consumed at
	// the receiver is only recoverable from the cumulative count.
	b.eng.Schedule(b.p.ProcessDelay*4, func() { b.reconcile(dst) })
}

// armReconcileWatchdog starts the periodic credit-reconciliation check for
// dst. It runs while packets are stalled toward dst and disarms as soon as
// the queue empties (trySend re-arms on the next stall), so an idle bridge
// schedules nothing.
func (b *Bridge) armReconcileWatchdog(dst int) {
	if !b.reconArmed[dst] {
		b.armReconcileAt(dst, b.eng.Now()+reconcileInterval)
	}
}

// armReconcileAt arms dst's watchdog with an absolute deadline, which is
// what a snapshot carries: a restore re-arms at the captured phase.
func (b *Bridge) armReconcileAt(dst int, at sim.Time) {
	b.reconArmed[dst] = true
	b.reconAt[dst] = at
	b.eng.At(at, func() {
		b.reconArmed[dst] = false
		if len(b.sendq[dst]) == 0 || b.wedged[dst] {
			return
		}
		b.reconcile(dst)
		b.armReconcileWatchdog(dst)
	})
}

// drain retries queued packets after credits arrive.
func (b *Bridge) drain(dst int) {
	for len(b.sendq[dst]) > 0 {
		st := b.sendq[dst][0]
		if b.credits[dst] < st.env.Flits {
			// Still short: poll again. The receiver frees credits as it
			// injects, so this terminates (the wedged flag bounds the
			// pathological case of an unreachable receiver).
			b.eng.Schedule(b.p.ProcessDelay*4, func() { b.fetchCredits(dst) })
			return
		}
		b.sendq[dst] = b.sendq[dst][1:]
		b.nStalled--
		b.gSendq.Set(int64(b.nStalled))
		b.hCreditWait.Observe(uint64(b.eng.Now() - st.at))
		b.credits[dst] -= st.env.Flits
		b.transmit(st.env)
	}
}

// CaptureState records the bridge's credit bookkeeping, keyed by peer node.
// The send queue and outstanding credit reads must be idle (quiescence
// check): a stalled packet is an in-flight NoC transfer and cannot be
// captured at the bridge layer. The reconciliation watchdog need not be: the
// drain that precedes a capture runs it out, possibly past the cycle the
// software resumes at, so its last deadline is captured and RestoreState
// re-arms it — otherwise the restored run's next stall would start a
// watchdog at a different phase from the uninterrupted run's.
func (b *Bridge) CaptureState() (ckpt.BridgeState, error) {
	if b.nStalled != 0 {
		return ckpt.BridgeState{}, fmt.Errorf("bridge: %s has %d packets stalled on credits; not at a quiescent safepoint", b.name, b.nStalled)
	}
	for dst, outstanding := range b.creditRead {
		if outstanding {
			return ckpt.BridgeState{}, fmt.Errorf("bridge: %s has an outstanding credit read toward node %d; not at a quiescent safepoint", b.name, dst)
		}
	}
	peers := make(map[int]struct{})
	for d := range b.credits {
		peers[d] = struct{}{}
	}
	for d := range b.returned {
		peers[d] = struct{}{}
	}
	for d := range b.freed {
		peers[d] = struct{}{}
	}
	for d := range b.freedTotal {
		peers[d] = struct{}{}
	}
	for d := range b.crFails {
		peers[d] = struct{}{}
	}
	for d := range b.wedged {
		peers[d] = struct{}{}
	}
	for d := range b.reconAt {
		peers[d] = struct{}{}
	}
	var st ckpt.BridgeState
	for d := range peers {
		cr, ok := b.credits[d]
		if !ok {
			cr = b.p.CreditsPerDst
		}
		st.Dsts = append(st.Dsts, ckpt.BridgeDstState{
			Dst:        d,
			Credits:    cr,
			Returned:   b.returned[d],
			Freed:      uint64(b.freed[d]),
			FreedTotal: b.freedTotal[d],
			CrFails:    b.crFails[d],
			Wedged:     b.wedged[d],
			ReconAt:    uint64(b.reconAt[d]),
		})
	}
	sort.Slice(st.Dsts, func(i, j int) bool { return st.Dsts[i].Dst < st.Dsts[j].Dst })
	if b.shaper != nil {
		st.ShaperBusy = uint64(b.shaper.Busy())
	}
	return st, nil
}

// RestoreState overlays captured credit bookkeeping onto a fresh bridge.
func (b *Bridge) RestoreState(st ckpt.BridgeState) {
	for _, d := range st.Dsts {
		b.credits[d.Dst] = d.Credits
		b.returned[d.Dst] = d.Returned
		b.freed[d.Dst] = int(d.Freed)
		b.freedTotal[d.Dst] = d.FreedTotal
		b.crFails[d.Dst] = d.CrFails
		if d.Wedged {
			b.wedged[d.Dst] = true
		}
		if at := sim.Time(d.ReconAt); at > b.eng.Now() {
			b.armReconcileAt(d.Dst, at)
		}
	}
	if b.shaper != nil {
		b.shaper.SetBusy(sim.Time(st.ShaperBusy))
	}
}

// Inbound returns the AXI target of this bridge's receive side, to be
// mapped into the node's inbound address decode.
func (b *Bridge) Inbound() axi.Target { return (*inbound)(b) }

type inbound Bridge

// Write receives an encapsulation chunk. Only the final chunk of a packet
// carries the envelope; earlier chunks have paid their bus time already.
func (in *inbound) Write(req *axi.WriteReq, done func(*axi.WriteResp)) {
	b := (*Bridge)(in)
	done(&axi.WriteResp{ID: req.ID, OK: true})
	env, ok := req.User.(*Envelope)
	if !ok {
		return
	}
	b.eng.ScheduleArg(b.p.ProcessDelay, b.rxFn, env)
}

// rx decapsulates a received packet and injects it into the local mesh.
func (b *Bridge) rx(env *Envelope) {
	b.cRxPackets.Inc()
	b.cRxFlits.Add(uint64(env.Flits))
	b.tracer.Instant(b.name, sim.CatBridge, "rx")
	// Inject into the local mesh toward the destination tile; the buffer
	// slot is freed at injection, returning credits to the sender on its
	// next credit read.
	b.freed[env.SrcNode] += env.Flits
	b.freedTotal[env.SrcNode] += uint64(env.Flits)
	b.mesh.Send(&noc.Packet{
		Class:   env.Class,
		Src:     noc.Dest{Port: noc.PortBridge},
		Dst:     noc.Dest{Port: env.DstPort, Tile: env.DstTile},
		Flits:   env.Flits,
		Payload: env.Payload,
	})
}

// Read answers a credit-return request. An incremental read (the common
// case) returns the credits freed since the source's last read; a read with
// ReconcileFlag set returns the cumulative freed count instead, which the
// sender diffs against what it has actually received to restore leaked
// credits. Both zero the pending increment — the cumulative count subsumes
// it.
//
// The bridge's fault site models loss of the credit-return update itself: a
// triggered drop or corruption consumes the pending increment but reports
// zero credits back, leaking them until a reconciliation read repairs the
// gap.
func (in *inbound) Read(req *axi.ReadReq, done func(*axi.ReadResp)) {
	b := (*Bridge)(in)
	src := int(uint64(req.Addr) >> 8 & 0xFF)
	n := b.freed[src]
	b.freed[src] = 0
	if req.Addr&ReconcileFlag != 0 {
		done(&axi.ReadResp{ID: req.ID, Data: make([]byte, 8), OK: true, User: b.freedTotal[src]})
		return
	}
	if fate := b.site.Transfer(); fate.Drop || fate.Corrupt {
		b.count("credit_loss", uint64(n))
		n = 0
	}
	done(&axi.ReadResp{ID: req.ID, Data: make([]byte, 8), OK: true, User: n})
}
