// Package pcie models the PCIe Gen3 x16 fabric inside an AWS F1 instance:
// up to four FPGAs and the host CPU hang off one low-latency switch, and
// FPGA-to-FPGA transfers travel directly without touching the host (the
// property SMAPPIC's inter-node interconnect relies on).
//
// The paper measured the inter-FPGA round-trip latency at about 1250 ns,
// i.e. 125 cycles at the 100 MHz prototype clock. The fabric models each
// crossing as a fixed one-way latency plus egress serialization at the
// PCIe link's bandwidth.
//
// The fabric is the only component that spans FPGA chips, so it is the
// cross-shard boundary: all of its mutable state is partitioned per endpoint
// (engine, egress reservation, telemetry, and the per-direction halves of
// the reliable-link state), every endpoint is bound to its owner's engine
// and registry before it carries traffic, and every crossing is delivered
// through a sim.CrossNet, whose canonical ordering keeps runs byte-identical
// under every sharding.
package pcie

import (
	"fmt"

	"smappic/internal/axi"
	"smappic/internal/ckpt"
	"smappic/internal/fault"
	"smappic/internal/sim"
)

// HostID is the endpoint index of the host CPU's root port.
const HostID = -1

// MaxFPGAs is the number of FPGAs reachable over low-latency PCIe links in
// one F1 instance (f1.16xlarge has 8 FPGAs, but only groups of 4 share a
// low-latency switch — the constraint in paper §4.8).
const MaxFPGAs = 4

// Fabric timing, from the F1 measurements: a 60-cycle switch one-way (the
// shell adds conversion cycles on each side for the paper's ~125-cycle RTT)
// and 16 GB/s ~ 160 B/cycle of egress bandwidth at 100 MHz.
const (
	oneWay        sim.Time = 60
	bytesPerCycle          = 160
)

// MinCrossing is the smallest possible cycle count between issuing a
// transfer at one endpoint and its arrival at another: the one-way switch
// latency plus at least one egress serialization beat. It lower-bounds
// every CrossNet delivery the fabric makes, so it is the safe lookahead for
// sharded execution.
const MinCrossing = oneWay + 1

// epStats is the pre-resolved telemetry of one fabric endpoint; nil
// instruments when the fabric has no registry. The reliability counters are
// created eagerly alongside the rest so a run with a fault-free plan
// reports the same metric set (all zero) as a run with no injector at all.
type epStats struct {
	txBytes     *sim.Counter
	txTransfers *sim.Counter
	rtt         *sim.Histogram // request round-trip as seen by the master
	inflight    *sim.Gauge     // outstanding transactions from this endpoint

	retransmits *sim.Counter // reliable-link retransmissions issued
	linkDrops   *sim.Counter // transfers lost at this endpoint's egress
	linkCorrupt *sim.Counter // transfers the receiver's checksum rejected
	linkFailed  *sim.Counter // exchanges that exhausted retries (OK:false)

	site *fault.Site // egress fault site ("pcie.epN.link"), nil when clean
}

// epState is everything the fabric owns on behalf of one endpoint, and the
// endpoint's outbound master interface. Each field is only ever touched from
// that endpoint's execution context, which is what lets shards run
// concurrently between barriers.
type epState struct {
	f      *Fabric
	id     int
	eng    *sim.Engine
	tel    *epStats
	target axi.Target // inbound interface; nil until Attach
	egress sim.Time   // egress link reservation
	// Free list of pooled fast-path exchange records. Owned by this
	// endpoint: records are taken and recycled only in its execution
	// context, so shards never contend.
	ops sim.FreeList[op]
}

// Fabric is the PCIe switch connecting FPGAs and the host.
type Fabric struct {
	inj *fault.Injector
	net sim.CrossNet
	// eps[id+1] is endpoint id's state and rel[src+1][dst+1] the
	// reliable-link state of the directed pair (src, dst); the +1 folds
	// HostID (-1) into the arrays. Fixed arrays, filled before traffic, so
	// concurrent shards never mutate a shared table.
	eps [MaxFPGAs + 1]*epState
	rel [MaxFPGAs + 1][MaxFPGAs + 1]*relState
}

// WindowSize is each FPGA's aperture in the host PCIe address space: FPGA i
// owns [WindowBase + i*WindowSize, +WindowSize), and anything else routes to
// the host.
const WindowSize uint64 = 1 << 40

// WindowBase is the start of the FPGA apertures.
const WindowBase axi.Addr = 1 << 44

// New creates a fabric that delivers its crossings through net (shared with
// the other cross-shard users, so all draw from one per-source sequence
// space) and consults inj for link faults; a nil injector leaves every link
// infallible. Bind, then Attach, every endpoint before sending.
func New(net sim.CrossNet, inj *fault.Injector) *Fabric {
	f := &Fabric{inj: inj, net: net}
	for i := range f.rel {
		for j := range f.rel[i] {
			f.rel[i][j] = &relState{cache: make(map[uint64]*axi.Resp)}
		}
	}
	return f
}

// Bind gives endpoint id (an FPGA index in [0, MaxFPGAs) or HostID) its
// owner's engine and stats registry and resolves its egress fault site
// "pcie.epN.link" — once, while the platform is built: a running shard never
// creates fabric state or touches the injector's registry.
func (f *Fabric) Bind(id int, eng *sim.Engine, stats *sim.Stats) {
	if id != HostID && (id < 0 || id >= MaxFPGAs) {
		panic(fmt.Sprintf("pcie: endpoint id %d out of range", id))
	}
	if f.eps[id+1] != nil {
		panic(fmt.Sprintf("pcie: endpoint %d bound twice", id))
	}
	st := &epState{f: f, id: id, eng: eng, tel: &epStats{}}
	st.tel.site = f.inj.Site(fmt.Sprintf("pcie.ep%d.link", id), eng)
	t := st.tel
	t.txBytes = stats.Counter(fmt.Sprintf("pcie.ep%d.tx_bytes", id))
	t.txTransfers = stats.Counter(fmt.Sprintf("pcie.ep%d.tx_transfers", id))
	t.rtt = stats.Histogram(fmt.Sprintf("pcie.ep%d.rtt", id))
	t.inflight = stats.Gauge(fmt.Sprintf("pcie.ep%d.inflight", id))
	t.retransmits = stats.Counter(fmt.Sprintf("pcie.ep%d.retransmits", id))
	t.linkDrops = stats.Counter(fmt.Sprintf("pcie.ep%d.link_drops", id))
	t.linkCorrupt = stats.Counter(fmt.Sprintf("pcie.ep%d.link_corrupt", id))
	t.linkFailed = stats.Counter(fmt.Sprintf("pcie.ep%d.link_failed", id))
	f.eps[id+1] = st
}

// state returns endpoint id's state; traffic touching an endpoint that was
// never bound is a wiring error.
func (f *Fabric) state(id int) *epState {
	st := f.eps[id+1]
	if st == nil {
		panic(fmt.Sprintf("pcie: endpoint %d carries traffic but was never bound", id))
	}
	return st
}

// Attach registers the inbound AXI target of a bound endpoint.
func (f *Fabric) Attach(id int, t axi.Target) {
	st := f.state(id)
	if st.target != nil {
		panic(fmt.Sprintf("pcie: endpoint id %d attached twice", id))
	}
	st.target = t
}

// Window returns the PCIe aperture of FPGA id.
func (f *Fabric) Window(id int) (base axi.Addr, size uint64) {
	return WindowBase + axi.Addr(uint64(id)*WindowSize), WindowSize
}

// RouteOf returns the endpoint that owns addr.
func (f *Fabric) RouteOf(addr axi.Addr) int {
	if addr >= WindowBase {
		i := int(uint64(addr-WindowBase) / WindowSize)
		if i < MaxFPGAs {
			return i
		}
	}
	return HostID
}

// LocalAddr strips the window base, returning the address as seen inside the
// destination endpoint.
func (f *Fabric) LocalAddr(addr axi.Addr) axi.Addr {
	if f.RouteOf(addr) == HostID {
		return addr
	}
	base, _ := f.Window(f.RouteOf(addr))
	return addr - base
}

// CaptureState records the fabric's persistent state: per-endpoint egress
// reservation clocks and the reliable links' send sequence numbers. The
// replay caches are reception history — at a quiescent safepoint every
// sequence below nextSeq has been delivered and acknowledged, so nextSeq
// alone carries the protocol forward. Pooled exchange records are free-list
// bookkeeping and are not state.
func (f *Fabric) CaptureState() ckpt.PCIeState {
	var st ckpt.PCIeState
	for _, ep := range f.eps {
		if ep != nil {
			st.Endpoints = append(st.Endpoints, ckpt.PCIeEndpointState{
				ID: ep.id, Egress: uint64(ep.egress),
			})
		}
	}
	for i := range f.rel {
		for j := range f.rel[i] {
			if f.rel[i][j].nextSeq != 0 {
				st.Seqs = append(st.Seqs, ckpt.PCIeSeqState{
					Src: i, Dst: j, NextSeq: f.rel[i][j].nextSeq,
				})
			}
		}
	}
	return st
}

// RestoreState overlays a captured fabric state. A snapshot endpoint this
// build did not bind belongs to a different platform.
func (f *Fabric) RestoreState(st ckpt.PCIeState) error {
	for _, ep := range st.Endpoints {
		if ep.ID != HostID && (ep.ID < 0 || ep.ID >= MaxFPGAs) {
			return &ckpt.CorruptError{Reason: fmt.Sprintf("pcie endpoint id %d out of range", ep.ID)}
		}
		if f.eps[ep.ID+1] == nil {
			return &ckpt.MismatchError{Field: fmt.Sprintf("pcie endpoint %d", ep.ID), Got: "present", Want: "not bound"}
		}
		f.eps[ep.ID+1].egress = sim.Time(ep.Egress)
	}
	for _, sq := range st.Seqs {
		if sq.Src < 0 || sq.Src >= len(f.rel) || sq.Dst < 0 || sq.Dst >= len(f.rel) {
			return &ckpt.CorruptError{Reason: fmt.Sprintf("pcie reliable-link pair (%d,%d) out of range", sq.Src, sq.Dst)}
		}
		f.rel[sq.Src][sq.Dst].nextSeq = sq.NextSeq
	}
	return nil
}

// delay reserves egress bandwidth at st and returns the total transfer
// delay for n bytes. Runs in st's execution context.
func (f *Fabric) delay(st *epState, n int) sim.Time {
	beats := sim.Time((n + bytesPerCycle - 1) / bytesPerCycle)
	if beats == 0 {
		beats = 1
	}
	start := st.eng.Now()
	if st.egress > start {
		start = st.egress
	}
	st.egress = start + beats
	st.tel.txBytes.Add(uint64(n))
	st.tel.txTransfers.Inc()
	return (start - st.eng.Now()) + beats + oneWay
}

// Reliable link layer
//
// When a fault injector puts a site on an endpoint's link, every exchange
// crossing that endpoint runs a lightweight reliability protocol modeled on
// PCIe's own DLLP layer: the request carries a per-(src,dst) sequence number
// and a checksum, the receiver deduplicates retransmissions against a replay
// cache, and the sender arms an ACK timeout with capped exponential backoff.
// After maxAttempts the sender gives up and propagates OK:false instead of
// hanging. Endpoints without fault sites keep the original two-crossing fast
// path with byte-identical timing and metrics.

const (
	// maxAttempts bounds retransmission: one original send plus seven
	// retries, after which the exchange fails with OK:false.
	maxAttempts = 8
	// backoffCap caps the exponential timeout multiplier (1, 2, 4, 8, 8...).
	backoffCap = 8
	// replayWindow is how many completed sequence numbers the receiver keeps
	// for duplicate detection before pruning.
	replayWindow = 256
	// timeoutSlack pads the ACK timeout beyond the nominal round trip to
	// absorb egress queueing. A late ACK only costs a spurious (deduplicated)
	// retransmit, never correctness.
	timeoutSlack = 64
)

// relState is the reliable-link state of one directed pair. Its two halves
// have different owners: nextSeq is advanced at the source endpoint, the
// replay cache is consulted and filled at the destination.
type relState struct {
	nextSeq uint64
	cache   map[uint64]*axi.Resp
}

func (f *Fabric) relOf(src, dst int) *relState { return f.rel[src+1][dst+1] }

// cross moves nbytes from endpoint src to endpoint dst, consulting src's
// fault site. then runs at dst after the crossing delay when the transfer
// survives; a dropped, corrupted or hung transfer is counted and silently
// lost (a corrupted payload is delivered but fails the receiver's checksum,
// which comes to the same thing — the sender's timeout recovers either
// way). Runs in src's execution context; delivery goes through the
// CrossNet, the cross-shard edge.
func (f *Fabric) cross(src, dst, nbytes int, then func()) {
	st := f.state(src)
	d := f.delay(st, nbytes)
	fate := st.tel.site.Transfer()
	if fate.Drop {
		st.tel.linkDrops.Inc()
		return
	}
	if fate.Corrupt {
		st.tel.linkCorrupt.Inc()
		return
	}
	f.net.Send(src, dst, st.eng.Now()+d+fate.Extra, then)
}

// xchg is one request/response exchange running the reliability protocol.
// Field ownership mirrors relState: seq/attempts/timer/done live at the
// source (attempt, complete and timeout all run there), while deliver runs
// at the destination and touches only the replay cache and the invocation.
type xchg struct {
	f                   *Fabric
	src, dst            int
	fwdBytes, respBytes int
	seq                 uint64
	st                  *relState
	invoke              func(reply func(axi.Resp))
	finish              func(*axi.Resp)
	attempts            int
	timer               sim.Timer
	done                bool
}

// exchange is the reliable-link path: a request/response exchange from src to
// dst over a link with a fault site on either endpoint, sequence-numbered,
// retransmitted on timeout and deduplicated at the receiver. invoke calls the
// destination target and must hand the response to its callback exactly
// once; finish receives that response, or nil when the link gave up after
// maxAttempts. A link with no fault site never comes here: epState.Do takes
// the pooled plain pair of crossings instead.
func (f *Fabric) exchange(src, dst int, fwdBytes, respBytes int, invoke func(reply func(axi.Resp)), finish func(*axi.Resp)) {
	st := f.relOf(src, dst)
	x := &xchg{
		f: f, src: src, dst: dst,
		fwdBytes: fwdBytes, respBytes: respBytes,
		seq: st.nextSeq, st: st,
		invoke: invoke, finish: finish,
	}
	st.nextSeq++
	x.attempt()
}

// baseTimeout is the nominal exchange round trip plus slack.
func (x *xchg) baseTimeout() sim.Time {
	beats := sim.Time((x.fwdBytes + x.respBytes + bytesPerCycle - 1) / bytesPerCycle)
	return 2*oneWay + beats + timeoutSlack
}

func (x *xchg) attempt() {
	x.attempts++
	mult := sim.Time(1) << (x.attempts - 1)
	if mult > backoffCap {
		mult = backoffCap
	}
	x.timer = x.f.state(x.src).eng.After(x.baseTimeout()*mult, x.timeout)
	x.f.cross(x.src, x.dst, x.fwdBytes, x.deliver)
}

// deliver runs at the receiver after a surviving forward crossing.
func (x *xchg) deliver() {
	if r, seen := x.st.cache[x.seq]; seen {
		// Duplicate of a retransmitted request. If the destination already
		// responded, replay the cached response; otherwise the original
		// invocation is still in flight and will respond itself.
		if r != nil {
			x.sendResp(r)
		}
		return
	}
	x.st.cache[x.seq] = nil
	if x.seq >= replayWindow {
		delete(x.st.cache, x.seq-replayWindow)
	}
	x.invoke(func(r axi.Resp) {
		x.st.cache[x.seq] = &r
		x.sendResp(&r)
	})
}

func (x *xchg) sendResp(r *axi.Resp) {
	x.f.cross(x.dst, x.src, x.respBytes, func() { x.complete(r) })
}

func (x *xchg) complete(r *axi.Resp) {
	if x.done {
		return // a duplicate response from a spurious retransmit
	}
	x.done = true
	x.timer.Cancel()
	x.finish(r)
}

func (x *xchg) timeout() {
	if x.done {
		return
	}
	if x.attempts >= maxAttempts {
		x.done = true
		x.f.state(x.src).tel.linkFailed.Inc()
		x.finish(nil)
		return
	}
	x.f.state(x.src).tel.retransmits.Inc()
	x.attempt()
}

// Master returns the outbound AXI interface of endpoint src. Transfers are
// routed by address to the owning endpoint; responses pay the return
// crossing.
func (f *Fabric) Master(src int) axi.Target { return f.state(src) }

// crossBytes returns the bytes a transfer carries over the link each way: a
// write's data forward and its b-channel response back as a small TLP, a
// read's request forward as a small TLP and its r-channel data back.
func crossBytes(t *axi.Txn) (fwd, resp int) {
	if t.Write {
		return len(t.Data), 4
	}
	return 4, t.Len
}

// op is one pooled fast-path exchange: the rewritten transfer held by value,
// plus the three stage callbacks bound once per record. The record is taken
// and recycled at the source endpoint; between the two crossings it is
// touched only at the destination, with the CrossNet barriers providing the
// ordering — the same discipline the capture closures it replaces followed.
type op struct {
	dstID int
	dst   axi.Target
	local axi.Txn
	done  func(axi.Resp)
	start sim.Time
	resp  axi.Resp

	deliverFn func()         // at dst: invoke the inbound target
	respFn    func(axi.Resp) // at dst: carry the response back
	finishFn  func()         // at src: telemetry, completion, recycle
}

func (o *op) bind(f *Fabric, st *epState) {
	o.deliverFn = func() { o.dst.Do(&o.local, o.respFn) }
	o.respFn = func(r axi.Resp) {
		o.resp = r
		_, back := crossBytes(&o.local)
		f.cross(o.dstID, st.id, back, o.finishFn)
	}
	o.finishFn = func() {
		st.tel.rtt.Observe(uint64(st.eng.Now() - o.start))
		st.tel.inflight.Dec()
		done, resp := o.done, o.resp
		// Recycle before completing: done may issue the next transfer
		// synchronously through this same endpoint.
		o.dst, o.done, o.resp = nil, nil, axi.Resp{}
		o.local = axi.Txn{}
		st.ops.Put(o)
		done(resp)
	}
}

func (src *epState) Do(t *axi.Txn, done func(axi.Resp)) {
	f := src.f
	dstID := f.RouteOf(t.Addr)
	ep := f.eps[dstID+1]
	if ep == nil || ep.target == nil {
		// A wiring fault, as in Fabric.state: every sender is a bridge,
		// and a bridge addresses only nodes the prototype built.
		panic(fmt.Sprintf("pcie: transfer to %#x from endpoint %d routes to endpoint %d, which has no target", uint64(t.Addr), src.id, dstID))
	}
	tel := src.tel
	start := src.eng.Now()
	tel.inflight.Inc()
	dst := ep.target
	fwdBytes, respBytes := crossBytes(t)
	if tel.site == nil && ep.tel.site == nil {
		o := src.ops.Get()
		if o.deliverFn == nil {
			o.bind(f, src)
		}
		o.dstID, o.dst = dstID, dst
		o.local = *t
		o.local.Addr = f.LocalAddr(t.Addr)
		o.done, o.start = done, start
		f.cross(src.id, dstID, fwdBytes, o.deliverFn)
		return
	}
	local := *t
	local.Addr = f.LocalAddr(t.Addr)
	f.exchange(src.id, dstID, fwdBytes, respBytes,
		func(reply func(axi.Resp)) { dst.Do(&local, reply) },
		func(r *axi.Resp) {
			tel.rtt.Observe(uint64(src.eng.Now() - start))
			tel.inflight.Dec()
			if r == nil {
				done(axi.Resp{ID: t.ID, OK: false})
				return
			}
			done(*r)
		})
}
