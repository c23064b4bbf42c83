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
// The fabric is the only component that spans FPGA chips, so under sharded
// execution it is the cross-shard boundary: all of its mutable state is
// partitioned per endpoint (engine, egress reservation, telemetry, and the
// per-direction halves of the reliable-link state), and every crossing is
// delivered through a sim.CrossNet, whose canonical ordering keeps serial
// and sharded runs byte-identical. A standalone fabric gets a one-engine
// sim.Group of its own for that role.
package pcie

import (
	"fmt"
	"sort"

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

// Params configure fabric timing.
type Params struct {
	OneWay        sim.Time // one-way switch latency, cycles
	BytesPerCycle int      // egress link bandwidth
}

// DefaultParams matches the F1 measurements: 60-cycle switch one-way (the
// shell adds conversion cycles on each side for the paper's ~125-cycle RTT)
// and 16 GB/s ~ 160 B/cycle at 100 MHz.
func DefaultParams() Params {
	return Params{OneWay: 60, BytesPerCycle: 160}
}

// MinCrossing is the smallest possible cycle count between issuing a
// transfer at one endpoint and its arrival at another: the one-way switch
// latency plus at least one egress serialization beat. It lower-bounds
// every CrossNet delivery the fabric makes, so it is the safe lookahead for
// sharded execution.
func (p Params) MinCrossing() sim.Time { return p.OneWay + 1 }

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

// epState is everything the fabric owns on behalf of one endpoint. Each
// field is only ever touched from that endpoint's execution context, which
// is what lets shards run concurrently between barriers.
type epState struct {
	id      int
	eng     *sim.Engine
	tel     *epStats
	siteSet bool       // fault site resolved (it may have resolved to nil)
	target  axi.Target // inbound interface; nil until Attach
	egress  sim.Time   // egress link reservation
	master  *port      // the endpoint's one outbound master interface
	// Free lists of pooled fast-path exchange records. Owned by this
	// endpoint: records are taken and recycled only in its execution
	// context, so shards never contend.
	wops []*wop
	rops []*rop
}

// Fabric is the PCIe switch connecting FPGAs and the host.
type Fabric struct {
	eng     *sim.Engine // default engine for endpoints without an explicit shard
	p       Params
	stats   *sim.Stats // default registry, likewise
	inj     *fault.Injector
	net     sim.CrossNet
	sharded bool
	eps     map[int]*epState
	// rel[src+1][dst+1] is the reliable-link state of the directed pair
	// (src, dst); the +1 folds HostID (-1) into the array. A fixed array —
	// allocated up front — so concurrent shards never mutate a shared map.
	rel [MaxFPGAs + 1][MaxFPGAs + 1]*relState
	// Address windows: FPGA i owns [WindowBase + i*WindowSize, +WindowSize).
	// Anything else routes to the host.
	windowBase axi.Addr
	windowSize uint64
}

// WindowSize is each FPGA's aperture in the host PCIe address space.
const WindowSize uint64 = 1 << 40

// WindowBase is the start of the FPGA apertures.
const WindowBase axi.Addr = 1 << 44

// New creates a fabric. Attach endpoints before sending. Crossings are
// delivered through a private one-engine group on eng until SetCrossNet
// replaces it.
func New(eng *sim.Engine, p Params, stats *sim.Stats) *Fabric {
	f := &Fabric{
		eng:        eng,
		p:          p,
		stats:      stats,
		net:        sim.NewHierGroup(p.MinCrossing(), p.MinCrossing(), [][]*sim.Engine{{eng}}, make([]int, MaxFPGAs)),
		eps:        make(map[int]*epState),
		windowBase: WindowBase,
		windowSize: WindowSize,
	}
	for i := range f.rel {
		for j := range f.rel[i] {
			f.rel[i][j] = &relState{cache: make(map[uint64]any)}
		}
	}
	return f
}

// SetInjector attaches a fault injector. In serial mode each endpoint
// resolves its egress fault site "pcie.epN.link" at first traffic; sharded
// builds resolve eagerly at ShardEndpoint (the injector registry must not
// be touched from concurrent shards), so there the injector must be set
// first. A nil injector leaves every link infallible (the default).
func (f *Fabric) SetInjector(inj *fault.Injector) { f.inj = inj }

// SetCrossNet replaces the delivery network. Sharded builds pass the shard
// group so crossings become envelopes exchanged at window barriers; it can
// also be used to share one network between the fabric and other
// cross-shard users (thread migration) so they draw from the same
// per-source sequence space. Must be called before traffic.
func (f *Fabric) SetCrossNet(net sim.CrossNet) { f.net = net }

// ShardEndpoint binds endpoint id to its shard's engine and stats registry
// and creates its state eagerly. Sharded builds must call it for every
// endpoint before Attach; it also marks the fabric sharded, after which
// traffic touching an unbound endpoint (e.g. the host) panics instead of
// silently racing.
func (f *Fabric) ShardEndpoint(id int, eng *sim.Engine, stats *sim.Stats) {
	if _, dup := f.eps[id]; dup {
		panic(fmt.Sprintf("pcie: endpoint %d sharded twice", id))
	}
	f.sharded = true
	st := f.newState(id, eng, stats)
	f.resolveSite(st)
	f.eps[id] = st
}

func (f *Fabric) newState(id int, eng *sim.Engine, stats *sim.Stats) *epState {
	st := &epState{id: id, eng: eng, tel: &epStats{}}
	st.master = &port{f: f, src: id}
	if stats != nil {
		t := st.tel
		t.txBytes = stats.Counter(fmt.Sprintf("pcie.ep%d.tx_bytes", id))
		t.txTransfers = stats.Counter(fmt.Sprintf("pcie.ep%d.tx_transfers", id))
		t.rtt = stats.Histogram(fmt.Sprintf("pcie.ep%d.rtt", id))
		t.inflight = stats.Gauge(fmt.Sprintf("pcie.ep%d.inflight", id))
		t.retransmits = stats.Counter(fmt.Sprintf("pcie.ep%d.retransmits", id))
		t.linkDrops = stats.Counter(fmt.Sprintf("pcie.ep%d.link_drops", id))
		t.linkCorrupt = stats.Counter(fmt.Sprintf("pcie.ep%d.link_corrupt", id))
		t.linkFailed = stats.Counter(fmt.Sprintf("pcie.ep%d.link_failed", id))
	}
	return st
}

// resolveSite binds the endpoint's egress fault site. Serial mode defers
// this to first traffic so SetInjector may be called any time before the
// fabric carries transfers; sharded mode resolves at ShardEndpoint because
// the injector's registry must not be touched from concurrent shards.
func (f *Fabric) resolveSite(st *epState) *fault.Site {
	if !st.siteSet {
		st.tel.site = f.inj.SiteOn(fmt.Sprintf("pcie.ep%d.link", st.id), st.eng)
		st.siteSet = true
	}
	return st.tel.site
}

// state returns endpoint id's state, creating it on the fabric's default
// engine/registry on first use in serial mode. In sharded mode every
// endpoint that carries traffic must have been bound with ShardEndpoint.
func (f *Fabric) state(id int) *epState {
	st, ok := f.eps[id]
	if !ok {
		if f.sharded {
			panic(fmt.Sprintf("pcie: endpoint %d carries traffic but was not bound to a shard", id))
		}
		st = f.newState(id, f.eng, f.stats)
		f.eps[id] = st
	}
	return st
}

// Attach registers the inbound AXI target for endpoint id (an FPGA index in
// [0, MaxFPGAs) or HostID).
func (f *Fabric) Attach(id int, t axi.Target) {
	if id != HostID && (id < 0 || id >= MaxFPGAs) {
		panic(fmt.Sprintf("pcie: endpoint id %d out of range", id))
	}
	st := f.state(id)
	if st.target != nil {
		panic(fmt.Sprintf("pcie: endpoint id %d attached twice", id))
	}
	st.target = t
}

// Window returns the PCIe aperture of FPGA id.
func (f *Fabric) Window(id int) (base axi.Addr, size uint64) {
	return f.windowBase + axi.Addr(uint64(id)*f.windowSize), f.windowSize
}

// RouteOf returns the endpoint that owns addr.
func (f *Fabric) RouteOf(addr axi.Addr) int {
	if addr >= f.windowBase {
		i := int(uint64(addr-f.windowBase) / f.windowSize)
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
	ids := make([]int, 0, len(f.eps))
	for id := range f.eps {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		st.Endpoints = append(st.Endpoints, ckpt.PCIeEndpointState{
			ID: id, Egress: uint64(f.eps[id].egress),
		})
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

// RestoreState overlays a captured fabric state, creating endpoint records
// as needed (serial mode creates them lazily on first traffic, so a fresh
// build may not hold every endpoint the snapshot does).
func (f *Fabric) RestoreState(st ckpt.PCIeState) error {
	for _, ep := range st.Endpoints {
		if ep.ID != HostID && (ep.ID < 0 || ep.ID >= MaxFPGAs) {
			return &ckpt.CorruptError{Reason: fmt.Sprintf("pcie endpoint id %d out of range", ep.ID)}
		}
		f.state(ep.ID).egress = sim.Time(ep.Egress)
	}
	for _, sq := range st.Seqs {
		if sq.Src < 0 || sq.Src >= len(f.rel) || sq.Dst < 0 || sq.Dst >= len(f.rel) {
			return &ckpt.CorruptError{Reason: fmt.Sprintf("pcie reliable-link pair (%d,%d) out of range", sq.Src, sq.Dst)}
		}
		f.rel[sq.Src][sq.Dst].nextSeq = sq.NextSeq
	}
	return nil
}

// delay reserves egress bandwidth at src and returns the total transfer
// delay for n bytes. Runs in src's execution context.
func (f *Fabric) delay(src, n int) sim.Time {
	beats := sim.Time((n + f.p.BytesPerCycle - 1) / f.p.BytesPerCycle)
	if beats == 0 {
		beats = 1
	}
	st := f.state(src)
	start := st.eng.Now()
	if st.egress > start {
		start = st.egress
	}
	st.egress = start + beats
	st.tel.txBytes.Add(uint64(n))
	st.tel.txTransfers.Inc()
	return (start - st.eng.Now()) + beats + f.p.OneWay
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
	cache   map[uint64]any
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
	d := f.delay(src, nbytes)
	fate := f.resolveSite(st).Transfer()
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
	invoke              func(reply func(any))
	finish              func(any)
	attempts            int
	timer               sim.Timer
	done                bool
}

// exchange is the reliable-link path: a request/response exchange from src to
// dst over a link with a fault site on either endpoint, sequence-numbered,
// retransmitted on timeout and deduplicated at the receiver. invoke calls the
// destination target and must hand the response to its callback exactly
// once; finish receives that response, or nil when the link gave up after
// maxAttempts. A link with no fault site never comes here: port.Write and
// port.Read take the pooled plain pair of crossings instead.
func (f *Fabric) exchange(src, dst int, fwdBytes, respBytes int, invoke func(reply func(any)), finish func(any)) {
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
	bpc := x.f.p.BytesPerCycle
	beats := sim.Time((x.fwdBytes + x.respBytes + bpc - 1) / bpc)
	return 2*x.f.p.OneWay + beats + timeoutSlack
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
	x.invoke(func(r any) {
		x.st.cache[x.seq] = r
		x.sendResp(r)
	})
}

func (x *xchg) sendResp(r any) {
	x.f.cross(x.dst, x.src, x.respBytes, func() { x.complete(r) })
}

func (x *xchg) complete(r any) {
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

// port is one endpoint's outbound master interface.
type port struct {
	f   *Fabric
	src int
}

// Master returns the outbound AXI interface of endpoint src. Writes and
// reads are routed by address to the owning endpoint; responses pay the
// return crossing.
func (f *Fabric) Master(src int) axi.Target { return f.state(src).master }

// fail schedules an OK:false response for an unrouteable request. The error
// still pays the one-way switch latency: the request has to reach the switch
// before anything can reject it. The rejection never leaves src.
func (p *port) fail(tel *epStats, respond func()) {
	p.f.state(p.src).eng.Schedule(p.f.p.OneWay, func() {
		tel.inflight.Dec()
		respond()
	})
}

// targetOf returns the inbound interface of endpoint id without creating
// state for unknown endpoints (an unrouteable address must fail cleanly,
// not panic the sharded fabric).
func (f *Fabric) targetOf(id int) axi.Target {
	if st, ok := f.eps[id]; ok {
		return st.target
	}
	return nil
}

// wop is one pooled fast-path write exchange: the rewritten request held by
// value, plus the three stage callbacks built once per record. The record is
// taken and recycled at the source endpoint; between the two crossings it is
// touched only at the destination, with the CrossNet barriers providing the
// ordering — the same discipline the capture closures it replaces followed.
type wop struct {
	dstID int
	dst   axi.Target
	local axi.WriteReq
	done  func(*axi.WriteResp)
	start sim.Time
	resp  *axi.WriteResp

	deliverFn func()               // at dst: invoke the inbound target
	respFn    func(*axi.WriteResp) // at dst: carry the response back
	finishFn  func()               // at src: telemetry, completion, recycle
}

func newWop(f *Fabric, st *epState) *wop {
	o := &wop{}
	o.deliverFn = func() { o.dst.Write(&o.local, o.respFn) }
	o.respFn = func(r *axi.WriteResp) {
		o.resp = r
		// b-channel response crosses back as a small TLP.
		f.cross(o.dstID, st.id, 4, o.finishFn)
	}
	o.finishFn = func() {
		st.tel.rtt.Observe(uint64(st.eng.Now() - o.start))
		st.tel.inflight.Dec()
		done, resp := o.done, o.resp
		// Recycle before completing: done may issue the next transfer
		// synchronously through this same endpoint.
		o.dst, o.done, o.resp = nil, nil, nil
		o.local = axi.WriteReq{}
		st.wops = append(st.wops, o)
		done(resp)
	}
	return o
}

func (f *Fabric) getWop(st *epState) *wop {
	if n := len(st.wops); n > 0 {
		o := st.wops[n-1]
		st.wops = st.wops[:n-1]
		return o
	}
	return newWop(f, st)
}

// rop is wop's read-channel twin.
type rop struct {
	dstID int
	dst   axi.Target
	local axi.ReadReq
	done  func(*axi.ReadResp)
	start sim.Time
	resp  *axi.ReadResp

	deliverFn func()
	respFn    func(*axi.ReadResp)
	finishFn  func()
}

func newRop(f *Fabric, st *epState) *rop {
	o := &rop{}
	o.deliverFn = func() { o.dst.Read(&o.local, o.respFn) }
	o.respFn = func(r *axi.ReadResp) {
		o.resp = r
		// r-channel data crosses back.
		f.cross(o.dstID, st.id, o.local.Len, o.finishFn)
	}
	o.finishFn = func() {
		st.tel.rtt.Observe(uint64(st.eng.Now() - o.start))
		st.tel.inflight.Dec()
		done, resp := o.done, o.resp
		o.dst, o.done, o.resp = nil, nil, nil
		o.local = axi.ReadReq{}
		st.rops = append(st.rops, o)
		done(resp)
	}
	return o
}

func (f *Fabric) getRop(st *epState) *rop {
	if n := len(st.rops); n > 0 {
		o := st.rops[n-1]
		st.rops = st.rops[:n-1]
		return o
	}
	return newRop(f, st)
}

func (p *port) Write(req *axi.WriteReq, done func(*axi.WriteResp)) {
	f := p.f
	dstID := f.RouteOf(req.Addr)
	src := f.state(p.src)
	tel := src.tel
	start := src.eng.Now()
	tel.inflight.Inc()
	dst := f.targetOf(dstID)
	if dst == nil {
		p.fail(tel, func() { done(&axi.WriteResp{ID: req.ID, OK: false}) })
		return
	}
	if f.resolveSite(src) == nil && f.resolveSite(f.state(dstID)) == nil {
		o := f.getWop(src)
		o.dstID, o.dst = dstID, dst
		o.local = axi.WriteReq{Addr: f.LocalAddr(req.Addr), ID: req.ID, Data: req.Data, User: req.User}
		o.done, o.start = done, start
		f.cross(p.src, dstID, len(req.Data), o.deliverFn)
		return
	}
	local := &axi.WriteReq{Addr: f.LocalAddr(req.Addr), ID: req.ID, Data: req.Data, User: req.User}
	// b-channel response crosses back as a small TLP.
	f.exchange(p.src, dstID, len(req.Data), 4,
		func(reply func(any)) {
			dst.Write(local, func(r *axi.WriteResp) { reply(r) })
		},
		func(r any) {
			tel.rtt.Observe(uint64(src.eng.Now() - start))
			tel.inflight.Dec()
			if r == nil {
				done(&axi.WriteResp{ID: req.ID, OK: false})
				return
			}
			done(r.(*axi.WriteResp))
		})
}

func (p *port) Read(req *axi.ReadReq, done func(*axi.ReadResp)) {
	f := p.f
	dstID := f.RouteOf(req.Addr)
	src := f.state(p.src)
	tel := src.tel
	start := src.eng.Now()
	tel.inflight.Inc()
	dst := f.targetOf(dstID)
	if dst == nil {
		p.fail(tel, func() { done(&axi.ReadResp{ID: req.ID, OK: false}) })
		return
	}
	if f.resolveSite(src) == nil && f.resolveSite(f.state(dstID)) == nil {
		o := f.getRop(src)
		o.dstID, o.dst = dstID, dst
		o.local = axi.ReadReq{Addr: f.LocalAddr(req.Addr), ID: req.ID, Len: req.Len}
		o.done, o.start = done, start
		f.cross(p.src, dstID, 4, o.deliverFn)
		return
	}
	local := &axi.ReadReq{Addr: f.LocalAddr(req.Addr), ID: req.ID, Len: req.Len}
	// r-channel data crosses back.
	f.exchange(p.src, dstID, 4, req.Len,
		func(reply func(any)) {
			dst.Read(local, func(r *axi.ReadResp) { reply(r) })
		},
		func(r any) {
			tel.rtt.Observe(uint64(src.eng.Now() - start))
			tel.inflight.Dec()
			if r == nil {
				done(&axi.ReadResp{ID: req.ID, OK: false})
				return
			}
			done(r.(*axi.ReadResp))
		})
}
