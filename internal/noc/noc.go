// Package noc models the BYOC/OpenPiton on-chip interconnect: three parallel
// 2D-mesh networks (NoC1 requests, NoC2 responses, NoC3 writebacks/memory)
// with dimension-ordered XY routing and per-link serialization.
//
// Following OpenPiton's physical design, each node's mesh has two off-mesh
// exit points attached at tile 0: the chipset port (memory controller and
// peripherals) and, in SMAPPIC, the inter-node bridge port on the northbound
// edge. Packets destined off-node are routed to tile 0 and ejected there.
//
// Timing model: packets are cut-through routed. Each hop charges a router
// pipeline delay plus a link traversal delay; each link additionally
// serializes packets (a packet of F flits occupies a link for F cycles), and
// overlapping packets queue on the link's reservation. This yields one
// simulation event per delivery while still modeling contention, which keeps
// 48-core runs fast.
package noc

import (
	"fmt"

	"smappic/internal/ckpt"
	"smappic/internal/sim"
)

// Class selects one of the three physical networks. Requests, responses and
// writebacks travel on disjoint networks so the coherence protocol cannot
// deadlock on shared buffers.
type Class int

const (
	NoC1 Class = iota // requests (BPC -> LLC home)
	NoC2              // responses (LLC home -> BPC)
	NoC3              // writebacks, memory traffic (LLC -> memctrl, evictions)
	numClasses
)

// String returns the OpenPiton-style network name.
func (c Class) String() string {
	switch c {
	case NoC1:
		return "noc1"
	case NoC2:
		return "noc2"
	case NoC3:
		return "noc3"
	}
	return fmt.Sprintf("noc?%d", int(c))
}

// Port identifies an attachment point on the mesh.
type Port int

const (
	PortTile    Port = iota // a tile's NoC interface
	PortChipset             // chipset (memory controller, peripherals), west of tile 0
	PortBridge              // SMAPPIC inter-node bridge, north of tile 0
)

// Dest addresses a packet within a single node's mesh.
type Dest struct {
	Port Port
	Tile int // meaningful when Port == PortTile
}

// Packet is one NoC transfer. Payload carries the protocol-level message and
// is not interpreted by the mesh. Flits determines serialization time: a
// header flit plus one flit per 8 payload bytes, as in OpenPiton.
type Packet struct {
	Class   Class
	Src     Dest
	Dst     Dest
	Flits   int
	Payload any
}

// Handler receives packets delivered to an attachment point. The *Packet is
// the mesh's own entry, lent for the call: it is valid only until the
// handler returns, after which the mesh recycles it. A handler keeps the
// Payload (or a copy of the Packet), never the pointer.
type Handler func(*Packet)

// Params are the mesh timing parameters.
type Params struct {
	RouterDelay sim.Time // per-hop router pipeline latency, cycles
	LinkDelay   sim.Time // per-hop wire latency, cycles
	Width       int      // mesh width (tiles per row)
	Height      int      // mesh height (rows)
}

// DefaultParams returns the mesh timing every prototype builds, for a w x h
// mesh: router and link delays calibrated so a 12-tile node reproduces the
// paper's ~100-cycle intra-node round trip (Fig. 7).
func DefaultParams(w, h int) Params {
	return Params{RouterDelay: 3, LinkDelay: 2, Width: w, Height: h}
}

// chanStats is the telemetry of one NoC class, resolved when the mesh is
// built, so the send path neither builds names nor looks them up.
type chanStats struct {
	packets    *sim.Counter
	flits      *sim.Counter
	hopCycles  *sim.Counter
	waitCycles *sim.Counter // cycles spent queued on busy links
	inflight   *sim.Gauge   // packets in flight on this class
	latency    *sim.Histogram
}

// Mesh is one node's three-network mesh interconnect.
type Mesh struct {
	eng   *sim.Engine
	name  string
	p     Params
	stats *sim.Stats
	tiles []Handler
	exit  [2]Handler // chipset, bridge
	// nextFree[class][link] is the earliest time the link can accept the
	// next packet. Links are indexed per directed edge; see linkIndex.
	nextFree [][]sim.Time
	cs       [numClasses]chanStats
	// Per-link traffic accounting, kept in flat arrays on the hot path and
	// published to the Stats registry by FlushLinkStats.
	linkFlits [numClasses][]uint64
	linkBusy  [numClasses][]sim.Time
	deliverFn func(any) // bound once; arg is the *Packet to deliver
	// free holds the packet entries not in flight. Send copies the
	// caller's packet into one and deliver returns it once the handler is
	// done, so a packet costs no allocation in steady state. A mesh belongs
	// to one node and so to one engine, which is the only goroutine that
	// touches the list.
	free sim.FreeList[Packet]
}

// New creates a mesh with nTiles = p.Width*p.Height tile ports.
func New(eng *sim.Engine, name string, p Params, stats *sim.Stats) *Mesh {
	if p.Width <= 0 || p.Height <= 0 {
		panic("noc: mesh dimensions must be positive")
	}
	n := p.Width * p.Height
	m := &Mesh{
		eng:   eng,
		name:  name,
		p:     p,
		stats: stats,
		tiles: make([]Handler, n),
	}
	m.deliverFn = func(pkt any) { m.deliver(pkt.(*Packet)) }
	// Directed links: 4 per tile (N/E/S/W) plus 2 exit links at tile 0.
	links := n*4 + 4
	m.nextFree = make([][]sim.Time, numClasses)
	for c := range m.nextFree {
		m.nextFree[c] = make([]sim.Time, links)
		m.linkFlits[c] = make([]uint64, links)
		m.linkBusy[c] = make([]sim.Time, links)
	}
	for c := Class(0); c < numClasses; c++ {
		base := name + "." + c.String()
		m.cs[c] = chanStats{
			packets:    stats.Counter(base + ".packets"),
			flits:      stats.Counter(base + ".flits"),
			hopCycles:  stats.Counter(base + ".hop_cycles"),
			waitCycles: stats.Counter(base + ".wait_cycles"),
			inflight:   stats.Gauge(base + ".inflight"),
			latency:    stats.Histogram(base + ".latency"),
		}
	}
	return m
}

// Tiles returns the number of tile ports.
func (m *Mesh) Tiles() int { return len(m.tiles) }

// AttachTile registers the delivery handler for a tile port.
func (m *Mesh) AttachTile(tile int, h Handler) {
	m.tiles[tile] = h
}

// AttachChipset registers the chipset port handler.
func (m *Mesh) AttachChipset(h Handler) { m.exit[0] = h }

// AttachBridge registers the inter-node bridge port handler.
func (m *Mesh) AttachBridge(h Handler) { m.exit[1] = h }

// coord returns the (x, y) mesh position of a tile index (row-major).
func (m *Mesh) coord(tile int) (x, y int) {
	return tile % m.p.Width, tile / m.p.Width
}

const (
	dirN = iota
	dirE
	dirS
	dirW
)

// linkIndex returns the reservation slot for the directed link leaving tile
// t in direction dir. Exit links use the tail slots.
func (m *Mesh) linkIndex(t, dir int) int { return t*4 + dir }

func (m *Mesh) exitLink(which int) int { return len(m.tiles)*4 + which*2 }

// forEachLink walks the sequence of directed links from src to dst using XY
// (dimension-ordered) routing: X first, then Y. Off-mesh destinations route
// to tile 0 and then take the exit link. The visitor form (instead of
// returning a slice) keeps routing allocation-free: callers' closures stay
// on the stack because visit never escapes.
func (m *Mesh) forEachLink(src, dst Dest, visit func(link int)) {
	from := 0
	if src.Port == PortTile {
		from = src.Tile
	}
	to := 0
	if dst.Port == PortTile {
		to = dst.Tile
	}
	// Entering from an exit port first crosses the exit link inbound. We
	// reuse the same reservation slot for both directions; inter-node and
	// chipset traffic is low-rate enough that this is a fair serialization
	// point, matching the single physical channel at tile 0.
	if src.Port == PortChipset {
		visit(m.exitLink(0))
	}
	if src.Port == PortBridge {
		visit(m.exitLink(1))
	}
	x, y := m.coord(from)
	dx, dy := m.coord(to)
	cur := from
	for x != dx {
		if x < dx {
			visit(m.linkIndex(cur, dirE))
			x++
		} else {
			visit(m.linkIndex(cur, dirW))
			x--
		}
		cur = y*m.p.Width + x
	}
	for y != dy {
		if y < dy {
			visit(m.linkIndex(cur, dirS))
			y++
		} else {
			visit(m.linkIndex(cur, dirN))
			y--
		}
		cur = y*m.p.Width + x
	}
	if dst.Port == PortChipset {
		visit(m.exitLink(0))
	}
	if dst.Port == PortBridge {
		visit(m.exitLink(1))
	}
}

// HopCount returns the number of links a packet from src to dst crosses.
// It is exported for latency analysis and tests.
func (m *Mesh) HopCount(src, dst Dest) int {
	n := 0
	m.forEachLink(src, dst, func(int) { n++ })
	return n
}

// Send injects a copy of pkt: the caller keeps pkt and may reuse it or
// leave it on its stack. Delivery is scheduled after routing and
// serialization delays; the destination handler runs as a simulation event
// and receives the mesh's copy (see Handler).
func (m *Mesh) Send(pkt *Packet) {
	if pkt.Flits <= 0 {
		panic("noc: packet must have at least one flit")
	}
	now := m.eng.Now()
	t := now
	var wait sim.Time
	serial := sim.Time(pkt.Flits)
	free := m.nextFree[pkt.Class]
	flits := uint64(pkt.Flits)
	lf := m.linkFlits[pkt.Class]
	lb := m.linkBusy[pkt.Class]
	hops := 0
	m.forEachLink(pkt.Src, pkt.Dst, func(l int) {
		hops++
		// Router pipeline + wire for this hop.
		t += m.p.RouterDelay + m.p.LinkDelay
		// Link serialization: wait if a previous packet still occupies it.
		if free[l] > t {
			wait += free[l] - t
			t = free[l]
		}
		free[l] = t + serial
		lf[l] += flits
		lb[l] += serial
	})
	if hops == 0 {
		// Same-port delivery still pays one router traversal.
		t += m.p.RouterDelay
	}
	cs := &m.cs[pkt.Class]
	cs.packets.Inc()
	cs.flits.Add(flits)
	cs.hopCycles.Add(uint64(t - now))
	cs.waitCycles.Add(uint64(wait))
	cs.inflight.Inc()
	cs.latency.Observe(uint64(t - now))
	e := m.free.Get()
	*e = *pkt
	m.eng.AtArg(t, m.deliverFn, e)
}

// Dims returns the mesh's width and height in tiles.
func (m *Mesh) Dims() (w, h int) { return m.p.Width, m.p.Height }

// LinkStat is one directed link's cumulative traffic.
type LinkStat struct {
	Flits uint64 `json:"flits"`
	Busy  uint64 `json:"busy"` // cycles the link was serializing flits
}

// LinkStatsSnapshot copies the per-link traffic accounting of every NoC
// class into plain values: result[class][link], with links indexed as the
// mesh reserves them (tile*4 + direction N/E/S/W, then the chipset and
// bridge exit links at the tail — see linkIndex/exitLink). Unlike
// FlushLinkStats it mutates nothing, so the observability layer can call it
// at quiescent boundaries without perturbing the stats registry.
func (m *Mesh) LinkStatsSnapshot() [][]LinkStat {
	out := make([][]LinkStat, numClasses)
	for c := Class(0); c < numClasses; c++ {
		links := make([]LinkStat, len(m.linkFlits[c]))
		for l := range links {
			links[l] = LinkStat{Flits: m.linkFlits[c][l], Busy: uint64(m.linkBusy[c][l])}
		}
		out[c] = links
	}
	return out
}

// FlushLinkStats publishes the per-link flit and busy-cycle totals into the
// Stats registry under "<mesh>.<class>.linkNNN.{flits,busy_cycles}". It
// assigns (rather than accumulates) counter values, so calling it repeatedly
// is idempotent. Links that never carried traffic are skipped.
func (m *Mesh) FlushLinkStats() {
	for c := Class(0); c < numClasses; c++ {
		for l := range m.linkFlits[c] {
			f, busy := m.linkFlits[c][l], m.linkBusy[c][l]
			if f == 0 && busy == 0 {
				continue
			}
			prefix := fmt.Sprintf("%s.%s.link%03d", m.name, c, l)
			m.stats.Counter(prefix + ".flits").Value = f
			m.stats.Counter(prefix + ".busy_cycles").Value = uint64(busy)
		}
	}
}

// CaptureState records the mesh's timing state: per-link reservation clocks
// and cumulative per-link traffic. No packet is in flight at a quiescent
// safepoint, so the reservation arrays fully determine future link behavior.
func (m *Mesh) CaptureState() ckpt.NoCState {
	st := ckpt.NoCState{
		NextFree:  make([][]uint64, numClasses),
		LinkFlits: make([][]uint64, numClasses),
		LinkBusy:  make([][]uint64, numClasses),
	}
	for c := 0; c < int(numClasses); c++ {
		st.NextFree[c] = make([]uint64, len(m.nextFree[c]))
		for l, t := range m.nextFree[c] {
			st.NextFree[c][l] = uint64(t)
		}
		st.LinkFlits[c] = append([]uint64(nil), m.linkFlits[c]...)
		st.LinkBusy[c] = make([]uint64, len(m.linkBusy[c]))
		for l, t := range m.linkBusy[c] {
			st.LinkBusy[c][l] = uint64(t)
		}
	}
	return st
}

// RestoreState overlays a captured timing state onto a freshly built mesh.
func (m *Mesh) RestoreState(st ckpt.NoCState) error {
	if len(st.NextFree) != int(numClasses) || len(st.LinkFlits) != int(numClasses) || len(st.LinkBusy) != int(numClasses) {
		return &ckpt.CorruptError{Reason: fmt.Sprintf("%s: snapshot has %d NoC classes, mesh has %d", m.name, len(st.NextFree), numClasses)}
	}
	for c := 0; c < int(numClasses); c++ {
		// All three columns are per link; one of the wrong length would index
		// (LinkBusy) or silently truncate (LinkFlits) past the mesh's.
		for _, n := range []int{len(st.NextFree[c]), len(st.LinkFlits[c]), len(st.LinkBusy[c])} {
			if n != len(m.nextFree[c]) {
				return &ckpt.MismatchError{Field: m.name + " link count",
					Got: fmt.Sprint(n), Want: fmt.Sprint(len(m.nextFree[c]))}
			}
		}
		for l, t := range st.NextFree[c] {
			m.nextFree[c][l] = sim.Time(t)
		}
		copy(m.linkFlits[c], st.LinkFlits[c])
		for l, t := range st.LinkBusy[c] {
			m.linkBusy[c][l] = sim.Time(t)
		}
	}
	return nil
}

func (m *Mesh) deliver(pkt *Packet) {
	m.cs[pkt.Class].inflight.Dec()
	var h Handler
	switch pkt.Dst.Port {
	case PortTile:
		h = m.tiles[pkt.Dst.Tile]
	case PortChipset:
		h = m.exit[0]
	case PortBridge:
		h = m.exit[1]
	}
	if h == nil {
		panic(fmt.Sprintf("noc: %s: no handler attached at %+v", m.name, pkt.Dst))
	}
	h(pkt)
	*pkt = Packet{}
	m.free.Put(pkt)
}
