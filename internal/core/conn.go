package core

import (
	"fmt"

	"smappic/internal/bridge"
	"smappic/internal/cache"
	"smappic/internal/interrupt"
	"smappic/internal/mem"
	"smappic/internal/noc"
	"smappic/internal/sim"
)

// nodeConn implements cache.Conn for one node: local destinations go over
// the mesh; remote destinations are wrapped in a bridge envelope, routed to
// the bridge port, and re-injected into the destination node's mesh.
type nodeConn struct{ n *Node }

func (c nodeConn) SendProto(from, to cache.GID, msg *cache.Msg) {
	c.n.send(msg.Class(), noc.Dest{Port: noc.PortTile, Tile: from.Tile},
		to.Node, noc.Dest{Port: noc.PortTile, Tile: to.Tile}, msg.Flits(), msg)
}

// send puts a packet from src on the node's mesh toward dst on node dstNode:
// straight to dst when that is this node, otherwise to the bridge port
// wrapped in a bridge.Envelope that the destination node's bridge injects
// toward dst. The mesh copies the packet, so it stays on the stack: the
// envelope is a message's one allocation.
func (n *Node) send(cls noc.Class, src noc.Dest, dstNode int, dst noc.Dest, flits int, payload any) {
	if dstNode == n.ID {
		n.Mesh.Send(&noc.Packet{Class: cls, Src: src, Dst: dst, Flits: flits, Payload: payload})
		return
	}
	n.Mesh.Send(&noc.Packet{
		Class: cls, Src: src,
		Dst:   noc.Dest{Port: noc.PortBridge},
		Flits: flits,
		Payload: &bridge.Envelope{
			SrcNode: n.ID, DstNode: dstNode,
			DstPort: dst.Port, DstTile: dst.Tile,
			Class: cls, Flits: flits, Payload: payload,
		},
	})
}

func (c nodeConn) SendMem(from cache.GID, req *mem.Req) {
	// The memory controller works in node-local offsets; strip the node's
	// region base. Size of the NoC packet: write requests carry the line.
	req.Addr = (req.Addr - DRAMBase) % NodeDRAMSize
	data := 0
	if req.Write {
		data = req.Size
	}
	c.n.Mesh.Send(&noc.Packet{
		Class:   noc.NoC3,
		Src:     noc.Dest{Port: noc.PortTile, Tile: from.Tile},
		Dst:     noc.Dest{Port: noc.PortChipset},
		Flits:   mem.FlitsFor(data),
		Payload: req,
	})
}

// mmioReq is an uncacheable device access travelling over the NoC to the
// chipset (or an accelerator tile), with its answer riding back in resp.
// Each Port owns one record: its process is parked while the access is out,
// so a port never has two. When the device sits on another node, that
// node's engine fills in the serving fields and resp while the port's
// process is parked; the request and the response each cross engines as a
// message, which the window barrier orders.
type mmioReq struct {
	write bool
	addr  uint64
	size  int
	val   uint64
	src   noc.Dest

	// Where the access is served, set on arrival: the chipset device
	// region (node, dev) or the accelerator tile, and the offset within it.
	node *Node
	dev  *devRegion
	tile *Tile
	off  uint64

	resp mmioResp
}

// mmioResp carries the device's answer back to the requesting tile; done
// stands in for the response packet's routing information.
type mmioResp struct {
	val  uint64
	done func(val uint64)
}

// tileHandler dispatches packets delivered to a tile port.
func (p *Prototype) tileHandler(t *Tile) noc.Handler {
	// The tile's trace track is fixed for the prototype's lifetime; compute
	// it once so the hot path never formats strings.
	track := fmt.Sprintf("node%d.tile%d", t.ID.Node, t.ID.Tile)
	n := t.node
	return func(pkt *noc.Packet) {
		switch m := pkt.Payload.(type) {
		case *cache.Msg:
			if n.Tracer.Enabled() {
				n.Tracer.EmitT(track, sim.CatCoherence, "%v line=%#x req=%v at tile %v", m.Op, m.Line, m.Req, t.ID)
			}
			switch m.Op {
			case cache.GetS, cache.GetM, cache.PutS, cache.PutM, cache.InvAck, cache.DownAck:
				t.LLC.HandleMsg(m)
			default:
				t.Priv.HandleMsg(m)
			}
		case *mem.Req: // a memory response: the slice's request come back
			t.LLC.HandleMemResp(m)
		case *interrupt.Change:
			t.Depack.Handle(m)
		case *mmioReq:
			p.accelAccess(t, m)
		case *mmioResp:
			m.done(m.val)
		default:
			panic(fmt.Sprintf("core: tile %v: unexpected payload %T", t.ID, pkt.Payload))
		}
	}
}

// accelMMIOLatency is the device-side cost of a non-cacheable accelerator
// access (the TRI/NIU serialization that makes uncached loads slow on the
// real platform, ~40-60 cycles end to end).
const accelMMIOLatency sim.Time = 26

// accelAccess serves an uncacheable access to a tile-resident accelerator.
func (p *Prototype) accelAccess(t *Tile, m *mmioReq) {
	if t.Accel == nil {
		panic(fmt.Sprintf("core: tile %v has no accelerator but received MMIO %#x", t.ID, m.addr))
	}
	off := p.Map.DevOffset(m.addr)
	_, devOff, ok := p.Map.AccelTile(off)
	if !ok {
		panic(fmt.Sprintf("core: bad accelerator address %#x", m.addr))
	}
	m.tile, m.off = t, devOff
	t.node.eng.ScheduleArg(accelMMIOLatency, accelStep, m)
}

// accelStep performs an accelerator access after its latency and answers
// it; arg is the *mmioReq.
func accelStep(arg any) {
	m := arg.(*mmioReq)
	t := m.tile
	m.resp.val = 0
	if !m.write {
		m.resp.val = t.Accel.Read(m.off, m.size)
	}
	t.node.Mesh.Send(&noc.Packet{
		Class:   noc.NoC2,
		Src:     noc.Dest{Port: noc.PortTile, Tile: t.ID.Tile},
		Dst:     m.src,
		Flits:   2,
		Payload: &m.resp,
	})
}

// chipsetHandler demuxes chipset-port traffic: memory requests to the
// controller, MMIO to the devices.
func (p *Prototype) chipsetHandler(n *Node) noc.Handler {
	return func(pkt *noc.Packet) {
		switch m := pkt.Payload.(type) {
		case *mem.Req:
			n.MemCtl.Handle(pkt)
		case *mmioReq:
			p.deviceAccess(n, m)
		default:
			panic(fmt.Sprintf("core: node%d chipset: unexpected payload %T", n.ID, pkt.Payload))
		}
	}
}

// deviceAccess serves an uncacheable access to a chipset device.
func (p *Prototype) deviceAccess(n *Node, m *mmioReq) {
	off := p.Map.DevOffset(m.addr)
	for i := range n.devices {
		if r := &n.devices[i]; off >= r.base && off < r.base+r.size {
			m.node, m.dev, m.off = n, r, off-r.base
			n.eng.ScheduleArg(r.latency, deviceStep, m)
			return
		}
	}
	panic(fmt.Sprintf("core: node%d: no device at offset %#x", n.ID, off))
}

// deviceStep performs a chipset device access after its latency and
// answers it; arg is the *mmioReq.
func deviceStep(arg any) {
	m := arg.(*mmioReq)
	n, r := m.node, m.dev
	var val uint64
	if m.write {
		r.dev.Write(m.off, m.size, m.val)
	} else {
		val = r.dev.Read(m.off, m.size)
	}
	if n.Tracer.Enabled() {
		n.Tracer.EmitT(n.Name(), sim.CatMMIO, "%s %s off=%#x val=%#x", rw(m.write), r.dev.Name(), m.off, val|m.val)
	}
	m.resp.val = val
	n.Mesh.Send(&noc.Packet{
		Class:   noc.NoC2,
		Src:     noc.Dest{Port: noc.PortChipset},
		Dst:     m.src,
		Flits:   2,
		Payload: &m.resp,
	})
}

// sendInterrupt routes a packetizer change to the owning hart's tile, which
// may be on another node (the scalability problem §3.3 solves).
func (p *Prototype) sendInterrupt(from *Node, hart int, c *interrupt.Change) {
	dst := p.hartLoc(hart)
	from.send(noc.NoC2, noc.Dest{Port: noc.PortChipset},
		dst.Node, noc.Dest{Port: noc.PortTile, Tile: dst.Tile}, interrupt.Flits, c)
}

// sendMMIO issues an uncacheable access from a tile and wires its response.
func (p *Prototype) sendMMIO(t *Tile, m *mmioReq) {
	off := p.Map.DevOffset(m.addr)
	m.src = noc.Dest{Port: noc.PortTile, Tile: t.ID.Tile}
	dst := noc.Dest{Port: noc.PortChipset}
	if tile, _, ok := p.Map.AccelTile(off); ok {
		dst = noc.Dest{Port: noc.PortTile, Tile: tile}
	}
	t.node.send(noc.NoC1, m.src, p.Map.DevNode(m.addr), dst, 3, m)
}

// rw labels an access direction in traces.
func rw(write bool) string {
	if write {
		return "write"
	}
	return "read"
}
