// Package shell models the AWS F1 Hard Shell (HS): the fixed partition of
// each F1 FPGA that converts the host/peer PCIe connection into the AXI4 and
// AXI-Lite interfaces Custom Logic (CL) sees (paper Fig. 2).
//
// The shell owns one PCIe endpoint. Traffic arriving over PCIe is converted
// to AXI4 and forwarded to the CL's inbound port, except for the AXI-Lite
// aperture, which the shell decodes itself onto up to three register taps
// (used in SMAPPIC for the UART tunnel and management). Outbound AXI4 from
// the CL is converted to PCIe transfers routed by address.
package shell

import (
	"encoding/binary"
	"fmt"

	"smappic/internal/axi"
	"smappic/internal/pcie"
	"smappic/internal/sim"
)

// NumLiteTaps is the number of AXI-Lite interfaces the F1 shell provides.
const NumLiteTaps = 3

// LiteTapBase is the offset of the AXI-Lite aperture inside an FPGA's PCIe
// window; tap i occupies [LiteTapBase + i*LiteTapSize, +LiteTapSize).
const (
	LiteTapBase axi.Addr = 1 << 39
	LiteTapSize uint64   = 1 << 24
)

// ConversionDelay is the PCIe<->AXI4 conversion latency inside the shell,
// in cycles. One conversion on each side of each crossing brings the
// measured fabric RTT to the paper's ~125 cycles.
const ConversionDelay sim.Time = 1

// Shell is one FPGA's hard shell.
type Shell struct {
	eng    *sim.Engine
	id     int
	fabric *pcie.Fabric
	cl     axi.Target
	lite   [NumLiteTaps]axi.LiteTarget
	stats  *sim.Stats

	cErrors *sim.Counter // outbound responses with OK:false crossing the CL

	outb   outbound       // the one outbound master, handed out by Outbound
	outOps []*outOp       // free list of outbound conversion records
	inFwd  *axi.Forwarder // inbound PCIe->AXI4 conversion toward the CL
}

// New creates the shell for FPGA id and attaches it to the fabric.
func New(eng *sim.Engine, fabric *pcie.Fabric, id int, stats *sim.Stats) *Shell {
	s := &Shell{eng: eng, id: id, fabric: fabric, stats: stats}
	if stats != nil {
		s.cErrors = stats.Counter(fmt.Sprintf("fpga%d.shell.axi_errors", id))
	}
	s.outb.s = s
	s.inFwd = axi.NewForwarder(eng)
	fabric.Attach(id, (*inbound)(s))
	return s
}

// SetCustomLogic registers the CL's inbound AXI4 port.
func (s *Shell) SetCustomLogic(t axi.Target) { s.cl = t }

// RegisterLite installs a register file behind AXI-Lite tap i.
func (s *Shell) RegisterLite(i int, t axi.LiteTarget) {
	if i < 0 || i >= NumLiteTaps {
		panic(fmt.Sprintf("shell: lite tap %d out of range", i))
	}
	s.lite[i] = t
}

// LiteAddr returns the global PCIe address of register reg behind tap i of
// this FPGA, as a host program would compute it from the BAR mapping.
func (s *Shell) LiteAddr(tap int, reg axi.Addr) axi.Addr {
	base, _ := s.fabric.Window(s.id)
	return base + LiteTapBase + axi.Addr(uint64(tap)*LiteTapSize) + reg
}

// Outbound returns the CL's outbound AXI4 master: requests are converted to
// PCIe and routed by address (to peer FPGAs or the host).
func (s *Shell) Outbound() axi.Target { return &s.outb }

type outbound struct{ s *Shell }

// outOp is one pooled outbound conversion: AXI4 in from the CL, PCIe issue
// after the conversion delay, and the response converted back. Its stage
// callbacks are built once when the record is created, so a steady-state
// transaction allocates nothing in the shell.
type outOp struct {
	txn  *axi.Txn
	done func(axi.Resp)
	resp axi.Resp

	issueFn  func()         // stage 1: issue on the PCIe master
	respFn   func(axi.Resp) // the PCIe response, converted after a delay
	finishFn func()         // stage 2: deliver the converted response
}

func newOutOp(s *Shell) *outOp {
	o := &outOp{}
	o.issueFn = func() { s.fabric.Master(s.id).Do(o.txn, o.respFn) }
	o.respFn = func(r axi.Resp) {
		if !r.OK {
			s.cErrors.Inc()
		}
		o.resp = r
		s.eng.Schedule(ConversionDelay, o.finishFn)
	}
	o.finishFn = func() {
		done, resp := o.done, o.resp
		// Recycle before delivering: the completion may issue the next
		// outbound transfer synchronously.
		o.txn, o.done, o.resp = nil, nil, axi.Resp{}
		s.outOps = append(s.outOps, o)
		done(resp)
	}
	return o
}

func (o *outbound) Do(t *axi.Txn, done func(axi.Resp)) {
	s := o.s
	var op *outOp
	if n := len(s.outOps); n > 0 {
		op = s.outOps[n-1]
		s.outOps = s.outOps[:n-1]
	} else {
		op = newOutOp(s)
	}
	op.txn, op.done = t, done
	s.eng.Schedule(ConversionDelay, op.issueFn)
}

// inbound is the shell's PCIe-facing target (what the fabric delivers to).
type inbound Shell

func (in *inbound) isLite(addr axi.Addr) (tap int, reg axi.Addr, ok bool) {
	if addr < LiteTapBase {
		return 0, 0, false
	}
	off := uint64(addr - LiteTapBase)
	tap = int(off / LiteTapSize)
	if tap >= NumLiteTaps {
		return 0, 0, false
	}
	return tap, axi.Addr(off % LiteTapSize), true
}

// Do converts a transfer arriving over PCIe: the AXI-Lite aperture is
// decoded by the shell itself, anything else goes to the CL.
func (in *inbound) Do(t *axi.Txn, done func(axi.Resp)) {
	s := (*Shell)(in)
	if tap, reg, ok := in.isLite(t.Addr); ok {
		s.eng.Schedule(ConversionDelay, func() { done(s.liteAccess(tap, reg, t)) })
		return
	}
	if s.cl == nil {
		done(axi.Resp{ID: t.ID, OK: false})
		return
	}
	s.inFwd.Do(ConversionDelay, s.cl, t, done)
}

// liteAccess performs one 32-bit register access behind AXI-Lite tap tap.
func (s *Shell) liteAccess(tap int, reg axi.Addr, t *axi.Txn) axi.Resp {
	regs := s.lite[tap]
	if regs == nil || t.Write && len(t.Data) < 4 {
		return axi.Resp{ID: t.ID, OK: false}
	}
	if t.Write {
		regs.WriteReg(reg, binary.LittleEndian.Uint32(t.Data))
		return axi.Resp{ID: t.ID, OK: true}
	}
	return axi.Resp{ID: t.ID, OK: true, Data: binary.LittleEndian.AppendUint32(nil, regs.ReadReg(reg))}
}
