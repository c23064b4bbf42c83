// Package shell models the AWS F1 Hard Shell (HS): the fixed partition of
// each F1 FPGA that converts the host/peer PCIe connection into the AXI4
// interfaces Custom Logic (CL) sees (paper Fig. 2).
//
// The shell owns one PCIe endpoint. Traffic arriving over PCIe is converted
// to AXI4 and forwarded to the CL's inbound port; outbound AXI4 from the CL
// is converted to PCIe transfers routed by address. The shell's AXI-Lite
// taps are not modeled: the host reaches the console UART directly.
package shell

import (
	"fmt"

	"smappic/internal/axi"
	"smappic/internal/pcie"
	"smappic/internal/sim"
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

// Do converts a transfer arriving over PCIe and forwards it to the CL.
func (in *inbound) Do(t *axi.Txn, done func(axi.Resp)) {
	s := (*Shell)(in)
	if s.cl == nil {
		done(axi.Resp{ID: t.ID, OK: false})
		return
	}
	s.inFwd.Do(ConversionDelay, s.cl, t, done)
}
