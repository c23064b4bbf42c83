package shell

import (
	"testing"

	"smappic/internal/axi"
)

// cannedCL is a peer CL that answers with fixed responses, so what a
// transfer allocates is the shell's and the fabric's own.
type cannedCL struct{ wr, rr axi.Resp }

func (c *cannedCL) Do(t *axi.Txn, done func(axi.Resp)) {
	if t.Write {
		done(c.wr)
		return
	}
	done(c.rr)
}

// TestCrossFPGAAXIZeroAlloc is the regression fence for the cross-FPGA AXI
// path: a warm outbound write or read through the shell, the PCIe fabric and
// the peer's shell allocates nothing.
func TestCrossFPGAAXIZeroAlloc(t *testing.T) {
	eng, _, s0, s1 := setup()
	s1.SetCustomLogic(&cannedCL{
		wr: axi.Resp{OK: true},
		rr: axi.Resp{OK: true, Data: make([]byte, 8)},
	})
	out := s0.Outbound()
	wr := &axi.Txn{Write: true, Addr: s1.WindowAddr(0x40), Data: make([]byte, 24)}
	rd := &axi.Txn{Addr: s1.WindowAddr(0x40), Len: 8}
	var fails int
	done := func(r axi.Resp) {
		if !r.OK {
			fails++
		}
	}
	write := func() { out.Do(wr, done); eng.Run() }
	read := func() { out.Do(rd, done); eng.Run() }
	for i := 0; i < 8; i++ {
		write()
		read()
	}
	if a := testing.AllocsPerRun(100, write); a != 0 {
		t.Errorf("cross-FPGA write: %.1f allocs, want 0", a)
	}
	if a := testing.AllocsPerRun(100, read); a != 0 {
		t.Errorf("cross-FPGA read: %.1f allocs, want 0", a)
	}
	if fails != 0 {
		t.Errorf("%d transfers answered OK:false", fails)
	}
}
