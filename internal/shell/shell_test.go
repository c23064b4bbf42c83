package shell

import (
	"testing"

	"smappic/internal/axi"
	"smappic/internal/pcie"
	"smappic/internal/sim"
)

// clStub acks writes, keeping them, and returns zeroed data for reads.
type clStub struct {
	writes []axi.Txn
}

func (c *clStub) Do(t *axi.Txn, done func(axi.Resp)) {
	if t.Write {
		c.writes = append(c.writes, *t)
		done(axi.Resp{ID: t.ID, OK: true})
		return
	}
	done(axi.Resp{ID: t.ID, Data: make([]byte, t.Len), OK: true})
}

type liteRegs struct{ regs map[axi.Addr]uint32 }

func (l *liteRegs) ReadReg(a axi.Addr) uint32     { return l.regs[a] }
func (l *liteRegs) WriteReg(a axi.Addr, v uint32) { l.regs[a] = v }

func setup() (*sim.Engine, *pcie.Fabric, *Shell, *Shell) {
	eng := sim.NewEngine()
	fab := pcie.New(pcie.DefaultParams(), sim.NewSerialNet(eng), nil)
	for id := pcie.HostID; id < 2; id++ {
		fab.Bind(id, eng, nil)
	}
	s0 := New(eng, fab, 0, nil)
	s1 := New(eng, fab, 1, nil)
	return eng, fab, s0, s1
}

func TestOutboundRoutesToPeerCL(t *testing.T) {
	eng, _, s0, s1 := setup()
	cl1 := &clStub{}
	s1.SetCustomLogic(cl1)

	var resp *axi.Resp
	s0.Outbound().Do(&axi.Txn{Write: true, Addr: s1.WindowAddr(0x123), Data: []byte{1}},
		func(r axi.Resp) { resp = &r })
	eng.Run()
	if resp == nil || !resp.OK {
		t.Fatal("outbound write failed")
	}
	if len(cl1.writes) != 1 || cl1.writes[0].Addr != 0x123 {
		t.Fatalf("peer CL saw %+v", cl1.writes)
	}
}

func TestInterFPGAAXIReadRTTMatchesPaper(t *testing.T) {
	eng, _, s0, s1 := setup()
	s1.SetCustomLogic(&clStub{})

	var done sim.Time
	s0.Outbound().Do(&axi.Txn{Addr: s1.WindowAddr(0), Len: 24},
		func(r axi.Resp) { done = eng.Now() })
	eng.Run()
	// Paper: inter-FPGA round trip over PCIe ~1250ns = ~125 cycles @100MHz.
	if done < 120 || done > 130 {
		t.Fatalf("inter-FPGA AXI RTT = %d cycles, want ~125", done)
	}
}

func TestLiteTapDecodedByShell(t *testing.T) {
	eng, fab, s0, _ := setup()
	regs := &liteRegs{regs: map[axi.Addr]uint32{}}
	s0.RegisterLite(1, regs)
	cl := &clStub{}
	s0.SetCustomLogic(cl)

	host := fab.Master(pcie.HostID)
	var wr *axi.Resp
	host.Do(&axi.Txn{Write: true, Addr: s0.LiteAddr(1, 0x10), Data: []byte{0xEF, 0xBE, 0xAD, 0xDE}},
		func(r axi.Resp) { wr = &r })
	eng.Run()
	if wr == nil || !wr.OK {
		t.Fatal("lite write failed")
	}
	if regs.regs[0x10] != 0xDEADBEEF {
		t.Fatalf("reg = %#x, want 0xDEADBEEF", regs.regs[0x10])
	}
	if len(cl.writes) != 0 {
		t.Error("lite write leaked into CL")
	}

	var rr *axi.Resp
	host.Do(&axi.Txn{Addr: s0.LiteAddr(1, 0x10), Len: 4}, func(r axi.Resp) { rr = &r })
	eng.Run()
	if rr == nil || !rr.OK || len(rr.Data) != 4 {
		t.Fatal("lite read failed")
	}
	got := uint32(rr.Data[0]) | uint32(rr.Data[1])<<8 | uint32(rr.Data[2])<<16 | uint32(rr.Data[3])<<24
	if got != 0xDEADBEEF {
		t.Fatalf("lite read = %#x", got)
	}
}

func TestUnregisteredLiteTapFails(t *testing.T) {
	eng, fab, s0, _ := setup()
	var rr *axi.Resp
	fab.Master(pcie.HostID).Do(&axi.Txn{Addr: s0.LiteAddr(2, 0), Len: 4},
		func(r axi.Resp) { rr = &r })
	eng.Run()
	if rr == nil || rr.OK {
		t.Fatal("read from unregistered tap should fail")
	}
}

func TestNoCustomLogicFails(t *testing.T) {
	eng, _, s0, s1 := setup()
	var wr *axi.Resp
	s0.Outbound().Do(&axi.Txn{Write: true, Addr: s1.WindowAddr(0), Data: []byte{1}},
		func(r axi.Resp) { wr = &r })
	eng.Run()
	if wr == nil || wr.OK {
		t.Fatal("write to FPGA without CL should fail")
	}
}

func TestLiteTapRangePanics(t *testing.T) {
	_, _, s0, _ := setup()
	defer func() {
		if recover() == nil {
			t.Error("RegisterLite(3) did not panic")
		}
	}()
	s0.RegisterLite(3, &liteRegs{})
}

func TestHostReachesCLDMAWindow(t *testing.T) {
	eng, fab, s0, _ := setup()
	cl := &clStub{}
	s0.SetCustomLogic(cl)
	var wr *axi.Resp
	fab.Master(pcie.HostID).Do(&axi.Txn{Write: true, Addr: s0.WindowAddr(0x8000), Data: make([]byte, 64)},
		func(r axi.Resp) { wr = &r })
	eng.Run()
	if wr == nil || !wr.OK {
		t.Fatal("host DMA write failed")
	}
	if len(cl.writes) != 1 || cl.writes[0].Addr != 0x8000 {
		t.Fatalf("CL saw %+v", cl.writes)
	}
}
