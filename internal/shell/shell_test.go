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

// TestWholeWindowReachesCL: the shell decodes no aperture of its own, so a
// host transfer anywhere in an FPGA's window — here at 1<<39, the offset of
// the F1 shell's AXI-Lite aperture — is the CL's to answer.
func TestWholeWindowReachesCL(t *testing.T) {
	eng, fab, s0, _ := setup()
	cl := &clStub{}
	s0.SetCustomLogic(cl)
	const off axi.Addr = 1 << 39
	var wr, rr *axi.Resp
	host := fab.Master(pcie.HostID)
	host.Do(&axi.Txn{Write: true, Addr: s0.WindowAddr(off), Data: []byte{1, 2, 3, 4}},
		func(r axi.Resp) { wr = &r })
	host.Do(&axi.Txn{Addr: s0.WindowAddr(off), Len: 4}, func(r axi.Resp) { rr = &r })
	eng.Run()
	if wr == nil || !wr.OK || rr == nil || !rr.OK || len(rr.Data) != 4 {
		t.Fatalf("write %+v, read %+v: want both answered OK by the CL", wr, rr)
	}
	if len(cl.writes) != 1 || cl.writes[0].Addr != off {
		t.Fatalf("CL saw %+v, want one write at %#x", cl.writes, off)
	}
}
