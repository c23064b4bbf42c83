package pcie

import (
	"errors"
	"testing"

	"smappic/internal/axi"
	"smappic/internal/ckpt"
	"smappic/internal/fault"
	"smappic/internal/sim"
)

// newFabric builds a fabric whose every endpoint, the host's included, is
// bound to eng and stats; plan (nil: none) is its fault plan.
func newFabric(eng *sim.Engine, stats *sim.Stats, plan *fault.Plan) *Fabric {
	f := New(sim.NewSerialNet(eng), fault.NewInjector(plan))
	for id := HostID; id < MaxFPGAs; id++ {
		f.Bind(id, eng, stats)
	}
	return f
}

// echoTarget acks writes, keeping them, and returns zeroed data for reads.
type echoTarget struct {
	writes []axi.Txn
}

func (e *echoTarget) Do(t *axi.Txn, done func(axi.Resp)) {
	if t.Write {
		e.writes = append(e.writes, *t)
		done(axi.Resp{ID: t.ID, OK: true})
		return
	}
	done(axi.Resp{ID: t.ID, Data: make([]byte, t.Len), OK: true})
}

func TestRouteByWindow(t *testing.T) {
	f := newFabric(sim.NewEngine(), &sim.Stats{}, nil)
	for i := 0; i < MaxFPGAs; i++ {
		base, _ := f.Window(i)
		if got := f.RouteOf(base); got != i {
			t.Errorf("RouteOf(window %d base) = %d", i, got)
		}
		if got := f.RouteOf(base + 12345); got != i {
			t.Errorf("RouteOf(window %d interior) = %d", i, got)
		}
	}
	if got := f.RouteOf(0x1000); got != HostID {
		t.Errorf("RouteOf(low addr) = %d, want host", got)
	}
}

func TestLocalAddrStripsWindow(t *testing.T) {
	f := newFabric(sim.NewEngine(), &sim.Stats{}, nil)
	base, _ := f.Window(2)
	if got := f.LocalAddr(base + 0xABC); got != 0xABC {
		t.Errorf("LocalAddr = %#x, want 0xABC", got)
	}
	if got := f.LocalAddr(0x5000); got != 0x5000 {
		t.Errorf("host LocalAddr = %#x, want unchanged", got)
	}
}

func TestFPGAToFPGAWriteBypassesHost(t *testing.T) {
	eng := sim.NewEngine()
	f := newFabric(eng, &sim.Stats{}, nil)
	host := &echoTarget{}
	fpga1 := &echoTarget{}
	f.Attach(HostID, host)
	f.Attach(1, fpga1)

	base, _ := f.Window(1)
	var resp *axi.Resp
	f.Master(0).Do(&axi.Txn{Write: true, Addr: base + 0x40, Data: make([]byte, 64)}, func(r axi.Resp) { resp = &r })
	eng.Run()
	if resp == nil || !resp.OK {
		t.Fatal("write did not complete")
	}
	if len(host.writes) != 0 {
		t.Error("FPGA-to-FPGA transfer touched the host")
	}
	if len(fpga1.writes) != 1 || fpga1.writes[0].Addr != 0x40 {
		t.Fatalf("FPGA1 saw %+v", fpga1.writes)
	}
}

func TestRoundTripLatencyNear125Cycles(t *testing.T) {
	eng := sim.NewEngine()
	f := newFabric(eng, &sim.Stats{}, nil)
	f.Attach(1, &echoTarget{})
	base, _ := f.Window(1)

	var done sim.Time
	f.Master(0).Do(&axi.Txn{Addr: base, Len: 24}, func(r axi.Resp) { done = eng.Now() })
	eng.Run()
	// Two crossings at 60 + serialization each; the shell's conversion adds
	// the last couple of cycles toward the paper's 125-cycle RTT.
	if done < 115 || done > 130 {
		t.Fatalf("PCIe RTT = %d cycles, want ~122 (125 with shell conversion)", done)
	}
}

// TestUnattachedEndpointFails: a transfer to an endpoint with no target is a
// wiring fault, refused where it is issued.
func TestUnattachedEndpointFails(t *testing.T) {
	f := newFabric(sim.NewEngine(), &sim.Stats{}, nil)
	base, _ := f.Window(3)
	defer func() {
		if recover() == nil {
			t.Error("write to unattached endpoint 3 did not panic")
		}
	}()
	f.Master(0).Do(&axi.Txn{Write: true, Addr: base}, func(axi.Resp) { t.Error("write to unattached endpoint 3 was answered") })
}

func TestEgressSerialization(t *testing.T) {
	eng := sim.NewEngine()
	f := newFabric(eng, &sim.Stats{}, nil)
	f.Attach(1, &echoTarget{})
	base, _ := f.Window(1)

	var times []sim.Time
	// Two writes of 10 egress beats each from the same endpoint.
	for i := 0; i < 2; i++ {
		f.Master(0).Do(&axi.Txn{Write: true, Addr: base, Data: make([]byte, 10*bytesPerCycle)}, func(r axi.Resp) {
			times = append(times, eng.Now())
		})
	}
	eng.Run()
	if len(times) != 2 {
		t.Fatalf("completed %d, want 2", len(times))
	}
	if times[1]-times[0] < 10 {
		t.Errorf("second transfer not serialized: %v", times)
	}
}

func TestStatsCountTraffic(t *testing.T) {
	eng := sim.NewEngine()
	var st sim.Stats
	f := newFabric(eng, &st, nil)
	f.Attach(1, &echoTarget{})
	base, _ := f.Window(1)
	f.Master(0).Do(&axi.Txn{Write: true, Addr: base, Data: make([]byte, 64)}, func(axi.Resp) {})
	eng.Run()
	if st.Get("pcie.ep0.tx_transfers") == 0 {
		t.Error("tx_transfers not counted")
	}
	if st.Get("pcie.ep1.tx_transfers") == 0 {
		t.Error("response transfer not counted")
	}
}

func TestBadEndpointIDPanics(t *testing.T) {
	f := newFabric(sim.NewEngine(), &sim.Stats{}, nil)
	defer func() {
		if recover() == nil {
			t.Error("Bind(9) did not panic")
		}
	}()
	f.Bind(9, sim.NewEngine(), &sim.Stats{})
}

// TestUnboundEndpointPanics: an endpoint belongs to one engine from
// construction on, under one engine as under four — sending from, or
// attaching, one that was never bound is a wiring error, not a lazily
// created endpoint on some default engine.
func TestUnboundEndpointPanics(t *testing.T) {
	for _, engines := range []int{1, 4} {
		engs := make([]*sim.Engine, engines)
		for i := range engs {
			engs[i] = sim.NewEngine()
		}
		g := sim.NewGroup(MinCrossing, engs...)
		f := New(g, nil)
		for id := 0; id < 2; id++ {
			f.Bind(id, engs[id%engines], &sim.Stats{})
		}
		f.Attach(1, &echoTarget{})
		base, _ := f.Window(1)
		for name, fn := range map[string]func(){
			"send from the host": func() { f.Master(HostID).Do(&axi.Txn{Write: true, Addr: base}, func(axi.Resp) {}) },
			"send from fpga 3":   func() { f.Master(3).Do(&axi.Txn{Addr: base, Len: 8}, func(axi.Resp) {}) },
			"attach fpga 2":      func() { f.Attach(2, &echoTarget{}) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%d engines: %s did not panic", engines, name)
					}
				}()
				fn()
			}()
		}
		g.Close()
	}
}

// TestRestoreRefusesUnboundEndpoint: a snapshot endpoint this build did not
// bind is answered with a typed snapshot error, not created.
func TestRestoreRefusesUnboundEndpoint(t *testing.T) {
	f := New(sim.NewSerialNet(sim.NewEngine()), nil)
	f.Bind(0, sim.NewEngine(), &sim.Stats{})
	if err := f.RestoreState(ckpt.PCIeState{Endpoints: []ckpt.PCIeEndpointState{{ID: 0, Egress: 7}}}); err != nil {
		t.Fatalf("bound endpoint: %v", err)
	}
	for _, id := range []int{HostID, 2} {
		err := f.RestoreState(ckpt.PCIeState{Endpoints: []ckpt.PCIeEndpointState{{ID: id, Egress: 7}}})
		var me *ckpt.MismatchError
		if !errors.As(err, &me) || !ckpt.IsSnapshotError(err) {
			t.Errorf("endpoint %d: error %v, want a ckpt.MismatchError", id, err)
		}
	}
	if got := f.CaptureState().Endpoints; len(got) != 1 || got[0] != (ckpt.PCIeEndpointState{ID: 0, Egress: 7}) {
		t.Errorf("captured endpoints %+v, want only endpoint 0 at egress 7", got)
	}
}
