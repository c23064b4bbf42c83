package pcie

import (
	"testing"

	"smappic/internal/axi"
	"smappic/internal/fault"
	"smappic/internal/sim"
)

func TestDoubleAttachPanics(t *testing.T) {
	f := newFabric(sim.NewEngine(), &sim.Stats{}, nil)
	f.Attach(1, &echoTarget{})
	defer func() {
		if recover() == nil {
			t.Error("double Attach(1) did not panic")
		}
	}()
	f.Attach(1, &echoTarget{})
}

func TestReliableDeliveryUnderDrops(t *testing.T) {
	eng := sim.NewEngine()
	var st sim.Stats
	f := newFabric(eng, &st, fault.MustParse("pcie.ep0.link.drop:p=0.3", 11))
	dst := &echoTarget{}
	f.Attach(1, dst)
	base, _ := f.Window(1)

	oks := 0
	const n = 100
	for i := 0; i < n; i++ {
		f.Master(0).Do(&axi.Txn{Write: true, Addr: base + axi.Addr(i*64), Data: make([]byte, 64)},
			func(r axi.Resp) {
				if r.OK {
					oks++
				}
			})
	}
	eng.Run()
	if oks != n {
		t.Fatalf("%d/%d writes delivered under 30%% loss", oks, n)
	}
	if len(dst.writes) != n {
		t.Fatalf("destination applied %d writes, want exactly %d (dedup broken)", len(dst.writes), n)
	}
	if st.Get("pcie.ep0.retransmits") == 0 {
		t.Error("no retransmits counted under 30% loss")
	}
	if st.Get("pcie.ep0.link_drops") == 0 {
		t.Error("no drops counted")
	}
}

func TestCorruptionIsRetransmitted(t *testing.T) {
	eng := sim.NewEngine()
	var st sim.Stats
	f := newFabric(eng, &st, fault.MustParse("pcie.ep0.link.corrupt:n=1", 3))
	f.Attach(1, &echoTarget{})
	base, _ := f.Window(1)
	var resp *axi.Resp
	f.Master(0).Do(&axi.Txn{Addr: base, Len: 64}, func(r axi.Resp) { resp = &r })
	eng.Run()
	if resp == nil || !resp.OK {
		t.Fatal("read did not survive one corrupted request")
	}
	if st.Get("pcie.ep0.link_corrupt") != 1 || st.Get("pcie.ep0.retransmits") != 1 {
		t.Fatalf("corrupt=%d retransmits=%d, want 1/1",
			st.Get("pcie.ep0.link_corrupt"), st.Get("pcie.ep0.retransmits"))
	}
}

func TestHungEndpointGivesUpWithError(t *testing.T) {
	eng := sim.NewEngine()
	var st sim.Stats
	f := newFabric(eng, &st, fault.MustParse("pcie.ep0.link.hang", 1))
	f.Attach(1, &echoTarget{})
	base, _ := f.Window(1)
	var resp *axi.Resp
	f.Master(0).Do(&axi.Txn{Write: true, Addr: base, Data: make([]byte, 64)}, func(r axi.Resp) { resp = &r })
	eng.Run()
	if resp == nil {
		t.Fatal("hung link must produce a response, not a silent hang")
	}
	if resp.OK {
		t.Fatal("hung link produced OK:true")
	}
	if st.Get("pcie.ep0.link_failed") != 1 {
		t.Fatalf("link_failed = %d, want 1", st.Get("pcie.ep0.link_failed"))
	}
	if st.Get("pcie.ep0.retransmits") != maxAttempts-1 {
		t.Fatalf("retransmits = %d, want %d", st.Get("pcie.ep0.retransmits"), maxAttempts-1)
	}
	if g := st.Get("pcie.ep0.inflight"); g != 0 {
		t.Fatalf("inflight gauge leaked: %d", g)
	}
}

// TestFaultFreePlanMatchesNoInjector pins the zero-cost property: an injector
// whose rules never fire must leave transfer timing identical to no injector
// at all.
func TestFaultFreePlanMatchesNoInjector(t *testing.T) {
	run := func(inj bool) sim.Time {
		eng := sim.NewEngine()
		var plan *fault.Plan
		if inj {
			plan = fault.MustParse("pcie.*.drop:p=0", 1)
		}
		f := newFabric(eng, &sim.Stats{}, plan)
		f.Attach(1, &echoTarget{})
		base, _ := f.Window(1)
		var at sim.Time
		for i := 0; i < 10; i++ {
			f.Master(0).Do(&axi.Txn{Write: true, Addr: base, Data: make([]byte, 256)},
				func(axi.Resp) { at = eng.Now() })
		}
		eng.Run()
		return at
	}
	if a, b := run(false), run(true); a != b {
		t.Fatalf("fault-free plan changed timing: %d vs %d", a, b)
	}
}

func TestDelayFaultAddsLatency(t *testing.T) {
	rtt := func(spec string) sim.Time {
		eng := sim.NewEngine()
		f := newFabric(eng, &sim.Stats{}, fault.MustParse(spec, 1))
		f.Attach(1, &echoTarget{})
		base, _ := f.Window(1)
		var at sim.Time
		f.Master(0).Do(&axi.Txn{Addr: base, Len: 24}, func(axi.Resp) { at = eng.Now() })
		eng.Run()
		return at
	}
	clean := rtt("")
	delayed := rtt("pcie.ep0.link.delay:cycles=40,n=1")
	if delayed != clean+40 {
		t.Fatalf("delay fault: rtt %d vs clean %d, want +40", delayed, clean)
	}
}
