package core

import (
	"bytes"
	"strings"
	"testing"

	"smappic/internal/cache"
	"smappic/internal/fault"
	"smappic/internal/sim"
)

// runFaultedWorkload builds a 2-node prototype, pushes 64 cache lines to the
// remote node and reads them back (verifying the data survived whatever the
// plan injected), and returns the run's full metrics document.
func runFaultedWorkload(t *testing.T, spec string) []byte {
	t.Helper()
	cfg := DefaultConfig(2, 1, 2)
	cfg.Core = CoreNone
	if spec != "" {
		cfg.Faults = fault.MustParse(spec, 42)
	}
	p, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	port := p.PortAt(cache.GID{Node: 0, Tile: 0})
	remote := p.Map.NodeDRAMBase(1) + 0x200000
	sim.Go(p.Eng, "wl", func(proc *sim.Process) {
		for i := uint64(0); i < 64; i++ {
			port.Store(proc, remote+i*64, 8, i^0xDEAD)
		}
		for i := uint64(0); i < 64; i++ {
			if v := port.Load(proc, remote+i*64, 8); v != i^0xDEAD {
				t.Errorf("line %d read back %#x, want %#x", i, v, i^0xDEAD)
			}
		}
	})
	p.Run()
	out, err := p.MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// Same seed, same plan: the whole run — including every injected fault and
// every recovery action — must replay to byte-identical metrics.
func TestFaultedRunIsDeterministic(t *testing.T) {
	const spec = "pcie.*.drop:p=0.1;*.dram.flip:p=0.05"
	a := runFaultedWorkload(t, spec)
	b := runFaultedWorkload(t, spec)
	if !bytes.Equal(a, b) {
		t.Fatal("two runs with the same seed and plan produced different metrics")
	}
}

// A plan whose rules can never fire must not perturb the simulation at all:
// the reliable-delivery machinery may be armed, but its timers cancel without
// advancing time, so the metrics match a run with injection disabled.
func TestFaultFreePlanMatchesDisabledInjection(t *testing.T) {
	armed := runFaultedWorkload(t, "pcie.*.drop:p=0;*.bridge.drop:p=0;*.dram.flip:p=0")
	off := runFaultedWorkload(t, "")
	if !bytes.Equal(armed, off) {
		t.Fatal("a never-firing plan changed the metrics versus no injector")
	}
}

// Sites resolve at Build, under every sharding: the fault report of a
// prototype that has not run lists every matched site, so a site that never
// carries traffic reads the same from a one-shard build as from a sharded one.
func TestEverySiteResolvesAtBuild(t *testing.T) {
	report := func(parallel int) string {
		cfg := DefaultConfig(4, 1, 1)
		cfg.Core = CoreNone
		cfg.Parallel = parallel
		cfg.Faults = fault.MustParse("pcie.*.drop:p=0.5;node2.*.drop:p=0.5", 1)
		p, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		return p.Injector.String()
	}
	one := report(0)
	for _, site := range []string{"pcie.ep0.link", "pcie.ep3.link", "node2.bridge", "node2.dram"} {
		if !strings.Contains(one, site+": drop(fired 0)") {
			t.Errorf("one-shard build's report lacks %s:\n%s", site, one)
		}
	}
	if four := report(4); four != one {
		t.Errorf("fault report differs by sharding:\none shard:\n%sfour:\n%s", one, four)
	}
}

// A clean drain is checked on every run of every build, the latency probe's
// thousands included, so it must read the node registries in place: no
// allocation, no fold, no diagnosis.
func TestCleanDrainAllocatesNothing(t *testing.T) {
	cfg := DefaultConfig(2, 1, 2)
	cfg.Core = CoreNone
	p, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	port := p.PortAt(cache.GID{Node: 0, Tile: 0})
	sim.Go(p.Eng, "wl", func(proc *sim.Process) {
		port.Store(proc, p.Map.NodeDRAMBase(1), 8, 1)
	})
	p.Run()
	if avg := testing.AllocsPerRun(100, p.drained); avg != 0 {
		t.Fatalf("a clean drain allocated %v per check, want 0", avg)
	}
	if p.StallDiagnosis != "" {
		t.Fatalf("a clean drain recorded a stall:\n%s", p.StallDiagnosis)
	}
}
