package core

import (
	"bytes"
	"strings"
	"testing"

	"smappic/internal/cache"
	"smappic/internal/fault"
	"smappic/internal/sim"
)

// runStoreWorkload builds a 2-node prototype in the requested mode, streams
// 16 stores from node 0 into node 1's DRAM, runs to quiescence and returns
// the prototype plus how many stores completed.
func runStoreWorkload(t *testing.T, parallel int, faults string, watchdog sim.Time) (*Prototype, int) {
	t.Helper()
	cfg := DefaultConfig(2, 1, 2)
	cfg.Core = CoreNone
	cfg.Parallel = parallel
	cfg.WatchdogInterval = watchdog
	if faults != "" {
		cfg.Faults = fault.MustParse(faults, 1)
	}
	p, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	port := p.PortAt(cache.GID{Node: 0, Tile: 0})
	remote := p.Map.NodeDRAMBase(1) + 0x200000
	completed := 0
	sim.Go(p.engs[0], "wl", func(proc *sim.Process) {
		for i := uint64(0); i < 16; i++ {
			port.Store(proc, remote+i*64, 8, i)
			completed++
		}
	})
	p.Run()
	return p, completed
}

// TestGroupWatchdogDiagnosesWedgedShard wedges a sharded run with a hung
// PCIe link and requires the barrier-hook watchdog to terminate the run with
// a diagnosis that names the stuck shard (TestHangProducesWatchdogDiagnosis
// is the one-shard twin, where only the drain check can see the wedge).
func TestGroupWatchdogDiagnosesWedgedShard(t *testing.T) {
	p, completed := runStoreWorkload(t, 2, "pcie.ep0.link.hang:after=4", 100_000)
	if completed == 16 {
		t.Error("every store completed despite the hung link")
	}
	if !p.GroupWatchdog.Fired() {
		t.Fatalf("sharded watchdog did not fire (%d/16 stores completed)", completed)
	}
	diag := p.StallDiagnosis
	if !strings.Contains(diag, "WATCHDOG: shard 0 (fpga0)") {
		t.Errorf("diagnosis does not name the wedged shard:\n%s", diag)
	}
	if !strings.Contains(diag, "mshr_occ") {
		t.Errorf("diagnosis does not name the stuck MSHR:\n%s", diag)
	}
	if !strings.Contains(diag, "HUNG") {
		t.Errorf("diagnosis does not show the hung fault site:\n%s", diag)
	}
	if !strings.Contains(p.Report(), "WATCHDOG") {
		t.Error("Report() does not include the diagnosis")
	}
}

// TestGroupWatchdogNonPerturbing runs the same traffic unarmed and armed, on
// one shard and on two: every armed run must be byte-identical to the
// unarmed one-shard reference, because the watchdog only reads state at
// window barriers and never schedules an event.
func TestGroupWatchdogNonPerturbing(t *testing.T) {
	ref, n := runStoreWorkload(t, 0, "", 0)
	if n != 16 {
		t.Fatalf("reference completed %d/16 stores", n)
	}
	want, err := ref.MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		parallel int
		watchdog sim.Time
	}{
		{"serial+watchdog", 0, 10_000},
		{"sharded", 2, 0},
		{"sharded+watchdog", 2, 10_000},
	} {
		p, n := runStoreWorkload(t, tc.parallel, "", tc.watchdog)
		if n != 16 {
			t.Fatalf("%s: completed %d/16 stores", tc.name, n)
		}
		if p.GroupWatchdog.Fired() {
			t.Fatalf("%s: watchdog fired on a healthy run:\n%s", tc.name, p.StallDiagnosis)
		}
		if p.Now() != ref.Now() {
			t.Errorf("%s: final time %d, reference %d", tc.name, p.Now(), ref.Now())
		}
		got, err := p.MetricsJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: metrics document diverges from the unwatched one-shard reference", tc.name)
		}
	}
}
