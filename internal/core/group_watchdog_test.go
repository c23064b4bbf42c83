package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"smappic/internal/cache"
	"smappic/internal/fault"
	"smappic/internal/sim"
)

// runStoreWorkload builds a 2-node prototype in the requested mode, streams
// 16 stores from node 0 into node 1's DRAM, runs to quiescence and returns
// the prototype plus how many stores completed.
func runStoreWorkload(t *testing.T, parallel int, faults string) (*Prototype, int) {
	t.Helper()
	cfg := DefaultConfig(2, 1, 2)
	cfg.Core = CoreNone
	cfg.Parallel = parallel
	if faults != "" {
		cfg.Faults = fault.MustParse(faults, 1)
	}
	p, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
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

// checkWedged asserts what a run wedged behind the hung link must show: the
// stores did not all complete, and the drain recorded a diagnosis that
// states the drain cycle, names the stuck MSHR and the hung fault site, and
// appears in Report().
func checkWedged(t *testing.T, p *Prototype, completed int) {
	t.Helper()
	if completed == 16 {
		t.Error("every store completed despite the hung link")
	}
	diag := p.StallDiagnosis
	first, _, _ := strings.Cut(diag, "\n")
	if want := fmt.Sprintf("WATCHDOG: drained at cycle %d with transactions in flight", p.Now()); first != want {
		t.Fatalf("diagnosis starts %q, want %q (%d/16 stores completed)", first, want, completed)
	}
	if !strings.Contains(diag, "node0.tile0.bpc.mshr_occ") {
		t.Errorf("diagnosis does not name the stuck MSHR:\n%s", diag)
	}
	if !strings.Contains(diag, "HUNG") {
		t.Errorf("diagnosis does not show the hung fault site:\n%s", diag)
	}
	if !strings.Contains(p.Report(), diag) {
		t.Error("Report() does not include the diagnosis")
	}
}

// A permanently hung PCIe endpoint must end as a stall diagnosis naming the
// stuck transactions, not as a silent drain or an infinite event loop.
func TestHangProducesWatchdogDiagnosis(t *testing.T) {
	p, completed := runStoreWorkload(t, 0, "pcie.ep0.link.hang:after=4")
	checkWedged(t, p, completed)
}

// TestGroupWatchdogDiagnosesWedgedShard wedges a sharded run with the same
// hung link and requires the drain check to record the one-shard build's
// diagnosis byte for byte: the text names no shard, so the sharding cannot
// change it.
func TestGroupWatchdogDiagnosesWedgedShard(t *testing.T) {
	ref, refCompleted := runStoreWorkload(t, 0, "pcie.ep0.link.hang:after=4")
	p, completed := runStoreWorkload(t, 2, "pcie.ep0.link.hang:after=4")
	checkWedged(t, p, completed)
	if p.StallDiagnosis != ref.StallDiagnosis {
		t.Errorf("sharded diagnosis differs from the one-shard build's:\n%s\n---\n%s", p.StallDiagnosis, ref.StallDiagnosis)
	}
	if completed != refCompleted || p.Now() != ref.Now() {
		t.Errorf("sharded run drained at %d with %d/16 stores, one-shard at %d with %d", p.Now(), completed, ref.Now(), refCompleted)
	}
}

// TestGroupWatchdogNonPerturbing runs the same healthy traffic on one shard
// and on two: the drain check only reads gauges once the queues are empty
// and never schedules an event, so neither build records a diagnosis and
// the sharded run is byte-identical to the one-shard reference.
func TestGroupWatchdogNonPerturbing(t *testing.T) {
	ref, n := runStoreWorkload(t, 0, "")
	if n != 16 {
		t.Fatalf("reference completed %d/16 stores", n)
	}
	if ref.StallDiagnosis != "" {
		t.Fatalf("one-shard: stall recorded on a healthy run:\n%s", ref.StallDiagnosis)
	}
	want, err := ref.MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	p, n := runStoreWorkload(t, 2, "")
	if n != 16 {
		t.Fatalf("sharded: completed %d/16 stores", n)
	}
	if p.StallDiagnosis != "" {
		t.Fatalf("sharded: stall recorded on a healthy run:\n%s", p.StallDiagnosis)
	}
	if p.Now() != ref.Now() {
		t.Errorf("sharded: final time %d, reference %d", p.Now(), ref.Now())
	}
	got, err := p.MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("sharded: metrics document diverges from the one-shard reference")
	}
}
