package smappic_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"smappic"
	"smappic/internal/cache"
	"smappic/internal/sim"
)

// stallRun is what one build of a stall case leaves behind.
type stallRun struct {
	completed int // stores that completed, of 16
	diagnosis string
	report    string
	now       smappic.Time
	metrics   []byte
}

// runStall builds a 2x2x2 prototype in one sharding, streams 16 stores from
// node 0 into node 2's DRAM (the other FPGA's), optionally keeps a process
// on the other FPGA executing until cycle busyUntil, and runs to quiescence.
func runStall(t *testing.T, faults string, busyUntil smappic.Time, parallel int, granularity string) stallRun {
	t.Helper()
	cfg := smappic.DefaultConfig(2, 2, 2)
	cfg.Core = smappic.CoreNone
	cfg.Parallel = parallel
	cfg.ShardGranularity = granularity
	if faults != "" {
		var err error
		if cfg.Faults, err = smappic.ParseFaults(faults, 1); err != nil {
			t.Fatal(err)
		}
	}
	p, err := smappic.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	port := p.PortAt(cache.GID{Node: 0, Tile: 0})
	remote := p.Map.NodeDRAMBase(2) + 0x200000
	var r stallRun
	sim.Go(p.EngineForNode(0), "stores", func(proc *sim.Process) {
		for i := uint64(0); i < 16; i++ {
			port.Store(proc, remote+i*64, 8, i)
			r.completed++
		}
	})
	if busyUntil > 0 {
		sim.Go(p.EngineForNode(3), "busy", func(proc *sim.Process) {
			for proc.Now() < busyUntil {
				proc.Wait(1000)
			}
		})
	}
	p.Run()
	r.diagnosis, r.report, r.now = p.StallDiagnosis, p.Report(), p.Now()
	if r.metrics, err = p.MetricsJSON(); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestStallSameUnderEverySharding wedges a store stream behind a hung PCIe
// link — alone, and while the other FPGA keeps executing to cycle 200 000 —
// and requires one stall under every sharding: the diagnosis (recorded when
// the run drains), the final cycle and the metrics document are byte for
// byte those of the one-shard build. A healthy stream drains clean the same
// way, with no diagnosis.
func TestStallSameUnderEverySharding(t *testing.T) {
	const hang = "pcie.ep0.link.hang:after=4"
	builds := []struct {
		name        string
		parallel    int
		granularity string
	}{{"one-shard", 0, ""}, {"per-fpga", 2, "fpga"}, {"per-node", 2, "node"}}
	for _, tc := range []struct {
		name      string
		faults    string
		busyUntil smappic.Time
	}{
		{"healthy", "", 0},
		{"hung", hang, 0},
		{"hung-busy", hang, 200_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ref stallRun
			for i, b := range builds {
				r := runStall(t, tc.faults, tc.busyUntil, b.parallel, b.granularity)
				if i == 0 {
					ref = r
					checkStall(t, tc.faults != "", tc.busyUntil, r)
					continue
				}
				if r.diagnosis != ref.diagnosis {
					t.Errorf("%s: diagnosis differs from the one-shard build's:\n%s\n---\n%s", b.name, r.diagnosis, ref.diagnosis)
				}
				if r.now != ref.now || r.completed != ref.completed {
					t.Errorf("%s: drained at %d with %d/16 stores, one-shard at %d with %d", b.name, r.now, r.completed, ref.now, ref.completed)
				}
				if !bytes.Equal(r.metrics, ref.metrics) {
					t.Errorf("%s: metrics document diverges from the one-shard build's", b.name)
				}
			}
		})
	}
}

// checkStall asserts what the one-shard build of a case must show.
func checkStall(t *testing.T, hung bool, busyUntil smappic.Time, r stallRun) {
	t.Helper()
	if !hung {
		if r.completed != 16 || r.diagnosis != "" {
			t.Fatalf("healthy run completed %d/16 stores, diagnosis %q", r.completed, r.diagnosis)
		}
		return
	}
	if r.completed == 16 {
		t.Error("every store completed despite the hung link")
	}
	if r.now < busyUntil {
		t.Errorf("drained at cycle %d, before the busy process ended at %d", r.now, busyUntil)
	}
	first, _, _ := strings.Cut(r.diagnosis, "\n")
	if want := fmt.Sprintf("WATCHDOG: drained at cycle %d with transactions in flight", r.now); first != want {
		t.Fatalf("diagnosis starts %q, want %q", first, want)
	}
	if !strings.Contains(r.diagnosis, "node0.tile0.bpc.mshr_occ") {
		t.Errorf("diagnosis does not name the stuck MSHR:\n%s", r.diagnosis)
	}
	if !strings.Contains(r.diagnosis, "HUNG") {
		t.Errorf("diagnosis does not show the hung fault site:\n%s", r.diagnosis)
	}
	if !strings.Contains(r.report, r.diagnosis) {
		t.Error("Report() does not include the diagnosis")
	}
}
