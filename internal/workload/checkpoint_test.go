package workload

import (
	"bytes"
	"errors"
	"testing"

	"smappic/internal/ckpt"
	"smappic/internal/core"
	"smappic/internal/fault"
	"smappic/internal/kernel"
	"smappic/internal/sim"
)

// buildCfg is the test configuration: small enough to run fast, multi-node
// so the cut crosses bridge/PCIe state.
func buildCfg(t *testing.T, numa bool, faults string) (core.Config, kernel.Config) {
	t.Helper()
	cfg := core.DefaultConfig(2, 1, 2)
	cfg.Core = core.CoreNone
	if faults != "" {
		plan, err := fault.Parse(faults, 7)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = plan
	}
	kc := kernel.DefaultConfig()
	kc.NUMA = numa
	return cfg, kc
}

func boot(t *testing.T, cfg core.Config, kc kernel.Config) *kernel.Kernel {
	t.Helper()
	pr, err := core.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return kernel.New(pr, kc)
}

func testParams() ISParams {
	p := DefaultISParams(4)
	p.Keys = 1 << 12
	return p
}

// coldRun runs the sort to completion and returns the reference outputs.
func coldRun(t *testing.T, cfg core.Config, kc kernel.Config) (ISResult, []byte, sim.Time) {
	t.Helper()
	k := boot(t, cfg, kc)
	res := RunIS(k, testParams())
	if !res.Sorted {
		t.Fatal("cold run not sorted")
	}
	m, err := k.Prototype().MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	return res, m, k.Prototype().Now()
}

// cutAndSnapshot runs with a cut request and returns the encoded snapshot
// (or nil if the run completed before the cut could latch).
func cutAndSnapshot(t *testing.T, cfg core.Config, kc kernel.Config, after sim.Time) ([]byte, int) {
	t.Helper()
	k := boot(t, cfg, kc)
	pr := k.Prototype()
	cut := &CutPlan{After: after}
	_, ic := RunISCut(k, testParams(), cut)
	if ic == nil {
		return nil, 0
	}
	st, err := pr.CaptureState()
	if err != nil {
		t.Fatalf("CaptureState: %v", err)
	}
	st.Kernel = ic.KernelState()
	st.Workload = ic.WorkloadState()
	snap := &ckpt.Snapshot{
		Kind:       ckpt.KindState,
		ConfigHash: cfg.ConfigHash(),
		Workload:   pr.WorkloadTag,
		Now:        uint64(pr.Now()),
		State:      st,
	}
	var buf bytes.Buffer
	if err := snap.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), st.Workload.Phase
}

// restore reads raw and builds a fresh prototype for it, refusing a snapshot
// of another configuration — the steps a resuming campaign job takes.
func restore(raw []byte, cfg core.Config) (*core.Prototype, *ckpt.Snapshot, error) {
	snap, err := ckpt.Read(bytes.NewReader(raw))
	if err != nil {
		return nil, nil, err
	}
	if snap.ConfigHash != cfg.ConfigHash() {
		return nil, nil, &ckpt.MismatchError{Field: "configuration", Got: snap.ConfigHash, Want: cfg.ConfigHash()}
	}
	pr, err := core.Build(cfg)
	return pr, snap, err
}

// resumeFrom decodes the snapshot, rebuilds, applies state and finishes
// the sort.
func resumeFrom(t *testing.T, cfg core.Config, kc kernel.Config, raw []byte) (ISResult, []byte, sim.Time) {
	t.Helper()
	pr, snap, err := restore(raw, cfg)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	k := kernel.New(pr, kc)
	if err := pr.ApplyState(snap.State, false); err != nil {
		t.Fatalf("ApplyState: %v", err)
	}
	res, _, err := ResumeIS(k, testParams(), snap.State.Kernel, snap.State.Workload, nil)
	if err != nil {
		t.Fatalf("ResumeIS: %v", err)
	}
	m, err := pr.MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	return res, m, pr.Now()
}

// TestISStateRoundTrip cuts the sort at several mid-run cycles, restores
// each snapshot into a fresh build and verifies the continuation is
// byte-identical to the uninterrupted run: same metrics document, same
// checksum, same final time.
func TestISStateRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name   string
		numa   bool
		faults string
	}{
		{"numa", true, ""},
		{"blind", false, ""},
		{"faulted", true, "node0.bridge.delay:p=0.02,cycles=400;pcie.*.delay:p=0.01,cycles=600"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, kc := buildCfg(t, tc.numa, tc.faults)
			want, wantM, wantNow := coldRun(t, cfg, kc)
			phases := map[int]bool{}
			for _, after := range []sim.Time{1, 20_000, 60_000, 150_000, 400_000} {
				raw, phase := cutAndSnapshot(t, cfg, kc, after)
				if raw == nil {
					t.Logf("after=%d: run completed before cut", after)
					continue
				}
				phases[phase] = true
				got, gotM, gotNow := resumeFrom(t, cfg, kc, raw)
				if got.Checksum != want.Checksum || got.Sorted != want.Sorted {
					t.Errorf("after=%d (phase %d): checksum %016x sorted=%v, want %016x sorted=%v",
						after, phase, got.Checksum, got.Sorted, want.Checksum, want.Sorted)
				}
				if got.Cycles != want.Cycles {
					t.Errorf("after=%d (phase %d): cycles %d, want %d", after, phase, got.Cycles, want.Cycles)
				}
				if gotNow != wantNow {
					t.Errorf("after=%d (phase %d): final time %d, want %d", after, phase, gotNow, wantNow)
				}
				if !bytes.Equal(gotM, wantM) {
					t.Errorf("after=%d (phase %d): metrics JSON differs from uninterrupted run", after, phase)
				}
			}
			if len(phases) < 2 {
				t.Errorf("cuts landed in %d distinct phases; want at least 2 for coverage", len(phases))
			}
		})
	}
}

// TestNoCutAtFinalBoundary pins the rule that the final phase boundary is
// never a cut point. A snapshot latched there captures a run whose sort is
// already complete; the restored run has no phases left to execute, so the
// engine's post-workload drain tail would never be regenerated and the
// final time would land short of the uninterrupted run. A cut requested
// past the last interior boundary must therefore decline to latch rather
// than latch at the end.
func TestNoCutAtFinalBoundary(t *testing.T) {
	cfg, kc := buildCfg(t, true, "")
	_, _, wantNow := coldRun(t, cfg, kc)
	// Any cut request at or beyond the final time can only be reached at
	// the final boundary — it must come back empty, not as a snapshot.
	for _, after := range []sim.Time{wantNow - 1, wantNow, wantNow + 1} {
		raw, phase := cutAndSnapshot(t, cfg, kc, after)
		if raw != nil {
			t.Errorf("after=%d: latched a cut at phase %d; want no cut past the last interior boundary", after, phase)
		}
	}
	// And a snapshot forged with Phase == isPhases must be refused by
	// ResumeIS as corrupt, not silently resumed into a short run.
	raw, _ := cutAndSnapshot(t, cfg, kc, 1)
	if raw == nil {
		t.Fatal("early cut did not latch")
	}
	pr, snap, err := restore(raw, cfg)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	k := kernel.New(pr, kc)
	if err := pr.ApplyState(snap.State, false); err != nil {
		t.Fatalf("ApplyState: %v", err)
	}
	snap.State.Workload.Phase = isPhases
	_, _, err = ResumeIS(k, testParams(), snap.State.Kernel, snap.State.Workload, nil)
	var ce *ckpt.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("ResumeIS with final-boundary phase: err = %v, want CorruptError", err)
	}
}

// TestSnapshotRejectsCorruption exercises the typed-error paths: bit flips,
// truncation, version skew and config mismatch must be reported, never
// panic, and never yield a prototype.
func TestSnapshotRejectsCorruption(t *testing.T) {
	cfg, kc := buildCfg(t, true, "")
	raw, _ := cutAndSnapshot(t, cfg, kc, 20_000)
	if raw == nil {
		t.Fatal("cut did not latch")
	}

	t.Run("bitflip", func(t *testing.T) {
		// One flip per envelope region (layout: magic 0-3, version 4-7,
		// kind 8, length 9-16, payload, 32-byte digest). What a flipped
		// length reads as — trailing bytes or a short file — depends on
		// which way the flipped bit moves it, so that region asserts only
		// the snapshot-error class.
		var ce *ckpt.CorruptError
		var ve *ckpt.VersionError
		for _, c := range []struct {
			region string
			off    int
			want   any
		}{
			{"version", 4, &ve},
			{"kind", 8, &ce},
			{"length", 9, nil},
			{"payload", 17 + (len(raw)-17-32)/2, &ce},
			{"digest", len(raw) - 1, &ce},
		} {
			bad := append([]byte(nil), raw...)
			bad[c.off] ^= 0x40
			_, _, err := restore(bad, cfg)
			switch {
			case err == nil:
				t.Errorf("bit flip in %s (offset %d) accepted", c.region, c.off)
			case c.want == nil && !ckpt.IsSnapshotError(err):
				t.Errorf("bit flip in %s (offset %d): error %T (%v), want a snapshot error", c.region, c.off, err, err)
			case c.want != nil && !errors.As(err, c.want):
				t.Errorf("bit flip in %s (offset %d): error %T (%v), want %T", c.region, c.off, err, err, c.want)
			}
		}
	})

	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 3, 10, len(raw) - 1} {
			_, _, err := restore(raw[:n], cfg)
			var te *ckpt.TruncatedError
			if !errors.As(err, &te) {
				t.Fatalf("truncation to %d: error %T (%v), want TruncatedError", n, err, err)
			}
		}
	})

	t.Run("version-skew", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		bad[4] ^= 0xFF // version field (LE uint32 after 4-byte magic)
		_, _, err := restore(bad, cfg)
		var ve *ckpt.VersionError
		if !errors.As(err, &ve) {
			t.Fatalf("version skew: error %T (%v), want VersionError", err, err)
		}
	})

	t.Run("config-mismatch", func(t *testing.T) {
		other := cfg
		other.Seed++
		_, _, err := restore(raw, other)
		var me *ckpt.MismatchError
		if !errors.As(err, &me) {
			t.Fatalf("config mismatch: error %T (%v), want MismatchError", err, err)
		}
	})

	t.Run("workload-mismatch", func(t *testing.T) {
		pr, snap, err := restore(raw, cfg)
		if err != nil {
			t.Fatal(err)
		}
		k := kernel.New(pr, kc)
		if err := pr.ApplyState(snap.State, false); err != nil {
			t.Fatal(err)
		}
		p := testParams()
		p.Keys *= 2 // different allocation script
		_, _, err = ResumeIS(k, p, snap.State.Kernel, snap.State.Workload, nil)
		var me *ckpt.MismatchError
		if !errors.As(err, &me) {
			t.Fatalf("workload mismatch: error %T (%v), want MismatchError", err, err)
		}
	})
}
