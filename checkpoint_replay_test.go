// Differential harness for replay checkpoints: a run that checkpoints
// mid-flight and a run restored from that checkpoint must both be
// byte-identical to the uninterrupted reference — same MetricsJSON, same
// final time, same console output — in serial and sharded mode, with and
// without a PCIe fault plan (so cuts land mid-retransmission).
package smappic_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"smappic"
	"smappic/internal/ckpt"
	"smappic/internal/ckpt/ckpttest"
	"smappic/internal/core"
	"smappic/internal/rvasm"
)

// replayCfg is the configuration under test: multi-FPGA so the cut crosses
// bridge and PCIe traffic.
func replayCfg(t *testing.T, parallel int, faults string) smappic.Config {
	return replayCfgAdaptive(t, parallel, faults, 0)
}

// replayCfgAdaptive additionally pins the adaptive-lookahead cap (0 keeps
// the default widening cap).
func replayCfgAdaptive(t *testing.T, parallel int, faults string, adaptive int) smappic.Config {
	return replayCfgShaped(t, 4, 1, parallel, faults, adaptive, "")
}

// replayCfgShaped is the fully-parameterized builder: shape (a FPGAs of b
// nodes), engine mode, fault plan, widening cap and shard granularity. The
// per-node rows use 2x2x2 — multi-node FPGAs, so node granularity actually
// nests inner windows.
func replayCfgShaped(t *testing.T, a, b, parallel int, faults string, adaptive int, granularity string) smappic.Config {
	t.Helper()
	cfg := smappic.DefaultConfig(a, b, 2)
	cfg.Parallel = parallel
	cfg.AdaptiveLookahead = adaptive
	cfg.ShardGranularity = granularity
	cfg.Seed = 42
	if faults != "" {
		var err error
		cfg.Faults, err = smappic.ParseFaults(faults, 5)
		if err != nil {
			t.Fatal(err)
		}
	}
	return cfg
}

// replayOutcome captures everything a completed run must reproduce.
func replayOutcome(t *testing.T, p *core.Prototype) diffOutcome {
	t.Helper()
	if !p.AllHalted() {
		t.Fatal("harts did not halt")
	}
	m, err := p.MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	sum := uint64(0)
	host := p.Host()
	for n := 0; n < p.Cfg.TotalNodes(); n++ {
		for _, ch := range host.Console(n) {
			sum = sum*31 + uint64(ch)
		}
	}
	return diffOutcome{metrics: m, cycles: p.Now(), checksum: sum}
}

// startReplayProto builds a prototype and loads the cross-node program.
func startReplayProto(t *testing.T, cfg smappic.Config) *core.Prototype {
	t.Helper()
	p, err := core.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog := rvasm.MustAssemble(smappic.ResetPC, diffProgram)
	host := p.Host()
	for n := 0; n < p.Cfg.TotalNodes(); n++ {
		host.LoadProgram(n, prog)
	}
	p.Start()
	return p
}

// TestReplayCheckpointRoundTrip checkpoints a RISC-V run at mid-run cycles,
// restores each snapshot via deterministic replay, and requires the
// continued run to match the uninterrupted reference byte for byte.
func TestReplayCheckpointRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name        string
		a, b        int
		parallel    int
		faults      string
		adaptive    int
		granularity string
	}{
		{"serial", 4, 1, 0, "", 0, ""},
		{"serial-faults", 4, 1, 0, pcieFaults, 0, ""},
		// Serial ignores the adaptive knob entirely; the row proves a config
		// carrying it still round-trips (same ConfigHash, same replay).
		{"serial-adaptive-cfg", 4, 1, 0, "", 16, ""},
		// The plain sharded rows run under the default widening cap, so the
		// cut lands at adaptively-widened window boundaries; the fixed row
		// pins the pre-adaptive discipline.
		{"sharded", 4, 1, 4, "", 0, ""},
		{"sharded-fixed", 4, 1, 4, "", 1, ""},
		{"sharded-faults", 4, 1, 4, pcieFaults, 0, ""},
		// Per-node granularity on multi-node FPGAs: the replay cursor counts
		// hierarchical windows (outer digest folds the inner clusters'), so
		// the cut lands at nested-window boundaries.
		{"sharded-node", 2, 2, 2, "", 0, "node"},
		{"sharded-node-fixed", 2, 2, 2, "", 1, "node"},
		{"sharded-node-faults", 2, 2, 2, pcieFaults, 0, "node"},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := replayCfgShaped(t, tc.a, tc.b, tc.parallel, tc.faults, tc.adaptive, tc.granularity)

			cold := startReplayProto(t, cfg)
			cold.RunUntilHalted(20_000_000)
			want := replayOutcome(t, cold)

			for _, at := range []smappic.Time{500, 2_000, want.cycles / 2} {
				// Checkpointing run: pause at the cut, snapshot, continue.
				// The pause itself must not perturb the result.
				p := startReplayProto(t, cfg)
				p.RunUntilHalted(at)
				var buf bytes.Buffer
				if err := p.Checkpoint(&buf); err != nil {
					t.Fatalf("at=%d: Checkpoint: %v", at, err)
				}
				p.RunUntilHalted(20_000_000)
				if got := replayOutcome(t, p); !bytes.Equal(got.metrics, want.metrics) ||
					got.cycles != want.cycles || got.checksum != want.checksum {
					t.Fatalf("at=%d: checkpointing run diverged from reference", at)
				}

				// Restored run: rebuild, replay to the cursor, continue.
				r, snap, err := core.RestorePrototype(bytes.NewReader(buf.Bytes()), cfg)
				if err != nil {
					t.Fatalf("at=%d: RestorePrototype: %v", at, err)
				}
				prog := rvasm.MustAssemble(smappic.ResetPC, diffProgram)
				host := r.Host()
				for n := 0; n < r.Cfg.TotalNodes(); n++ {
					host.LoadProgram(n, prog)
				}
				r.Start()
				if err := r.Replay(snap); err != nil {
					t.Fatalf("at=%d: Replay: %v", at, err)
				}
				r.RunUntilHalted(20_000_000)
				got := replayOutcome(t, r)
				if got.cycles != want.cycles {
					t.Errorf("at=%d: final time %d, want %d", at, got.cycles, want.cycles)
				}
				if got.checksum != want.checksum {
					t.Errorf("at=%d: console checksum %#x, want %#x", at, got.checksum, want.checksum)
				}
				if !bytes.Equal(got.metrics, want.metrics) {
					t.Errorf("at=%d: MetricsJSON diverges:\n%s", at, firstDiff(got.metrics, want.metrics))
				}
			}
		})
	}
}

// TestReplayRejectsModeMismatch restores a serial snapshot into a sharded
// build (and vice versa); both must be refused with a typed error.
func TestReplayRejectsModeMismatch(t *testing.T) {
	snapFor := func(parallel int) []byte {
		cfg := replayCfg(t, parallel, "")
		p := startReplayProto(t, cfg)
		p.RunUntilHalted(2_000)
		var buf bytes.Buffer
		if err := p.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, tc := range []struct {
		name    string
		snapPar int
		restPar int
	}{
		{"serial-into-sharded", 0, 4},
		{"sharded-into-serial", 4, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw := snapFor(tc.snapPar)
			cfg := replayCfg(t, tc.restPar, "")
			p, snap, err := core.RestorePrototype(bytes.NewReader(raw), cfg)
			if err != nil {
				t.Fatalf("RestorePrototype: %v", err)
			}
			prog := rvasm.MustAssemble(smappic.ResetPC, diffProgram)
			host := p.Host()
			for n := 0; n < p.Cfg.TotalNodes(); n++ {
				host.LoadProgram(n, prog)
			}
			p.Start()
			err = p.Replay(snap)
			var me *ckpt.MismatchError
			if !errors.As(err, &me) {
				t.Fatalf("replay across engine modes: error %T (%v), want MismatchError", err, err)
			}
		})
	}
}

// TestReplayRejectsAdaptiveMismatch restores a sharded snapshot taken under
// the default widening cap into a fixed-window build: the window cursor is
// meaningless across caps, so replay must refuse with a typed error rather
// than silently stepping a different window sequence.
func TestReplayRejectsAdaptiveMismatch(t *testing.T) {
	cfg := replayCfgAdaptive(t, 4, "", 0)
	p := startReplayProto(t, cfg)
	p.RunUntilHalted(5_000)
	var buf bytes.Buffer
	if err := p.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}

	fixed := replayCfgAdaptive(t, 4, "", 1)
	r, snap, err := core.RestorePrototype(bytes.NewReader(buf.Bytes()), fixed)
	if err != nil {
		t.Fatalf("RestorePrototype: %v", err)
	}
	prog := rvasm.MustAssemble(smappic.ResetPC, diffProgram)
	host := r.Host()
	for n := 0; n < r.Cfg.TotalNodes(); n++ {
		host.LoadProgram(n, prog)
	}
	r.Start()
	err = r.Replay(snap)
	var me *ckpt.MismatchError
	if !errors.As(err, &me) {
		t.Fatalf("replay across adaptive caps: error %T (%v), want MismatchError", err, err)
	}
}

// TestReplayRejectsGranularityMismatch restores a per-FPGA snapshot into a
// per-node build (and vice versa) of the same shape: the window cursor
// counts different synchronizer steps at each granularity, so replay must
// refuse with a typed error naming the shard granularity.
func TestReplayRejectsGranularityMismatch(t *testing.T) {
	snapFor := func(granularity string) []byte {
		cfg := replayCfgShaped(t, 2, 2, 2, "", 0, granularity)
		p := startReplayProto(t, cfg)
		p.RunUntilHalted(5_000)
		var buf bytes.Buffer
		if err := p.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, tc := range []struct {
		name     string
		snapGran string
		restGran string
	}{
		{"fpga-into-node", "fpga", "node"},
		{"node-into-fpga", "node", "fpga"},
		// The zero value means per-FPGA: a legacy snapshot without the field
		// must restore into an explicit per-FPGA build, not be rejected.
		{"default-into-fpga-ok", "", "fpga"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw := snapFor(tc.snapGran)
			cfg := replayCfgShaped(t, 2, 2, 2, "", 0, tc.restGran)
			p, snap, err := core.RestorePrototype(bytes.NewReader(raw), cfg)
			if err != nil {
				t.Fatalf("RestorePrototype: %v", err)
			}
			prog := rvasm.MustAssemble(smappic.ResetPC, diffProgram)
			host := p.Host()
			for n := 0; n < p.Cfg.TotalNodes(); n++ {
				host.LoadProgram(n, prog)
			}
			p.Start()
			err = p.Replay(snap)
			if tc.snapGran == "" || tc.snapGran == tc.restGran {
				if err != nil {
					t.Fatalf("same-granularity replay failed: %v", err)
				}
				return
			}
			var me *ckpt.MismatchError
			if !errors.As(err, &me) {
				t.Fatalf("replay across shard granularities: error %T (%v), want MismatchError", err, err)
			}
		})
	}
}

// TestRestoreRefusesFormatVersion1 hand-seals what the previous format
// wrote — the same envelope at version 1 around a JSON payload, for the
// right configuration, digest valid — and requires the version gate, not
// the payload decoder, to refuse it.
func TestRestoreRefusesFormatVersion1(t *testing.T) {
	cfg := replayCfg(t, 0, "")
	payload := fmt.Sprintf(`{"kind":1,"config_hash":%q,"now":2000,"replay":{"executed":1234,"parallel":1}}`, cfg.ConfigHash())
	raw := ckpttest.Seal(1, ckpt.KindReplay, []byte(payload))

	_, _, err := core.RestorePrototype(bytes.NewReader(raw), cfg)
	var ve *ckpt.VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("version-1 snapshot: error %T (%v), want VersionError", err, err)
	}
	if ve.Got != 1 || ve.Want != ckpt.Version {
		t.Errorf("VersionError{Got: %d, Want: %d}, want {1, %d}", ve.Got, ve.Want, ckpt.Version)
	}
}
