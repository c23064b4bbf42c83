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
	"os"
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
	return replayCfgShaped(t, 4, 1, parallel, faults, "")
}

// replayCfgShaped is the fully-parameterized builder: shape (a FPGAs of b
// nodes), shard count, fault plan and shard granularity. The per-node rows
// use 2x2x2 — multi-node FPGAs, so node granularity actually nests inner
// windows.
func replayCfgShaped(t *testing.T, a, b, parallel int, faults string, granularity string) smappic.Config {
	t.Helper()
	cfg := smappic.DefaultConfig(a, b, 2)
	cfg.Parallel = parallel
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
// widthCap, when nonzero, overrides the widening cap the configuration
// implies (1 pins fixed one-crossing windows) — test-only scheduling, so the
// restoring side must apply the same override (loadReplayProgram does).
func startReplayProto(t *testing.T, cfg smappic.Config, widthCap int) *core.Prototype {
	t.Helper()
	p, err := core.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	loadReplayProgram(p, widthCap)
	return p
}

// loadReplayProgram loads the cross-node program into a freshly built (or
// RestorePrototype-built) prototype, applies the cap override and starts it.
func loadReplayProgram(p *core.Prototype, widthCap int) {
	if widthCap != 0 {
		p.Group.SetAdaptive(widthCap)
	}
	prog := rvasm.MustAssemble(smappic.ResetPC, diffProgram)
	host := p.Host()
	for n := 0; n < p.Cfg.TotalNodes(); n++ {
		host.LoadProgram(n, prog)
	}
	p.Start()
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
		widthCap    int // 0 = the configuration's own cap
		granularity string
	}{
		// A serial cursor is a one-shard window cursor, cut at the widened
		// boundaries of the one-engine window; the cap-16 row proves it
		// round-trips under another window sequence too.
		{"serial", 4, 1, 0, "", 0, ""},
		{"serial-faults", 4, 1, 0, pcieFaults, 0, ""},
		{"serial-adaptive-cfg", 4, 1, 0, "", 16, ""},
		// The plain sharded rows run under the default widening cap, so the
		// cut lands at adaptively-widened window boundaries; the fixed row
		// pins the one-crossing discipline.
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
			cfg := replayCfgShaped(t, tc.a, tc.b, tc.parallel, tc.faults, tc.granularity)

			cold := startReplayProto(t, cfg, tc.widthCap)
			cold.RunUntilHalted(20_000_000)
			want := replayOutcome(t, cold)

			for _, at := range []smappic.Time{500, 2_000, want.cycles / 2} {
				// Checkpointing run: pause at the cut, snapshot, continue.
				// The pause itself must not perturb the result.
				p := startReplayProto(t, cfg, tc.widthCap)
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
				loadReplayProgram(r, tc.widthCap)
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

// replayInto restores raw into a build of cfg (under widthCap) and replays
// it, returning Replay's verdict.
func replayInto(t *testing.T, raw []byte, cfg smappic.Config, widthCap int) error {
	t.Helper()
	p, snap, err := core.RestorePrototype(bytes.NewReader(raw), cfg)
	if err != nil {
		t.Fatalf("RestorePrototype: %v", err)
	}
	loadReplayProgram(p, widthCap)
	return p.Replay(snap)
}

// cursorAt runs a build of cfg to the first barrier at or past cycle at and
// returns its replay snapshot.
func cursorAt(t *testing.T, cfg smappic.Config, at smappic.Time) []byte {
	t.Helper()
	p := startReplayProto(t, cfg, 0)
	p.RunUntilHalted(at)
	var buf bytes.Buffer
	if err := p.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReplayRejectsModeMismatch restores a serial snapshot into a sharded
// build (and vice versa); both must be refused with a typed error.
func TestReplayRejectsModeMismatch(t *testing.T) {
	for _, tc := range []struct {
		name    string
		snapPar int
		restPar int
	}{
		{"serial-into-sharded", 0, 4},
		{"sharded-into-serial", 4, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw := cursorAt(t, replayCfg(t, tc.snapPar, ""), 2_000)
			err := replayInto(t, raw, replayCfg(t, tc.restPar, ""), 0)
			var me *ckpt.MismatchError
			if !errors.As(err, &me) {
				t.Fatalf("replay across shard counts: error %T (%v), want MismatchError", err, err)
			}
		})
	}
}

// TestReplayRejectsAdaptiveMismatch replays a cursor taken under the
// configuration's widening cap on a group pinned to fixed windows — a state
// only test code reaches, the cap being a pure function of the hashed
// configuration. The window count is meaningless across caps; the clock and
// digest cross-checks must refuse it with a typed error rather than accept a
// different window sequence.
func TestReplayRejectsAdaptiveMismatch(t *testing.T) {
	for _, parallel := range []int{0, 4} {
		raw := cursorAt(t, replayCfg(t, parallel, ""), 5_000)
		err := replayInto(t, raw, replayCfg(t, parallel, ""), 1)
		var me *ckpt.MismatchError
		if !errors.As(err, &me) {
			t.Fatalf("parallel=%d: replay across widening caps: error %T (%v), want MismatchError", parallel, err, err)
		}
	}
}

// TestReplayRejectsGranularityMismatch restores a per-FPGA snapshot into a
// per-node build (and vice versa) of the same shape: the window cursor
// counts different synchronizer steps on two engines than on four, so
// replay must refuse with a typed error.
func TestReplayRejectsGranularityMismatch(t *testing.T) {
	for _, tc := range []struct {
		name     string
		snapGran string
		restGran string
	}{
		{"fpga-into-node", "fpga", "node"},
		{"node-into-fpga", "node", "fpga"},
		// The zero value means per-FPGA: it must restore into an explicit
		// per-FPGA build, not be rejected.
		{"default-into-fpga-ok", "", "fpga"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw := cursorAt(t, replayCfgShaped(t, 2, 2, 2, "", tc.snapGran), 5_000)
			err := replayInto(t, raw, replayCfgShaped(t, 2, 2, 2, "", tc.restGran), 0)
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

// wantVersionError requires RestorePrototype to refuse raw at the version
// gate, naming both versions.
func wantVersionError(t *testing.T, raw []byte, cfg smappic.Config, version uint32) {
	t.Helper()
	_, _, err := core.RestorePrototype(bytes.NewReader(raw), cfg)
	var ve *ckpt.VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("version-%d snapshot: error %T (%v), want VersionError", version, err, err)
	}
	if ve.Got != version || ve.Want != ckpt.Version {
		t.Errorf("VersionError{Got: %d, Want: %d}, want {%d, %d}", ve.Got, ve.Want, version, ckpt.Version)
	}
}

// TestRestoreRefusesFormatVersion1 hand-seals what format version 1 wrote —
// the same envelope around a JSON payload, for the right configuration,
// digest valid — and requires the version gate, not the payload decoder, to
// refuse it.
func TestRestoreRefusesFormatVersion1(t *testing.T) {
	cfg := replayCfg(t, 0, "")
	payload := fmt.Sprintf(`{"kind":1,"config_hash":%q,"now":2000,"replay":{"executed":1234,"parallel":1}}`, cfg.ConfigHash())
	wantVersionError(t, ckpttest.Seal(1, ckpt.KindReplay, []byte(payload)), cfg, 1)
}

// TestRestoreRefusesFormatVersion2 re-seals a valid cursor of this build at
// version 2. A version-2 serial cursor counted executed events, which no
// build can replay any more; gob would decode such a payload leniently
// (unknown fields dropped, Windows zero) and the replay would "succeed" at
// cycle 0 — so the gate, not the decoder, must refuse it.
func TestRestoreRefusesFormatVersion2(t *testing.T) {
	cfg := replayCfg(t, 0, "")
	file := cursorAt(t, cfg, 2_000)
	payload := file[17 : len(file)-32] // between the header and the digest
	wantVersionError(t, ckpttest.Seal(2, ckpt.KindReplay, payload), cfg, 2)
}

// TestReplayParentWrittenCursors replays cursors that the build before the
// one-level synchronizer wrote (testdata/replay-v3/README.md has the
// commands). Replay checks the window count, the clock and the window digest
// — both tiers folded — so each row proves this build steps the very window
// sequence the writer stepped; finishing byte-identical to a cold run proves
// the state at the cursor was the same too. A failure here means the window
// sequence moved: that needs a ckpt.Version bump, not new fixtures.
func TestReplayParentWrittenCursors(t *testing.T) {
	src, err := os.ReadFile("testdata/replay-v3/hello.s")
	if err != nil {
		t.Fatal(err)
	}
	prog := rvasm.MustAssemble(smappic.ResetPC, string(src))
	start := func(p *core.Prototype) {
		host := p.Host()
		for n := 0; n < p.Cfg.TotalNodes(); n++ {
			host.LoadProgram(n, prog)
		}
		p.Start()
	}
	for _, tc := range []struct {
		file        string
		parallel    int
		granularity string
	}{
		{"one-shard.ckpt", 0, ""},
		{"per-fpga.ckpt", 2, ""},
		{"per-node.ckpt", 2, "node"},
	} {
		t.Run(tc.file, func(t *testing.T) {
			t.Parallel()
			cfg := smappic.DefaultConfig(2, 2, 2)
			cfg.Parallel = tc.parallel
			cfg.ShardGranularity = tc.granularity

			cold, err := core.Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			start(cold)
			cold.RunUntilHalted(50_000_000)
			want := replayOutcome(t, cold)

			raw, err := os.ReadFile("testdata/replay-v3/" + tc.file)
			if err != nil {
				t.Fatal(err)
			}
			p, snap, err := core.RestorePrototype(bytes.NewReader(raw), cfg)
			if err != nil {
				t.Fatalf("RestorePrototype: %v", err)
			}
			start(p)
			if err := p.Replay(snap); err != nil {
				t.Fatalf("Replay: %v", err)
			}
			if snap.Replay.Windows == 0 || uint64(p.Now()) != snap.Now {
				t.Fatalf("cursor at window %d, cycle %d; replayed to cycle %d", snap.Replay.Windows, snap.Now, p.Now())
			}
			t.Logf("replayed %d windows to cycle %d", snap.Replay.Windows, snap.Now)
			p.RunUntilHalted(50_000_000)
			got := replayOutcome(t, p)
			if got.cycles != want.cycles || got.checksum != want.checksum {
				t.Errorf("final time %d checksum %#x, want %d %#x", got.cycles, got.checksum, want.cycles, want.checksum)
			}
			if !bytes.Equal(got.metrics, want.metrics) {
				t.Errorf("MetricsJSON diverges:\n%s", firstDiff(got.metrics, want.metrics))
			}
		})
	}
}
