// Differential harness for replay checkpoints. A cursor names a cycle — the
// horizon of the barrier it was taken at — plus the clock and a digest of the
// simulated state there, and nothing about how the run was scheduled. So a
// run that checkpoints mid-flight and a run restored from that checkpoint
// must both be byte-identical to the uninterrupted reference — same
// MetricsJSON, same final time, same console output — whatever sharding,
// widening cap or sampler either side ran under, with and without a PCIe
// fault plan (so cuts land mid-retransmission).
package smappic_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"smappic"
	"smappic/internal/ckpt"
	"smappic/internal/ckpt/ckpttest"
	"smappic/internal/core"
	"smappic/internal/rvasm"
)

// replayMode is one way of scheduling a run: everything a cursor must not
// depend on.
type replayMode struct {
	name        string
	parallel    int          // 0 = one shard; otherwise one engine per FPGA...
	granularity string       // ...or per node
	widthCap    int          // widening-cap override (0 = the configuration's, 1 = fixed windows)
	sampler     smappic.Time // EnableSampler interval (0 = unsampled)
}

// replayModes lists the shardings of an a-FPGA shape with b nodes per FPGA:
// one shard, per FPGA and — where it nests inner windows — per node.
func replayModes(a, b int) []replayMode {
	modes := []replayMode{{name: "one-shard"}, {name: "per-fpga", parallel: a}}
	if b > 1 {
		modes = append(modes, replayMode{name: "per-node", parallel: a, granularity: "node"})
	}
	return modes
}

// replayCfg is the configuration under test: multi-FPGA so the cut crosses
// bridge and PCIe traffic (a FPGAs of b two-tile nodes), under one mode's
// execution policy.
func replayCfg(t *testing.T, a, b int, faults string, m replayMode) smappic.Config {
	t.Helper()
	cfg := smappic.DefaultConfig(a, b, 2)
	cfg.Parallel = m.parallel
	cfg.ShardGranularity = m.granularity
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
	out := diffOutcome{cycles: p.Now()}
	out.metrics, out.samples = splitSamples(m)
	host := p.Host()
	for n := 0; n < p.Cfg.TotalNodes(); n++ {
		for _, ch := range host.Console(n) {
			out.checksum = out.checksum*31 + uint64(ch)
		}
	}
	return out
}

// sameOutcome fails the test unless got reproduces want (the sampler's series
// aside: it belongs to the observer, not the run).
func sameOutcome(t *testing.T, what string, got, want diffOutcome) {
	t.Helper()
	if got.cycles != want.cycles {
		t.Errorf("%s: final time %d, want %d", what, got.cycles, want.cycles)
	}
	if got.checksum != want.checksum {
		t.Errorf("%s: console checksum %#x, want %#x", what, got.checksum, want.checksum)
	}
	if !bytes.Equal(got.metrics, want.metrics) {
		t.Errorf("%s: MetricsJSON diverges:\n%s", what, firstDiff(got.metrics, want.metrics))
	}
}

// loadReplayProgram applies a mode's scheduling overrides to a freshly built
// (or RestorePrototype-built) prototype, loads source on every node and
// starts it.
func loadReplayProgram(p *core.Prototype, m replayMode, source string) {
	if m.widthCap != 0 {
		p.Group.SetAdaptive(m.widthCap)
	}
	if m.sampler != 0 {
		p.EnableSampler(m.sampler)
	}
	prog := rvasm.MustAssemble(smappic.ResetPC, source)
	host := p.Host()
	for n := 0; n < p.Cfg.TotalNodes(); n++ {
		host.LoadProgram(n, prog)
	}
	p.Start()
}

// startReplayProto builds cfg and starts the cross-node program under m.
func startReplayProto(t *testing.T, cfg smappic.Config, m replayMode) *core.Prototype {
	t.Helper()
	p, err := core.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	loadReplayProgram(p, m, diffProgram)
	return p
}

// cursorAt runs a build of cfg under m to cycle at (or to the halt) and
// returns the prototype, resting there, and its replay snapshot.
func cursorAt(t *testing.T, cfg smappic.Config, m replayMode, at smappic.Time) (*core.Prototype, []byte) {
	t.Helper()
	p := startReplayProto(t, cfg, m)
	p.RunToCycle(at, p.AllHalted)
	var buf bytes.Buffer
	if err := p.Checkpoint(&buf); err != nil {
		t.Fatalf("at=%d: Checkpoint: %v", at, err)
	}
	return p, buf.Bytes()
}

// replayInto restores raw into a build of cfg running source under m and
// replays it, returning the prototype and Replay's verdict.
func replayInto(t *testing.T, raw []byte, cfg smappic.Config, m replayMode, source string) (*core.Prototype, error) {
	t.Helper()
	p, snap, err := core.RestorePrototype(bytes.NewReader(raw), cfg)
	if err != nil {
		t.Fatalf("RestorePrototype: %v", err)
	}
	loadReplayProgram(p, m, source)
	return p, p.Replay(snap)
}

// TestReplayCheckpointRoundTrip is the taken-under x restored-under matrix: a
// RISC-V run checkpointed at mid-run cycles under one scheduling is restored
// under every sharding of its shape, under fixed windows and under a sampler,
// and every continued run must match the uninterrupted reference byte for
// byte — as must the checkpointing run itself.
func TestReplayCheckpointRoundTrip(t *testing.T) {
	type row struct {
		name   string
		a, b   int
		faults string
		taken  replayMode
	}
	rows := []row{
		// A cursor taken under another widening cap, or under a sampler, is
		// restored under the configuration's cap, unsampled — and the other
		// way round, every row restoring under fixed windows and a sampler.
		{"serial-adaptive-cfg", 4, 1, "", replayMode{widthCap: 16}},
		{"sharded-fixed", 4, 1, "", replayMode{parallel: 4, widthCap: 1}},
		{"sharded-node-fixed", 2, 2, "", replayMode{parallel: 2, granularity: "node", widthCap: 1}},
		{"sharded-sampled", 2, 2, pcieFaults, replayMode{parallel: 2, sampler: 300}},
	}
	for _, shape := range [][2]int{{4, 1}, {2, 2}} {
		for _, faults := range []string{"", pcieFaults} {
			for _, m := range replayModes(shape[0], shape[1]) {
				// The 4x1x2 and per-node names predate the matrix.
				name := map[string]string{"one-shard": "serial", "per-fpga": "sharded", "per-node": "sharded-node"}[m.name]
				if shape[1] > 1 && m.name != "per-node" {
					name = "2x2x2-" + name
				}
				if faults != "" {
					name += "-faults"
				}
				rows = append(rows, row{name, shape[0], shape[1], faults, m})
			}
		}
	}
	for _, tc := range rows {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := replayCfg(t, tc.a, tc.b, tc.faults, tc.taken)

			cold := startReplayProto(t, cfg, tc.taken)
			cold.RunUntilHalted(20_000_000)
			want := replayOutcome(t, cold)

			restoreUnder := append(replayModes(tc.a, tc.b),
				replayMode{name: "one-shard-fixed", widthCap: 1},
				replayMode{name: "per-fpga-sampled", parallel: tc.a, sampler: 700})
			for _, at := range []smappic.Time{500, 2_000, want.cycles / 2} {
				// Checkpointing run: land on the cycle, snapshot, continue.
				// The cut itself must not perturb the result.
				p, raw := cursorAt(t, cfg, tc.taken, at)
				if h := p.Group.Horizon(); h != at {
					t.Fatalf("at=%d: checkpoint taken at horizon %d", at, h)
				}
				p.RunUntilHalted(20_000_000)
				sameOutcome(t, fmt.Sprintf("at=%d: checkpointing run", at), replayOutcome(t, p), want)

				// Restored runs: rebuild under another scheduling, replay to
				// the cursor, continue.
				for _, m := range restoreUnder {
					what := fmt.Sprintf("at=%d restored %s", at, m.name)
					r, err := replayInto(t, raw, replayCfg(t, tc.a, tc.b, tc.faults, m), m, diffProgram)
					if err != nil {
						t.Fatalf("%s: Replay: %v", what, err)
					}
					if h := r.Group.Horizon(); h != at {
						t.Fatalf("%s: replayed to horizon %d", what, h)
					}
					r.RunUntilHalted(20_000_000)
					got := replayOutcome(t, r)
					sameOutcome(t, what, got, want)
					if (m.sampler != 0) != (got.samples != nil) {
						t.Errorf("%s: sampler %d, samples section present: %t", what, m.sampler, got.samples != nil)
					}
				}
			}
		})
	}
}

// TestReplayCursorIsModeIndependent takes cursors at the same cycle under
// every sharding, under fixed windows and under a sampler: the files must be
// byte-identical, and name exactly that cycle.
func TestReplayCursorIsModeIndependent(t *testing.T) {
	for _, faults := range []string{"", pcieFaults} {
		for _, at := range []smappic.Time{2_000, 5_000, 7_777} {
			var first []byte
			for _, m := range append(replayModes(2, 2),
				replayMode{name: "per-node-fixed", parallel: 2, granularity: "node", widthCap: 1},
				replayMode{name: "one-shard-sampled", sampler: 300}) {
				_, raw := cursorAt(t, replayCfg(t, 2, 2, faults, m), m, at)
				snap, err := ckpt.Read(bytes.NewReader(raw))
				if err != nil {
					t.Fatal(err)
				}
				if snap.Replay.Horizon != uint64(at) || snap.Now >= uint64(at) {
					t.Errorf("faults=%q at=%d %s: cursor at horizon %d, clock %d", faults, at, m.name, snap.Replay.Horizon, snap.Now)
				}
				if first == nil {
					first = raw
				} else if !bytes.Equal(raw, first) {
					t.Errorf("faults=%q at=%d: the %s cursor differs from the one-shard one", faults, at, m.name)
				}
			}
		}
	}
}

// TestReplayAfterDrainRestoresEverywhere: a cursor taken once the run has
// drained names the horizon of that sharding's last window, which another
// sharding's run may never reach. The drained state is the same state, so
// the restore must still verify and finish identical.
func TestReplayAfterDrainRestoresEverywhere(t *testing.T) {
	modes := replayModes(2, 2)
	for _, taken := range modes {
		p := startReplayProto(t, replayCfg(t, 2, 2, "", taken), taken)
		p.Run()
		want := replayOutcome(t, p)
		var buf bytes.Buffer
		if err := p.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		for _, m := range modes {
			r, err := replayInto(t, buf.Bytes(), replayCfg(t, 2, 2, "", m), m, diffProgram)
			if err != nil {
				t.Fatalf("taken %s, restored %s: %v", taken.name, m.name, err)
			}
			r.Run()
			sameOutcome(t, fmt.Sprintf("taken %s, restored %s", taken.name, m.name), replayOutcome(t, r), want)
		}
	}
}

// TestReplayGuards: the restore guard checks simulated state. A cursor whose
// digest was altered (and the file re-sealed, so the envelope is valid), one
// replayed against a different program, and one whose program drains before
// the horizon are all typed mismatches — never a silent continue.
func TestReplayGuards(t *testing.T) {
	one := replayMode{name: "one-shard"}
	cfg := replayCfg(t, 2, 2, "", one)
	_, raw := cursorAt(t, cfg, one, 5_000)

	snap, err := ckpt.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	snap.Replay.StateDigest = strings.Repeat("0", len(snap.Replay.StateDigest))
	var tampered bytes.Buffer
	if err := snap.Write(&tampered); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name   string
		raw    []byte
		source string
		field  string
	}{
		{"tampered digest", tampered.Bytes(), diffProgram, "state digest"},
		{"different program", raw, strings.Replace(diffProgram, "li   s1, 0xF000001000", "li   s1, 0xF000001000\n\tnop", 1), ""},
		{"drains before the horizon", raw, "\tli a0, 0\n\tebreak\n", "replay clock"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := replayInto(t, tc.raw, cfg, one, tc.source)
			var me *ckpt.MismatchError
			if !errors.As(err, &me) {
				t.Fatalf("error %T (%v), want MismatchError", err, err)
			}
			if tc.field != "" && me.Field != tc.field {
				t.Errorf("mismatch on %q, want %q", me.Field, tc.field)
			}
			if tc.field == "replay clock" && p.Group.Horizon() >= 5_000 {
				t.Errorf("run reached horizon %d; the case wants a drain before 5000", p.Group.Horizon())
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
	cfg := replayCfg(t, 4, 1, "", replayMode{})
	payload := fmt.Sprintf(`{"kind":1,"config_hash":%q,"now":2000,"replay":{"executed":1234,"parallel":1}}`, cfg.ConfigHash())
	wantVersionError(t, ckpttest.Seal(1, ckpt.KindReplay, []byte(payload)), cfg, 1)
}

// TestRestoreRefusesFormatVersion2 re-seals a valid cursor of this build at
// version 2. A version-2 serial cursor counted executed events, which no
// build can replay any more; the gate, not the decoder, must refuse it.
func TestRestoreRefusesFormatVersion2(t *testing.T) {
	cfg := replayCfg(t, 4, 1, "", replayMode{})
	_, file := cursorAt(t, cfg, replayMode{}, 2_000)
	payload := file[17 : len(file)-32] // between the header and the digest
	wantVersionError(t, ckpttest.Seal(2, ckpt.KindReplay, payload), cfg, 2)
}

// TestRestoreRefusesFormatVersion3 restores a real version-3 file: a window
// cursor (window count, clock, window-sequence digest, shard count) written
// by smappic-run at commit 3a94eb3 with `-shape 2x2x2 -checkpoint-at 60000`.
// gob would decode it leniently — unknown fields dropped, horizon zero — so
// the gate must stop it before the decoder sees it.
func TestRestoreRefusesFormatVersion3(t *testing.T) {
	raw, err := os.ReadFile("testdata/replay-v3/one-shard.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	wantVersionError(t, raw, smappic.DefaultConfig(2, 2, 2), 3)
}

// TestRestoreRefusesFormatVersion4 restores a real version-4 state capture,
// whose statistics sat in one registry per shard beside the node sections.
// gob would decode it without an error and drop those registries, so the
// gate must stop it before the decoder sees it.
func TestRestoreRefusesFormatVersion4(t *testing.T) {
	raw, err := os.ReadFile("testdata/state-v4/one-shard.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	wantVersionError(t, raw, smappic.DefaultConfig(1, 1, 2), 4)
}
