package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"smappic/internal/ckpt"
	"smappic/internal/ckpt/ckpttest"
)

// TestMain lets a test run this binary as smappic-run itself: with
// SMAPPIC_RUN_AS_MAIN set, the process is main() with the given flags.
func TestMain(m *testing.M) {
	if os.Getenv("SMAPPIC_RUN_AS_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// smappicRun executes the CLI and returns its stderr and whether it exited 0.
func smappicRun(t *testing.T, args ...string) (stderr string, ok bool) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SMAPPIC_RUN_AS_MAIN=1")
	var errb bytes.Buffer
	cmd.Stderr = &errb
	err := cmd.Run()
	if _, isExit := err.(*exec.ExitError); err != nil && !isExit {
		t.Fatal(err)
	}
	return errb.String(), err == nil
}

// TestRestoreNamesBothFormatVersions restores snapshots of the older formats
// (valid envelope and digest): version 1's JSON payload, this build's own
// payload re-sealed as version 2 — whose serial cursors counted executed
// events — a real version-3 window cursor written at commit 3a94eb3, none of
// which anything can replay any more, and a real version-4 state capture,
// whose per-shard statistics the decoder would drop. Each run must exit 1 with a
// message naming the file's version and the one this build reads. A snapshot
// the same binary just wrote must restore, under another sharding too.
func TestRestoreNamesBothFormatVersions(t *testing.T) {
	dir := t.TempDir()

	cur := filepath.Join(dir, "run.ckpt")
	if stderr, ok := smappicRun(t, "-shape", "2x1x2", "-checkpoint", cur, "-checkpoint-at", "2000"); !ok {
		t.Fatalf("checkpointing run failed:\n%s", stderr)
	}
	for _, parallel := range []string{"0", "2"} {
		if stderr, ok := smappicRun(t, "-shape", "2x1x2", "-parallel", parallel, "-restore", cur); !ok {
			t.Fatalf("restoring this build's own snapshot under -parallel %s failed:\n%s", parallel, stderr)
		}
	}
	file, err := os.ReadFile(cur)
	if err != nil {
		t.Fatal(err)
	}
	v3, err := os.ReadFile("../../testdata/replay-v3/one-shard.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	v4, err := os.ReadFile("../../testdata/state-v4/one-shard.ckpt")
	if err != nil {
		t.Fatal(err)
	}

	for version, sealed := range map[uint32][]byte{
		1: ckpttest.Seal(1, ckpt.KindReplay, []byte(`{"kind":1,"config_hash":"0","now":2000,"replay":{"executed":1,"parallel":1}}`)),
		2: ckpttest.Seal(2, ckpt.KindReplay, file[17:len(file)-32]), // between the header and the digest
		3: v3,
		4: v4,
	} {
		old := filepath.Join(dir, fmt.Sprintf("v%d.ckpt", version))
		if err := os.WriteFile(old, sealed, 0o644); err != nil {
			t.Fatal(err)
		}
		stderr, ok := smappicRun(t, "-shape", "2x1x2", "-restore", old)
		if ok {
			t.Fatalf("restoring a version-%d snapshot exited 0", version)
		}
		for _, want := range []string{fmt.Sprintf("format version %d", version), fmt.Sprintf("reads version %d", ckpt.Version)} {
			if !strings.Contains(stderr, want) {
				t.Errorf("version %d: stderr lacks %q:\n%s", version, want, stderr)
			}
		}
	}
}
