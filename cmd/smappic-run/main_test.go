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

// TestRestoreNamesBothFormatVersions restores hand-sealed snapshots of the
// older formats (valid envelope and digest): version 1's JSON payload, and
// this build's own payload re-sealed as version 2 — whose serial cursors
// counted executed events, which nothing can replay any more. Each run must
// exit 1 with a message naming the file's version and the one this build
// reads. A snapshot the same binary just wrote must restore.
func TestRestoreNamesBothFormatVersions(t *testing.T) {
	dir := t.TempDir()

	cur := filepath.Join(dir, "run.ckpt")
	if stderr, ok := smappicRun(t, "-shape", "2x1x2", "-checkpoint", cur, "-checkpoint-at", "2000"); !ok {
		t.Fatalf("checkpointing run failed:\n%s", stderr)
	}
	if stderr, ok := smappicRun(t, "-shape", "2x1x2", "-restore", cur); !ok {
		t.Fatalf("restoring this build's own snapshot failed:\n%s", stderr)
	}
	file, err := os.ReadFile(cur)
	if err != nil {
		t.Fatal(err)
	}

	for version, payload := range map[uint32][]byte{
		1: []byte(`{"kind":1,"config_hash":"0","now":2000,"replay":{"executed":1,"parallel":1}}`),
		2: file[17 : len(file)-32], // between the header and the digest
	} {
		old := filepath.Join(dir, fmt.Sprintf("v%d.ckpt", version))
		if err := os.WriteFile(old, ckpttest.Seal(version, ckpt.KindReplay, payload), 0o644); err != nil {
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
