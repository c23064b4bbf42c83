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

// TestRestoreNamesBothFormatVersions restores a hand-sealed version-1
// snapshot (valid envelope and digest, JSON payload): the run must exit 1
// with a message naming the file's version and the one this build reads.
// A snapshot the same binary just wrote must restore.
func TestRestoreNamesBothFormatVersions(t *testing.T) {
	dir := t.TempDir()

	payload := `{"kind":1,"config_hash":"0","now":2000,"replay":{"executed":1,"parallel":1}}`
	old := filepath.Join(dir, "v1.ckpt")
	if err := os.WriteFile(old, ckpttest.Seal(1, ckpt.KindReplay, []byte(payload)), 0o644); err != nil {
		t.Fatal(err)
	}
	stderr, ok := smappicRun(t, "-shape", "2x1x2", "-restore", old)
	if ok {
		t.Fatal("restoring a version-1 snapshot exited 0")
	}
	for _, want := range []string{"format version 1", fmt.Sprintf("reads version %d", ckpt.Version)} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr)
		}
	}

	cur := filepath.Join(dir, "run.ckpt")
	if stderr, ok := smappicRun(t, "-shape", "2x1x2", "-checkpoint", cur, "-checkpoint-at", "2000"); !ok {
		t.Fatalf("checkpointing run failed:\n%s", stderr)
	}
	if stderr, ok := smappicRun(t, "-shape", "2x1x2", "-restore", cur); !ok {
		t.Fatalf("restoring this build's own snapshot failed:\n%s", stderr)
	}
}
