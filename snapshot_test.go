// A snapshot is a state capture, and the state it captures must not depend on
// how the run was scheduled. This file holds the mid-run half of that check —
// the simulated state at every sampler barrier is the same under every
// sharding, compared by digest — and the format-version gate in front of
// every restore.
package smappic_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"smappic"
	"smappic/internal/ckpt"
	"smappic/internal/ckpt/ckpttest"
	"smappic/internal/core"
	"smappic/internal/rvasm"
)

// barrierDigests runs the diff program on p, whose sampler is installed, to
// the halt. At every sampler row it records the row's cycle and the SHA-256 of
// the simulated state there: MetricsJSON without the sampler's series, which
// is the observer's, not the model's.
func barrierDigests(t *testing.T, p *core.Prototype) []string {
	t.Helper()
	var digests []string
	p.Group.OnBarrier(func() {
		rows := p.Sampler.Rows()
		if len(rows) == len(digests) {
			return
		}
		m, err := p.MetricsJSON()
		if err != nil {
			t.Error(err)
			return
		}
		state, _ := splitSamples(m)
		digests = append(digests, fmt.Sprintf("cycle %d: %x", rows[len(rows)-1].At, sha256.Sum256(state)))
	})
	prog := rvasm.MustAssemble(smappic.ResetPC, diffProgram)
	for n := 0; n < p.Cfg.TotalNodes(); n++ {
		p.Host().LoadProgram(n, prog)
	}
	p.Start()
	p.RunUntilHalted(20_000_000)
	if !p.AllHalted() {
		t.Fatal("harts did not halt")
	}
	return digests
}

// TestMidRunStateIsShardingFree runs the RISC-V diff program on 2x2x2 under
// one shard, per FPGA and per node, with and without a PCIe fault plan (so
// barriers fall mid-retransmission). A sampler barrier holds every event below
// its cycle and none at or past it, so the state digests at the sampler's
// rows must form one sequence in all three.
func TestMidRunStateIsShardingFree(t *testing.T) {
	for _, faults := range []string{"", pcieFaults} {
		var want []string
		for _, s := range shardings {
			dc := diffCase{a: 2, b: 2, c: 2, workload: "riscv", faults: faults, seed: 42, sampler: 500, granularity: s.granularity}
			got := barrierDigests(t, buildProto(t, dc, s.parallel))
			if want == nil {
				if want = got; len(want) < 10 {
					t.Fatalf("faults %q: %d sampler rows; the check wants a run that crosses many", faults, len(want))
				}
				continue
			}
			for i := range max(len(got), len(want)) {
				if i >= len(got) || i >= len(want) || got[i] != want[i] {
					t.Errorf("faults %q, %s: %d rows, one shard %d; first difference at row %d:\n%s\nvs one shard\n%s",
						faults, s.name, len(got), len(want), i, rowAt(got, i), rowAt(want, i))
					break
				}
			}
		}
	}
}

// rowAt returns row i of digests, or a note that there is none.
func rowAt(digests []string, i int) string {
	if i < len(digests) {
		return digests[i]
	}
	return "(no row)"
}

// wantVersionError requires ckpt.Read to refuse raw at the version gate,
// naming both versions.
func wantVersionError(t *testing.T, raw []byte, version uint32) {
	t.Helper()
	_, err := ckpt.Read(bytes.NewReader(raw))
	var ve *ckpt.VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("version-%d snapshot: error %T (%v), want VersionError", version, err, err)
	}
	if ve.Got != version || ve.Want != ckpt.Version {
		t.Errorf("VersionError{Got: %d, Want: %d}, want {%d, %d}", ve.Got, ve.Want, version, ckpt.Version)
	}
}

// TestRestoreRefusesFormatVersion1 hand-seals what format version 1 wrote —
// the same envelope around a JSON payload, digest valid — and requires the
// version gate, not the payload decoder, to refuse it.
func TestRestoreRefusesFormatVersion1(t *testing.T) {
	payload := `{"kind":1,"config_hash":"0","now":2000,"replay":{"executed":1234,"parallel":1}}`
	wantVersionError(t, ckpttest.Seal(1, 1, []byte(payload)), 1)
}

// TestRestoreRefusesFormatVersion2 re-seals a valid state payload of this
// build at version 2, whose files no build reads any more; the gate, not the
// decoder, must refuse it.
func TestRestoreRefusesFormatVersion2(t *testing.T) {
	p := buildProto(t, diffCase{a: 4, b: 1, c: 2, seed: 42}, 0)
	st, err := p.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	file := encodeSnapshot(t, &ckpt.Snapshot{Kind: ckpt.KindState, ConfigHash: p.Cfg.ConfigHash(), State: st})
	payload := file[17 : len(file)-32] // between the header and the digest
	wantVersionError(t, ckpttest.Seal(2, ckpt.KindState, payload), 2)
}

// TestRestoreRefusesFormatVersion3 reads a real version-3 file: a window
// cursor (window count, clock, window-sequence digest, shard count) written
// by smappic-run at commit 3a94eb3 from a 2x2x2 run cut at cycle 60 000.
// gob would decode it leniently — unknown fields dropped — so the gate must
// stop it before the decoder sees it.
func TestRestoreRefusesFormatVersion3(t *testing.T) {
	raw, err := os.ReadFile("testdata/replay-v3/one-shard.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	wantVersionError(t, raw, 3)
}

// TestRestoreRefusesFormatVersion4 reads a real version-4 state capture,
// whose statistics sat in one registry per shard beside the node sections.
// gob would decode it without an error and drop those registries, so the
// gate must stop it before the decoder sees it.
func TestRestoreRefusesFormatVersion4(t *testing.T) {
	raw, err := os.ReadFile("testdata/state-v4/one-shard.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	wantVersionError(t, raw, 4)
}

// TestRestoreRefusesFormatVersion5 reads a real version-5 state capture,
// whose memory pages are 64 KiB where this build's are 4 KiB. gob would
// decode it, and only the backing store's page-size check would stop it
// part-way through a restore, so the gate must stop it first.
func TestRestoreRefusesFormatVersion5(t *testing.T) {
	raw, err := os.ReadFile("testdata/state-v5/one-shard.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	wantVersionError(t, raw, 5)
}

// The payload schema ckpt.Version names, as the digest of schemaOf
// (ckpt.Snapshot). Any change to a state struct moves the digest, and must
// then do one of two things: bump ckpt.Version (and pin the new pair here,
// emptying compatibleSchemas), or list the old digest in compatibleSchemas.
const (
	pinnedSchema  = "7a722c5118c184ae5837385fd47c412e881bbd120233c627888002587a079859"
	pinnedVersion = 6
)

// compatibleSchemas maps an earlier schema of pinnedVersion, one whose files
// gob still decodes into the current structs without losing state, to a
// committed file written under it. The file must read and restore.
// Version 6 changed what MemState.PageBytes holds, not the schema, and no
// earlier schema is listed: a version-5 file is refused at the gate.
var compatibleSchemas = map[string]string{}

// schemaOf renders t canonically, the way gob sees it: a struct as its
// exported fields in declaration order, each as its name and the rendering
// of its type; a named type by its structure, not its name.
func schemaOf(b *strings.Builder, t reflect.Type, open map[reflect.Type]bool) {
	switch t.Kind() {
	case reflect.Struct:
		if open[t] {
			b.WriteString(t.Name()) // a recursive type refers to itself by name
			return
		}
		open[t] = true
		b.WriteString("struct{")
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() {
				b.WriteString(f.Name + " ")
				schemaOf(b, f.Type, open)
				b.WriteString("; ")
			}
		}
		b.WriteString("}")
		delete(open, t)
	case reflect.Pointer:
		b.WriteString("*")
		schemaOf(b, t.Elem(), open)
	case reflect.Slice:
		b.WriteString("[]")
		schemaOf(b, t.Elem(), open)
	case reflect.Array:
		fmt.Fprintf(b, "[%d]", t.Len())
		schemaOf(b, t.Elem(), open)
	case reflect.Map:
		b.WriteString("map[")
		schemaOf(b, t.Key(), open)
		b.WriteString("]")
		schemaOf(b, t.Elem(), open)
	default:
		b.WriteString(t.Kind().String())
	}
}

// freshStateTarget is the build the state-v4 and state-v5 files capture, and
// the one a file backing a compatibleSchemas entry must restore onto:
// 1x1x2, no cores, caches of a few sets.
func freshStateTarget(t *testing.T) *core.Prototype {
	t.Helper()
	cfg := core.DefaultConfig(1, 1, 2)
	cfg.Core = core.CoreNone
	cfg.Cache.L1ISizeBytes, cfg.Cache.L1DSizeBytes, cfg.Cache.BPCSizeBytes, cfg.Cache.LLCSliceSize = 512, 512, 512, 2048
	p, err := core.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSnapshotSchemaIsPinned ties ckpt.Version to the schema it names, so
// keeping the version across a schema change is a recorded decision backed by
// a file, not a judgement: the current schema's digest and ckpt.Version must
// be the pinned pair, and every compatible earlier schema's file must read,
// restore onto a fresh build, and re-capture as the state it holds.
func TestSnapshotSchemaIsPinned(t *testing.T) {
	var b strings.Builder
	schemaOf(&b, reflect.TypeOf(ckpt.Snapshot{}), map[reflect.Type]bool{})
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(b.String()))); got != pinnedSchema || ckpt.Version != pinnedVersion {
		t.Errorf("snapshot schema %s at ckpt.Version %d; pinned: %s at version %d.\n"+
			"Bump ckpt.Version, or list the pinned digest in compatibleSchemas with a file of its schema that restores.\nSchema: %s",
			got, ckpt.Version, pinnedSchema, pinnedVersion, b.String())
	}
	gobOf := func(st *ckpt.State) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(st); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for digest, path := range compatibleSchemas {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := ckpt.Read(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("schema %s: %s: %v", digest, path, err)
		}
		p := freshStateTarget(t)
		if err := p.ApplyState(snap.State, false); err != nil {
			t.Fatalf("schema %s: %s does not restore: %v", digest, path, err)
		}
		back, err := p.CaptureState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gobOf(back), gobOf(snap.State)) {
			t.Errorf("schema %s: %s restored, but re-captures as another state", digest, path)
		}
	}
}
