package ckpt_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"smappic/internal/ckpt"
	"smappic/internal/ckpt/ckpttest"
)

// fill sets every field reachable from v to a non-zero value: counters for
// numbers, true, a distinct string, two-element slices, allocated pointers.
// A field the codec drops or zeroes therefore shows in a round trip.
func fill(v reflect.Value, next *uint64) {
	*next++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*next))
	case reflect.Uint8:
		v.SetUint(*next%250 + 1)
	case reflect.Uint32, reflect.Uint64:
		v.SetUint(*next)
	case reflect.String:
		v.SetString(fmt.Sprint("s", *next))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), next)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(v.Elem(), next)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i), next)
		}
	default:
		panic("fill: snapshot schema grew a " + v.Kind().String() + " field; teach the test to fill it")
	}
}

// filled returns a snapshot of the given kind with every field of every
// state struct non-zero and every slice non-empty.
func filled(kind ckpt.Kind) *ckpt.Snapshot {
	var s ckpt.Snapshot
	var next uint64
	fill(reflect.ValueOf(&s).Elem(), &next)
	s.Kind = kind
	return &s
}

func encode(t testing.TB, s *ckpt.Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

const headerLen, digestLen = 17, sha256.Size

// payloadOf cuts the payload out of a well-formed snapshot file.
func payloadOf(file []byte) []byte { return file[headerLen : len(file)-digestLen] }

func TestRoundTripKeepsEveryField(t *testing.T) {
	want := filled(ckpt.KindState)
	got, err := ckpt.Read(bytes.NewReader(encode(t, want)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("snapshot changed in the round trip:\n got %+v\nwant %+v", got, want)
	}
}

// TestWriteIsDeterministic: equal states, built separately, encode to the
// same bytes — what lets a snapshot file stand in for the state it holds.
func TestWriteIsDeterministic(t *testing.T) {
	a, b := encode(t, filled(ckpt.KindState)), encode(t, filled(ckpt.KindState))
	if !bytes.Equal(a, b) {
		t.Fatal("two Writes of equal state differ")
	}
}

func TestReadFileMatchesRead(t *testing.T) {
	want := filled(ckpt.KindState)
	path := t.TempDir() + "/s.ckpt"
	if err := want.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ckpt.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("WriteFile/ReadFile changed the snapshot")
	}
}

// TestConcurrentWriteFilesLeaveOneWholeSnapshot: writers racing to one path
// — two fleet workers running a re-leased job, two processes building one
// warm prefix — each rename a whole snapshot of their own into place, so the
// file always reads back as one writer's snapshot and no temp file is left.
func TestConcurrentWriteFilesLeaveOneWholeSnapshot(t *testing.T) {
	const writers, rounds = 4, 50
	dir := t.TempDir()
	path := filepath.Join(dir, "job.ckpt")
	snaps := make([]*ckpt.Snapshot, writers)
	for w := range snaps {
		snaps[w] = filled(ckpt.KindState)
		snaps[w].Now = uint64(w)
		// Sizes differ too, so a torn mix of two writers cannot read back.
		snaps[w].State.Mem.Pages = make([]ckpt.MemPage, w+1)
	}
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for _, s := range snaps {
			wg.Add(1)
			go func(s *ckpt.Snapshot) {
				defer wg.Done()
				if err := s.WriteFile(path); err != nil {
					t.Errorf("round %d: WriteFile: %v", round, err)
				}
			}(s)
		}
		wg.Wait()
		got, err := ckpt.ReadFile(path)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got.Now >= writers || !reflect.DeepEqual(got, snaps[got.Now]) {
			t.Fatalf("round %d: the file is no writer's snapshot", round)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("%d files left in the directory; want only job.ckpt", len(entries))
	}
}

// TestEnvelopeErrors damages one envelope field at a time. Cases that must
// get past the digest re-seal the file, so the named check is the one that
// fires.
func TestEnvelopeErrors(t *testing.T) {
	good := encode(t, filled(ckpt.KindState))
	payload := payloadOf(good)
	with := func(mut func(b []byte) []byte) []byte { return mut(append([]byte(nil), good...)) }
	putLen := func(b []byte, n uint64) []byte { binary.LittleEndian.PutUint64(b[9:17], n); return b }
	section := func(s *ckpt.Snapshot) []byte { return payloadOf(encode(t, s)) }
	noState := filled(ckpt.KindState)
	noState.State = nil

	var ce *ckpt.CorruptError
	var te *ckpt.TruncatedError
	var ve *ckpt.VersionError
	for _, c := range []struct {
		name string
		file []byte
		want any
	}{
		{"magic", with(func(b []byte) []byte { b[0] = 'X'; return b }), &ce},
		{"version newer", with(func(b []byte) []byte { b[4]++; return b }), &ve},
		{"version 1", ckpttest.Seal(1, ckpt.KindState, []byte(`{"kind":2,"state":{}}`)), &ve},
		{"version 2", ckpttest.Seal(2, ckpt.KindState, payload), &ve},
		{"version 3", ckpttest.Seal(3, ckpt.KindState, payload), &ve},
		{"version 4", ckpttest.Seal(4, ckpt.KindState, payload), &ve},
		{"kind byte flipped", with(func(b []byte) []byte { b[8] ^= 3; return b }), &ce},
		{"kind disagrees with payload", ckpttest.Seal(ckpt.Version, 1, payload), &ce},
		{"kind unknown", ckpttest.Seal(ckpt.Version, 9, section(filled(9))), &ce},
		{"state section missing", ckpttest.Seal(ckpt.Version, ckpt.KindState, section(noState)), &ce},
		{"length too large", with(func(b []byte) []byte { return putLen(b, uint64(len(payload))+1) }), &te},
		{"length too small", with(func(b []byte) []byte { return putLen(b, uint64(len(payload))-1) }), &ce},
		{"trailing bytes", append(append([]byte(nil), good...), 0), &ce},
		{"last byte missing", good[:len(good)-1], &te},
		{"header only", good[:headerLen], &te},
		{"empty", nil, &te},
		{"payload bit", with(func(b []byte) []byte { b[headerLen+len(payload)/2] ^= 1; return b }), &ce},
		{"digest bit", with(func(b []byte) []byte { b[len(b)-1] ^= 1; return b }), &ce},
		{"payload not gob", ckpttest.Seal(ckpt.Version, ckpt.KindState, []byte(`{"kind":2,"state":{}}`)), &ce},
		{"payload cut short", ckpttest.Seal(ckpt.Version, ckpt.KindState, payload[:len(payload)/2]), &ce},
		{"bytes after the payload value", ckpttest.Seal(ckpt.Version, ckpt.KindState, append(append([]byte(nil), payload...), 0)), &ce},
	} {
		s, err := ckpt.Read(bytes.NewReader(c.file))
		if s != nil || !errors.As(err, c.want) {
			t.Errorf("%s: snapshot %v, error %T (%v); want no snapshot and %T", c.name, s != nil, err, err, c.want)
		}
		if !ckpt.IsSnapshotError(err) {
			t.Errorf("%s: %v is not a snapshot error", c.name, err)
		}
	}

	// Kind 1 was the replay cursor of earlier builds: a well-sealed one of
	// this version is corrupt, and the error names its kind.
	_, err := ckpt.Read(bytes.NewReader(ckpttest.Seal(ckpt.Version, 1, section(filled(1)))))
	if !errors.As(err, &ce) || !strings.Contains(ce.Reason, "unknown snapshot kind kind(1)") {
		t.Errorf("kind-1 payload: error %T (%v); want a CorruptError naming kind(1)", err, err)
	}
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestForgedLengthAllocatesNothing: a 64-byte file whose length frame
// promises a terabyte is reported short from the bytes actually present;
// nothing is sized from the frame.
func TestForgedLengthAllocatesNothing(t *testing.T) {
	file := ckpttest.Seal(ckpt.Version, ckpt.KindState, make([]byte, 64-headerLen-digestLen))
	binary.LittleEndian.PutUint64(file[9:17], 1<<40)
	// allocated diffs a process-wide counter, so whatever the runtime or
	// another test's goroutine allocates meanwhile lands in it too. That
	// only ever adds: the least of a few tries bounds the call itself.
	var err error
	n := ^uint64(0)
	for try := 0; try < 5; try++ {
		n = min(n, allocated(func() { _, err = ckpt.Read(bytes.NewReader(file)) }))
	}
	var te *ckpt.TruncatedError
	if !errors.As(err, &te) {
		t.Fatalf("error %T (%v), want TruncatedError", err, err)
	}
	if te.Got != 64 || te.Want != headerLen+1<<40+digestLen {
		t.Errorf("TruncatedError{Want: %d, Got: %d}", te.Want, te.Got)
	}
	if n > 4096 {
		t.Errorf("Read allocated %d bytes for a 64-byte file", n)
	}
}

// The payload decoder sizes a slice from its count only up to a fixed first
// chunk (10 MiB in encoding/gob) and grows it as elements actually arrive,
// so what a hostile payload can make Read allocate is a constant per level
// of slice nesting in the schema plus a constant times the input length.
// The floor is a known deviation from "a constant times the input length":
// it is encoding/gob's, and DESIGN 3.4 ("Hostile payloads") says why it is
// accepted.
const (
	allocFloor   = 96 << 20
	allocPerByte = 4096
)

// FuzzRead feeds Read arbitrary bytes twice: as a whole file, and as a
// payload re-sealed under a valid header and digest so the envelope checks
// pass and the payload decoder is what gets fuzzed. Only the typed errors
// may come back — never a panic — with allocation bounded as above. The
// seeds added here follow the schema: a state payload, whole and cut short,
// sealed as a state and as kind 1 (which no build reads any more).
// testdata/fuzz/FuzzRead holds the rest (replay cursors of an earlier build,
// payloads under the wrong kind, cut short, without their section, a
// version-1 JSON payload, nothing), each of which must fail with a typed
// error.
func FuzzRead(f *testing.F) {
	p := payloadOf(encode(f, filled(ckpt.KindState)))
	for _, kind := range []ckpt.Kind{1, ckpt.KindState} {
		f.Add(byte(kind), p)
		f.Add(byte(kind), p[:len(p)/2])
	}

	f.Fuzz(func(t *testing.T, kind byte, data []byte) {
		for _, file := range [][]byte{data, ckpttest.Seal(ckpt.Version, ckpt.Kind(kind), data)} {
			var s *ckpt.Snapshot
			var err error
			n := allocated(func() { s, err = ckpt.Read(bytes.NewReader(file)) })
			if limit := uint64(allocFloor + allocPerByte*len(file)); n > limit {
				t.Errorf("Read allocated %d bytes for a %d-byte file (limit %d)", n, len(file), limit)
			}
			var ce *ckpt.CorruptError
			var te *ckpt.TruncatedError
			var ve *ckpt.VersionError
			switch {
			case err == nil:
				if s == nil || byte(s.Kind) != kind || s.Kind != ckpt.KindState || s.State == nil {
					t.Errorf("accepted snapshot is inconsistent: %+v", s)
				}
			case !errors.As(err, &ce) && !errors.As(err, &te) && !errors.As(err, &ve):
				t.Errorf("error %T (%v) is not one of Read's typed errors", err, err)
			}
		}
	})
}
