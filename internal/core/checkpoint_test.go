package core

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"testing"

	"smappic/internal/ckpt"
	"smappic/internal/ckpt/ckpttest"
)

// TestApplyStateRefusesMisshapenNoCColumns applies a captured state whose
// per-link NoC columns were re-sized — what a hostile, re-sealed snapshot
// file can carry past the digest — and requires the typed mismatch error
// for every column, longer or shorter, never an index panic or a silently
// truncated copy.
func TestApplyStateRefusesMisshapenNoCColumns(t *testing.T) {
	build := func() *Prototype { return restoreTarget(t) }
	for _, tc := range []struct {
		name   string
		resize func(noc *ckpt.NoCState)
	}{
		{"LinkBusy longer", func(n *ckpt.NoCState) { n.LinkBusy[1] = append(n.LinkBusy[1], 7) }},
		{"LinkBusy shorter", func(n *ckpt.NoCState) { n.LinkBusy[1] = n.LinkBusy[1][1:] }},
		{"LinkFlits longer", func(n *ckpt.NoCState) { n.LinkFlits[0] = append(n.LinkFlits[0], 7) }},
		{"LinkFlits shorter", func(n *ckpt.NoCState) { n.LinkFlits[0] = n.LinkFlits[0][1:] }},
		{"NextFree longer", func(n *ckpt.NoCState) { n.NextFree[2] = append(n.NextFree[2], 7) }},
	} {
		st, err := build().CaptureState()
		if err != nil {
			t.Fatal(err)
		}
		tc.resize(&st.Nodes[0].NoC)
		err = build().ApplyState(st, false)
		var me *ckpt.MismatchError
		if !errors.As(err, &me) {
			t.Errorf("%s: error %T (%v), want MismatchError", tc.name, err, err)
		}
	}

	// The unmodified capture still applies.
	st, err := build().CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	if err := build().ApplyState(st, false); err != nil {
		t.Fatalf("pristine state refused: %v", err)
	}
}

// restoreTarget is the build the ApplyState tests capture from and restore
// into: 1x1x2 with caches of a few sets, so a captured state (and a fuzz
// corpus file holding one) stays a few kilobytes.
func restoreTarget(t testing.TB) *Prototype {
	cfg := DefaultConfig(1, 1, 2)
	cfg.Core = CoreNone
	cfg.Cache.L1ISizeBytes, cfg.Cache.L1DSizeBytes, cfg.Cache.BPCSizeBytes, cfg.Cache.LLCSliceSize = 512, 512, 512, 2048
	p, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// FuzzApplyState picks up where ckpt's FuzzRead stops. The bytes are sealed
// as a state payload under a valid header and digest — what a hostile file
// can carry past the envelope checks — and whatever State the decoder makes
// of them is applied to a fresh 1x1x2 build. ApplyState must accept it or
// return one of ckpt's typed errors: never panic, never index out of range,
// whatever the section counts, column lengths and indices say. The seeds
// added here are a pristine capture, whole and cut short;
// testdata/fuzz/FuzzApplyState holds captures with sections dropped, resized
// and pointed out of range.
func FuzzApplyState(f *testing.F) {
	st, err := restoreTarget(f).CaptureState()
	if err != nil {
		f.Fatal(err)
	}
	var file bytes.Buffer
	if err := (&ckpt.Snapshot{Kind: ckpt.KindState, State: st}).Write(&file); err != nil {
		f.Fatal(err)
	}
	payload := file.Bytes()[17 : file.Len()-sha256.Size] // header: magic, version, kind, length
	f.Add(payload)
	f.Add(payload[:len(payload)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ckpt.Read(bytes.NewReader(ckpttest.Seal(ckpt.Version, ckpt.KindState, data)))
		if err != nil {
			return // FuzzRead's half
		}
		p := restoreTarget(t)
		defer p.Close()
		err = p.ApplyState(s.State, false)
		var ce *ckpt.CorruptError
		var me *ckpt.MismatchError
		if err != nil && !errors.As(err, &ce) && !errors.As(err, &me) {
			t.Errorf("error %T (%v) is not one of ckpt's typed errors", err, err)
		}
	})
}
