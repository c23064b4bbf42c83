package core

import (
	"errors"
	"testing"

	"smappic/internal/ckpt"
)

// TestApplyStateRefusesMisshapenNoCColumns applies a captured state whose
// per-link NoC columns were re-sized — what a hostile, re-sealed snapshot
// file can carry past the digest — and requires the typed mismatch error
// for every column, longer or shorter, never an index panic or a silently
// truncated copy.
func TestApplyStateRefusesMisshapenNoCColumns(t *testing.T) {
	build := func() *Prototype {
		cfg := DefaultConfig(1, 1, 2)
		cfg.Core = CoreNone
		p, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
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
