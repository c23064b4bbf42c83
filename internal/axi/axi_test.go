package axi

import (
	"testing"
	"testing/quick"
)

func TestAlign(t *testing.T) {
	cases := []struct {
		addr    Addr
		aligned Addr
		off     int
	}{
		{0, 0, 0},
		{63, 0, 63},
		{64, 64, 0},
		{130, 128, 2},
	}
	for _, c := range cases {
		a, o := Align(c.addr)
		if a != c.aligned || o != c.off {
			t.Errorf("Align(%d) = (%d,%d), want (%d,%d)", c.addr, a, o, c.aligned, c.off)
		}
	}
}

// Property: Align returns an aligned base and an offset < BeatBytes that
// reconstruct the address.
func TestAlignProperty(t *testing.T) {
	f := func(addr Addr) bool {
		a, o := Align(addr)
		return a%BeatBytes == 0 && o >= 0 && o < BeatBytes && a+Addr(o) == addr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
