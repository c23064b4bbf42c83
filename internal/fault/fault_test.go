package fault

import (
	"strings"
	"testing"

	"smappic/internal/sim"
)

func TestParseGrammar(t *testing.T) {
	p, err := Parse("pcie.*.drop:p=0.01,seed=7;node0.dram.flip:p=0.001;node1.bridge.delay:cycles=50,n=3,after=10", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rules) != 3 {
		t.Fatalf("parsed %d rules, want 3", len(p.Rules))
	}
	r := p.Rules[0]
	if r.Pattern != "pcie.*" || r.Kind != Drop || r.P != 0.01 || r.Seed != 7 {
		t.Fatalf("rule 0 = %+v", r)
	}
	r = p.Rules[2]
	if r.Kind != Delay || r.Cycles != 50 || r.N != 3 || r.After != 10 {
		t.Fatalf("rule 2 = %+v", r)
	}
	if p.Seed != 1 {
		t.Fatalf("plan seed = %d", p.Seed)
	}
}

func TestParseEmptyAndErrors(t *testing.T) {
	if p, err := Parse("", 1); p != nil || err != nil {
		t.Fatalf("empty spec: %v %v", p, err)
	}
	if p, err := Parse("  ;  ", 1); p != nil || err != nil {
		t.Fatalf("blank rules: %v %v", p, err)
	}
	for _, bad := range []string{
		"pcie.ep0.link",            // no kind
		"pcie.ep0.link.zap:p=0.1",  // unknown kind
		"pcie.ep0.link.drop:p=1.5", // p out of range
		"pcie.ep0.link.drop:p",     // not key=value
		"pcie.ep0.link.drop:q=1",   // unknown key
		".drop",                    // empty pattern
		"node0.dram.delay:p=1",     // delay without cycles
	} {
		if _, err := Parse(bad, 1); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestPatternMatching(t *testing.T) {
	cases := []struct {
		pattern, name string
		want          bool
	}{
		{"pcie.ep2.link", "pcie.ep2.link", true},
		{"pcie.ep2.link", "pcie.ep1.link", false},
		{"pcie.*.link", "pcie.ep1.link", true},
		{"pcie.*", "pcie.ep1.link", true}, // trailing * swallows remainder
		{"pcie.*", "pcie.ep1", true},
		{"pcie.*", "node0.dram", false},
		{"*.dram", "node0.dram", true},
		{"*.dram", "node0.dram.x", false},
		{"node0.dram", "node0.dram.x", false},
	}
	for _, c := range cases {
		if got := (Rule{Pattern: c.pattern}).matches(c.name); got != c.want {
			t.Errorf("matches(%q, %q) = %v, want %v", c.pattern, c.name, got, c.want)
		}
	}
}

func TestNilSafety(t *testing.T) {
	var inj *Injector
	s := inj.Site("anything", nil)
	if s != nil {
		t.Fatal("nil injector handed out a site")
	}
	if f := s.Transfer(); f.Drop || f.Corrupt || f.Extra != 0 {
		t.Fatal("nil site injected a fault")
	}
	if s.FlipBits() != 0 {
		t.Fatal("nil site not inert")
	}
	if NewInjector(nil) != nil {
		t.Fatal("nil plan should produce a nil injector")
	}
}

func TestUnmatchedSiteIsNil(t *testing.T) {
	inj := NewInjector(MustParse("pcie.*.drop:p=1", 1))
	if s := inj.Site("node0.dram", sim.NewEngine()); s != nil {
		t.Fatal("unmatched site should be nil")
	}
	if s := inj.Site("pcie.ep0.link", sim.NewEngine()); s == nil {
		t.Fatal("matched site missing")
	}
	if inj.Site("pcie.ep0.link", sim.NewEngine()) != inj.Site("pcie.ep0.link", sim.NewEngine()) {
		t.Fatal("site resolution not idempotent")
	}
}

func TestZeroAllocHotPath(t *testing.T) {
	var nilSite *Site
	inj := NewInjector(MustParse("pcie.*.drop:p=0.5;pcie.*.flip:p=0.5", 1))
	live := inj.Site("pcie.ep0.link", sim.NewEngine())
	if n := testing.AllocsPerRun(1000, func() {
		nilSite.Transfer()
		nilSite.FlipBits()
		live.Transfer()
		live.FlipBits()
	}); n != 0 {
		t.Fatalf("hot path allocates %.1f/op, want 0", n)
	}
}

func TestDeterministicSequences(t *testing.T) {
	seq := func() []bool {
		inj := NewInjector(MustParse("pcie.*.drop:p=0.3", 42))
		s := inj.Site("pcie.ep1.link", sim.NewEngine())
		out := make([]bool, 200)
		for i := range out {
			out[i] = s.Transfer().Drop
		}
		return out
	}
	a, b := seq(), seq()
	drops := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sequences diverge at %d", i)
		}
		if a[i] {
			drops++
		}
	}
	if drops < 30 || drops > 90 {
		t.Fatalf("p=0.3 fired %d/200 times", drops)
	}

	// Different seed -> different sequence; different site name -> different
	// stream from the same seed.
	inj2 := NewInjector(MustParse("pcie.*.drop:p=0.3", 43))
	s2 := inj2.Site("pcie.ep1.link", sim.NewEngine())
	same := 0
	for i := range a {
		if s2.Transfer().Drop == a[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seed change did not alter the sequence")
	}
}

func TestSiteResolutionOrderIndependent(t *testing.T) {
	plan := MustParse("pcie.*.drop:p=0.5", 9)
	first := func(order []string) bool {
		inj := NewInjector(plan)
		for _, n := range order {
			inj.Site(n, sim.NewEngine())
		}
		return inj.Site("pcie.ep0.link", sim.NewEngine()).Transfer().Drop
	}
	a := first([]string{"pcie.ep0.link", "pcie.ep1.link"})
	b := first([]string{"pcie.ep1.link", "pcie.ep0.link"})
	if a != b {
		t.Fatal("site RNG depends on resolution order")
	}
}

func TestAfterAndNCaps(t *testing.T) {
	inj := NewInjector(MustParse("x.drop:after=5,n=2", 1))
	s := inj.Site("x", sim.NewEngine())
	drops := 0
	for i := 0; i < 20; i++ {
		f := s.Transfer()
		if f.Drop {
			drops++
			if i < 5 {
				t.Fatalf("fired at event %d, before after=5", i)
			}
		}
	}
	if drops != 2 {
		t.Fatalf("fired %d times, want n=2", drops)
	}
}

func TestStallWindow(t *testing.T) {
	eng := sim.NewEngine()
	inj := NewInjector(MustParse("link.stall:cycles=100,n=1", 1))
	s := inj.Site("link", eng)
	if f := s.Transfer(); f.Extra != 100 {
		t.Fatalf("stall trigger Extra = %d, want 100", f.Extra)
	}
	// Mid-window transfers wait out the remainder.
	eng.Schedule(40, func() {
		if f := s.Transfer(); f.Extra != 60 {
			t.Errorf("mid-window Extra = %d, want 60", f.Extra)
		}
	})
	eng.Schedule(200, func() {
		if f := s.Transfer(); f.Extra != 0 {
			t.Errorf("post-window Extra = %d, want 0", f.Extra)
		}
	})
	eng.Run()
}

func TestHangIsPermanent(t *testing.T) {
	inj := NewInjector(MustParse("ep.hang:after=3", 1))
	s := inj.Site("ep", sim.NewEngine())
	for i := 0; i < 3; i++ {
		if s.Transfer().Drop {
			t.Fatalf("hung at event %d, before after=3", i)
		}
	}
	for i := 0; i < 5; i++ {
		if !s.Transfer().Drop {
			t.Fatal("hung site let a transfer through")
		}
	}
	if !s.hung {
		t.Fatal("site not marked hung after hang")
	}
	if !strings.Contains(inj.String(), "HUNG") {
		t.Fatal("injector summary missing HUNG marker")
	}
}

func TestFlipBitsPrecedence(t *testing.T) {
	inj := NewInjector(MustParse("m.flip:p=1;m.flip2:p=1,after=2", 1))
	s := inj.Site("m", sim.NewEngine())
	if s.FlipBits() != 1 || s.FlipBits() != 1 {
		t.Fatal("single-bit flips missing before flip2 becomes eligible")
	}
	if s.FlipBits() != 2 {
		t.Fatal("double-bit rule should take precedence")
	}
}
