// Package fault is a seeded, deterministic fault-injection framework for the
// simulated platform. Subsystems register named fault sites ("pcie.ep2.link",
// "node1.bridge", "node0.dram") and a Plan — parsed from a CLI spec like
// "pcie.*.drop:p=0.01,seed=7" — schedules drops, corruptions, extra delays,
// stall windows, endpoint hangs and memory bit flips against them.
//
// The framework is nil-safe and costs nothing when disabled: a subsystem
// resolves its *Site once at construction time and the pointer is nil when no
// plan rule matches, so the hot path pays a single predictable branch and
// performs no allocation. All randomness comes from a per-site xorshift
// generator seeded from (plan seed, site name), so two runs with the same
// seed and plan inject byte-identical fault sequences, and the order in
// which sites are resolved does not matter.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"smappic/internal/ckpt"
	"smappic/internal/sim"
)

// Kind enumerates the fault types a rule can inject.
type Kind int

const (
	// Drop makes a transfer vanish in flight (no delivery, no response).
	Drop Kind = iota
	// Corrupt delivers the transfer with a payload the receiver's checksum
	// rejects; recovery is the sender's problem (retransmission).
	Corrupt
	// Delay adds Cycles of extra latency to a transfer.
	Delay
	// Stall makes the site unavailable for Cycles after triggering; transfers
	// arriving inside the window wait it out.
	Stall
	// Hang stops the site permanently: every later transfer is dropped. Used
	// to model a wedged endpoint for forward-progress testing.
	Hang
	// Flip injects a single-bit memory error (SECDED-correctable).
	Flip
	// Flip2 injects a double-bit memory error (SECDED detects, cannot
	// correct).
	Flip2
)

var kindNames = map[string]Kind{
	"drop":    Drop,
	"corrupt": Corrupt,
	"delay":   Delay,
	"stall":   Stall,
	"hang":    Hang,
	"flip":    Flip,
	"flip2":   Flip2,
}

// String returns the spec-grammar name of the kind.
func (k Kind) String() string {
	for name, v := range kindNames {
		if v == k {
			return name
		}
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Rule is one parsed injection directive: a site pattern, a fault kind and
// its trigger parameters.
type Rule struct {
	// Pattern selects fault sites by dot-separated segments. A "*" segment
	// matches exactly one name segment, except as the final segment, where it
	// matches the whole remainder ("pcie.*" covers "pcie.ep2.link").
	Pattern string
	Kind    Kind
	// P is the per-event trigger probability in [0, 1]. Defaults to 1.
	P float64
	// N caps how many times the rule fires (0 = unlimited).
	N uint64
	// After skips the first After events at the site before the rule is
	// eligible (deterministic event counting, not time).
	After uint64
	// Cycles parameterizes Delay (extra latency) and Stall (window length).
	Cycles sim.Time
	// Seed, when nonzero, is mixed into the RNG seed of every site the rule
	// matches (on top of the plan seed).
	Seed uint64
}

// Plan is a parsed set of rules plus the base seed. A Plan is immutable and
// stateless: all mutable trigger state lives in the Sites an Injector builds
// from it, so one Plan can parameterize any number of runs.
type Plan struct {
	Rules []Rule
	Seed  uint64
}

// String renders the plan in canonical spec form (every parameter explicit,
// fixed order), so equal plans — however their specs were written — render
// identically. Used for configuration fingerprinting; a nil plan renders
// empty.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d", p.Seed)
	for _, r := range p.Rules {
		fmt.Fprintf(&b, ";%s.%s:p=%g,n=%d,after=%d,cycles=%d,seed=%d",
			r.Pattern, r.Kind, r.P, r.N, r.After, uint64(r.Cycles), r.Seed)
	}
	return b.String()
}

// Parse builds a Plan from a spec string. The grammar is
//
//	spec  := rule (";" rule)*
//	rule  := pattern "." kind [":" param ("," param)*]
//	param := key "=" value
//	kind  := drop | corrupt | delay | stall | hang | flip | flip2
//	key   := p | n | after | cycles | seed
//
// e.g. "pcie.*.drop:p=0.01;node0.dram.flip:p=0.001,seed=7". An empty spec
// returns a nil Plan (injection disabled). seed parameters apply per rule;
// defaultSeed seeds everything else.
func Parse(spec string, defaultSeed uint64) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	plan := &Plan{Seed: defaultSeed}
	for _, rs := range strings.Split(spec, ";") {
		rs = strings.TrimSpace(rs)
		if rs == "" {
			continue
		}
		rule, err := parseRule(rs)
		if err != nil {
			return nil, err
		}
		plan.Rules = append(plan.Rules, rule)
	}
	if len(plan.Rules) == 0 {
		return nil, nil
	}
	return plan, nil
}

// MustParse is Parse for tests and literals; it panics on error.
func MustParse(spec string, defaultSeed uint64) *Plan {
	p, err := Parse(spec, defaultSeed)
	if err != nil {
		panic(err)
	}
	return p
}

func parseRule(rs string) (Rule, error) {
	head, params, hasParams := strings.Cut(rs, ":")
	dot := strings.LastIndex(head, ".")
	if dot < 0 {
		return Rule{}, fmt.Errorf("fault: rule %q has no kind suffix (want pattern.kind)", rs)
	}
	pattern, kindName := head[:dot], head[dot+1:]
	kind, ok := kindNames[kindName]
	if !ok {
		return Rule{}, fmt.Errorf("fault: unknown fault kind %q in %q", kindName, rs)
	}
	if pattern == "" {
		return Rule{}, fmt.Errorf("fault: empty site pattern in %q", rs)
	}
	r := Rule{Pattern: pattern, Kind: kind, P: 1}
	if hasParams {
		for _, kv := range strings.Split(params, ",") {
			key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				return Rule{}, fmt.Errorf("fault: bad parameter %q in %q (want key=value)", kv, rs)
			}
			var err error
			switch key {
			case "p":
				r.P, err = strconv.ParseFloat(val, 64)
				if err == nil && (r.P < 0 || r.P > 1) {
					err = fmt.Errorf("p=%v out of [0,1]", r.P)
				}
			case "n":
				r.N, err = strconv.ParseUint(val, 10, 64)
			case "after":
				r.After, err = strconv.ParseUint(val, 10, 64)
			case "cycles":
				var c uint64
				c, err = strconv.ParseUint(val, 10, 64)
				r.Cycles = sim.Time(c)
			case "seed":
				r.Seed, err = strconv.ParseUint(val, 10, 64)
			default:
				err = fmt.Errorf("unknown parameter %q", key)
			}
			if err != nil {
				return Rule{}, fmt.Errorf("fault: rule %q: %v", rs, err)
			}
		}
	}
	if (r.Kind == Delay || r.Kind == Stall) && r.Cycles == 0 {
		return Rule{}, fmt.Errorf("fault: rule %q: %s requires cycles=N", rs, r.Kind)
	}
	return r, nil
}

// matches reports whether the rule's pattern selects the site name.
func (r Rule) matches(name string) bool {
	ps := strings.Split(r.Pattern, ".")
	ns := strings.Split(name, ".")
	for i, p := range ps {
		if p == "*" && i == len(ps)-1 {
			return len(ns) > i // trailing * swallows the remainder
		}
		if i >= len(ns) || (p != "*" && p != ns[i]) {
			return false
		}
	}
	return len(ns) == len(ps)
}

// Injector resolves fault sites against a plan. A nil Injector is valid and
// hands out nil Sites, so callers wire it unconditionally.
type Injector struct {
	plan  *Plan
	sites map[string]*Site
}

// NewInjector builds an injector for a plan. A nil or empty plan returns a
// nil injector: injection fully disabled, zero cost.
func NewInjector(plan *Plan) *Injector {
	if plan == nil || len(plan.Rules) == 0 {
		return nil
	}
	return &Injector{plan: plan, sites: make(map[string]*Site)}
}

// Site resolves the fault site with the given name for the component that
// owns it; eng is that component's engine, the clock its stall windows are
// measured on. It returns nil — the zero-cost disabled form — when the
// injector is nil or no plan rule matches the name. Sites are resolved while
// the platform is built, never from a running engine (the registry is not
// synchronised); resolving a name again returns the Site it already has.
func (inj *Injector) Site(name string, eng *sim.Engine) *Site {
	if inj == nil {
		return nil
	}
	if s, ok := inj.sites[name]; ok {
		return s
	}
	var s *Site
	seed := inj.plan.Seed
	for _, r := range inj.plan.Rules {
		if !r.matches(name) {
			continue
		}
		if s == nil {
			s = &Site{eng: eng}
		}
		s.rules = append(s.rules, siteRule{Rule: r})
		seed ^= r.Seed
	}
	if s != nil {
		s.rng = *sim.NewRNG(mix(seed, name))
	}
	inj.sites[name] = s
	return s
}

// Sites returns the names of all resolved sites that have at least one rule,
// in sorted order (for diagnostics).
func (inj *Injector) Sites() []string {
	if inj == nil {
		return nil
	}
	var names []string
	for name, s := range inj.sites {
		if s != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// CaptureState records every resolved site's deterministic progress: its
// RNG stream position, hang/stall condition and per-rule trigger counters,
// sorted by site name. Restoring it into a fresh injector built from the
// same plan resumes the exact fault sequence mid-stream.
func (inj *Injector) CaptureState() *ckpt.FaultState {
	if inj == nil {
		return nil
	}
	st := &ckpt.FaultState{}
	for _, name := range inj.Sites() {
		s := inj.sites[name]
		ss := ckpt.FaultSiteState{
			Name:       name,
			RNG:        s.rng.State(),
			Hung:       s.hung,
			StallUntil: uint64(s.stallUntil),
		}
		for i := range s.rules {
			ss.Rules = append(ss.Rules, ckpt.FaultRuleState{Seen: s.rules[i].seen, Fired: s.rules[i].fired})
		}
		st.Sites = append(st.Sites, ss)
	}
	return st
}

// RestoreState overlays captured site progress. Every snapshot site must be
// one this build resolved, with the same rule count — anything else means
// the snapshot was taken under a different fault plan or shape.
func (inj *Injector) RestoreState(st *ckpt.FaultState) error {
	if st == nil {
		return nil
	}
	if inj == nil {
		if len(st.Sites) == 0 {
			return nil
		}
		return &ckpt.MismatchError{Field: "fault plan", Got: fmt.Sprintf("%d sites", len(st.Sites)), Want: "no injector"}
	}
	for _, ss := range st.Sites {
		s := inj.sites[ss.Name]
		if s == nil {
			return &ckpt.MismatchError{Field: "fault site " + ss.Name, Got: "present", Want: "no matching rule"}
		}
		if len(ss.Rules) != len(s.rules) {
			return &ckpt.MismatchError{Field: "fault site " + ss.Name + " rule count",
				Got: fmt.Sprint(len(ss.Rules)), Want: fmt.Sprint(len(s.rules))}
		}
		s.rng.SetState(ss.RNG)
		s.hung = ss.Hung
		s.stallUntil = sim.Time(ss.StallUntil)
		for i := range s.rules {
			s.rules[i].seen = ss.Rules[i].Seen
			s.rules[i].fired = ss.Rules[i].Fired
		}
	}
	return nil
}

// String summarizes the active sites and their fired-fault counts.
func (inj *Injector) String() string {
	if inj == nil {
		return "fault injection disabled"
	}
	var b strings.Builder
	for _, name := range inj.Sites() {
		s := inj.sites[name]
		fmt.Fprintf(&b, "%s:", name)
		for _, r := range s.rules {
			fmt.Fprintf(&b, " %s(fired %d)", r.Kind, r.fired)
		}
		if s.hung {
			b.WriteString(" HUNG")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// mix folds a name into a seed (FNV-1a over the name, xored into the seed and
// scrambled) so sites draw independent streams.
func mix(seed uint64, name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	z := seed ^ h
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ z>>31
}

// siteRule is a rule plus its per-site trigger state.
type siteRule struct {
	Rule
	seen  uint64 // events observed at the site
	fired uint64 // times this rule has triggered
}

// Site is one named injection point. The nil Site is the disabled form: every
// method no-ops and allocates nothing.
type Site struct {
	eng   *sim.Engine
	rng   sim.RNG
	rules []siteRule

	hung       bool
	stallUntil sim.Time
}

// Fate is the outcome of consulting a site for one transfer.
type Fate struct {
	// Drop: the transfer vanishes (the site may be hung).
	Drop bool
	// Corrupt: deliver, but with a checksum-detectable corruption.
	Corrupt bool
	// Extra latency to add to the transfer.
	Extra sim.Time
}

// Transfer consults the site's drop/corrupt/delay/stall/hang rules for one
// transfer event and returns its fate. The zero Fate (nil site, or no rule
// triggered) means the transfer proceeds unharmed.
func (s *Site) Transfer() (f Fate) {
	if s == nil {
		return
	}
	if s.hung {
		f.Drop = true
		return
	}
	if s.stallUntil > s.eng.Now() {
		f.Extra = s.stallUntil - s.eng.Now()
	}
	for i := range s.rules {
		r := &s.rules[i]
		switch r.Kind {
		case Flip, Flip2:
			continue // memory rules; see FlipBits
		}
		if !s.trigger(r) {
			continue
		}
		switch r.Kind {
		case Drop:
			f.Drop = true
		case Corrupt:
			f.Corrupt = true
		case Delay:
			f.Extra += r.Cycles
		case Stall:
			s.stallUntil = s.eng.Now() + r.Cycles
			f.Extra += r.Cycles
		case Hang:
			s.hung = true
			f.Drop = true
		}
	}
	return
}

// FlipBits consults the site's memory rules for one access and returns the
// number of bit errors to model: 0 (clean), 1 (SECDED corrects) or 2 (SECDED
// detects, uncorrectable). Double-bit rules take precedence.
func (s *Site) FlipBits() int {
	if s == nil {
		return 0
	}
	bits := 0
	for i := range s.rules {
		r := &s.rules[i]
		switch r.Kind {
		case Flip:
			if bits < 1 && s.trigger(r) {
				bits = 1
			}
		case Flip2:
			if s.trigger(r) {
				bits = 2
			}
		}
	}
	return bits
}

// trigger advances the rule's event counters and RNG and reports whether it
// fires for this event.
func (s *Site) trigger(r *siteRule) bool {
	r.seen++
	if r.seen <= r.After {
		return false
	}
	if r.N > 0 && r.fired >= r.N {
		return false
	}
	if r.P < 1 && s.rng.Float64() >= r.P {
		return false
	}
	r.fired++
	return true
}
