// Golden regression fixtures: the serial engine's full MetricsJSON for the
// two example configurations is pinned under testdata/, and the rendering of
// every table, figure and ablation of the paper's evaluation is pinned in
// EXPERIMENTS.md's paper_eval blocks. Any change to event ordering, cache
// policy, interconnect timing or stats accounting shows up as a byte diff
// against a fixture — run with -update after an intentional model change to
// regenerate:
//
//	go test -run TestGolden -update .
package smappic_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"smappic"
	"smappic/internal/core"
	"smappic/internal/experiments"
	"smappic/internal/kernel"
	"smappic/internal/rvasm"
	"smappic/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden fixtures under testdata/ and the paper_eval blocks of EXPERIMENTS.md")

// checkGolden compares got against testdata/<name>, or rewrites the fixture
// with -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestGolden -update .` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("metrics drifted from %s (%d vs %d bytes):\n%s\nrun `go test -run TestGolden -update .` if the change is intentional",
			path, len(got), len(want), firstDiff(want, got))
	}
}

// TestGoldenQuickstart pins the examples/quickstart run: the factorial
// program on a 1x1x2 prototype, full serial MetricsJSON plus the console
// transcript.
func TestGoldenQuickstart(t *testing.T) {
	cfg := smappic.DefaultConfig(1, 1, 2)
	p, err := core.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog := rvasm.MustAssemble(smappic.ResetPC, quickstartProgram)
	host := p.Host()
	host.LoadProgram(0, prog)
	p.Start()
	p.Run()

	if got, want := host.Console(0), "10! = 3628800\n"; got != want {
		t.Fatalf("console = %q, want %q", got, want)
	}
	m, err := p.MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "quickstart_metrics.json", m)
}

// TestGoldenNUMA48 pins the examples/numa48 flagship configuration: the
// 48-core 4-node system (4x1x12) running the NPB integer sort on the
// mini-kernel with NUMA-aware placement. The key count is scaled down from
// the example to keep the fixture cheap to regenerate.
func TestGoldenNUMA48(t *testing.T) {
	cfg := smappic.DefaultConfig(4, 1, 12)
	cfg.Core = core.CoreNone
	p, err := core.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(p, kernel.DefaultConfig())
	ip := workload.DefaultISParams(24)
	ip.Keys = 1 << 13
	r := workload.RunIS(k, ip)
	if !r.Sorted {
		t.Fatal("integer sort output not sorted")
	}
	m, err := p.MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "numa48_metrics.json", m)
}

// quickstartProgram is the examples/quickstart payload: hart 0 computes 10!
// and prints it in decimal over the UART; hart 1 parks.
const quickstartProgram = `
	csrr t0, mhartid
	bnez t0, halt

	# factorial(10)
	li   a0, 1
	li   t1, 10
fact:	mul  a0, a0, t1
	addi t1, t1, -1
	bnez t1, fact

	# print "10! = " then the number
	la   s0, label
	call puts
	mv   t3, a0
	la   s2, digend
	sb   zero, 0(s2)
conv:	addi s2, s2, -1
	li   t4, 10
	remu t5, t3, t4
	addi t5, t5, 48      # '0'
	sb   t5, 0(s2)
	divu t3, t3, t4
	bnez t3, conv
	mv   s0, s2
	call puts
	la   s0, nl
	call puts
halt:	li a0, 0
	ebreak

# puts: print NUL-terminated string at s0
puts:	li   s1, 0xF000001000
ploop:	lbu  t1, 0(s0)
	beqz t1, pdone
	sd   t1, 0(s1)
pwait:	ld   t2, 40(s1)
	andi t2, t2, 0x20
	beqz t2, pwait
	addi s0, s0, 1
	j    ploop
pdone:	ret

label:	.asciz "10! = "
nl:	.asciz "\n"
digits:	.space 20
digend:	.space 4
`

// paperEvalBlock is one artifact's golden in EXPERIMENTS.md: a fenced text
// block between a paper_eval NAME marker and its closing marker, each on a
// line of its own. Group 1 is the name, group 2 the contents.
var paperEvalBlock = regexp.MustCompile("(?ms)^<!-- paper_eval (\\S+) -->\n```text\n(.*?)^```\n<!-- /paper_eval -->$")

// TestGoldenPaperEval pins the paper's evaluation at full size: each
// artifact's rendering — what smappic-bench prints under its "generated in"
// header — is the contents of its paper_eval block in EXPERIMENTS.md, one
// block per artifact. A model change that moves a paper number fails the
// artifact's subtest; -update rewrites only the block contents, so the diff
// of EXPERIMENTS.md shows which numbers moved.
func TestGoldenPaperEval(t *testing.T) {
	const path = "EXPERIMENTS.md"
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	matches := paperEvalBlock.FindAllSubmatchIndex(doc, -1)
	if n := bytes.Count(doc, []byte("\n<!-- paper_eval ")); n != len(matches) {
		t.Fatalf("%s: %d paper_eval markers but %d well-formed blocks", path, n, len(matches))
	}
	blocks := map[string][]int{} // name -> submatch indices
	for _, m := range matches {
		name := string(doc[m[2]:m[3]])
		if blocks[name] != nil {
			t.Errorf("%s: two paper_eval blocks for %s", path, name)
		}
		blocks[name] = m
	}
	known := map[string]bool{}
	for _, a := range experiments.Artifacts {
		known[a.Name] = true
		if blocks[a.Name] == nil {
			t.Errorf("%s: no paper_eval block for %s", path, a.Name)
		}
	}
	for name := range blocks {
		if !known[name] {
			t.Errorf("%s: paper_eval block %s names no artifact", path, name)
		}
	}
	if t.Failed() {
		return
	}

	got := map[string][]byte{}
	for _, a := range experiments.Artifacts {
		t.Run(a.Name, func(t *testing.T) {
			got[a.Name] = []byte(a.Run(false) + "\n")
			m := blocks[a.Name]
			if want := doc[m[4]:m[5]]; !*update && !bytes.Equal(got[a.Name], want) {
				t.Errorf("%s drifted from its block in %s:\n%s\nrun `go test -run TestGoldenPaperEval -update .` if the change is intentional",
					a.Name, path, firstDiff(want, got[a.Name]))
			}
		})
	}
	if !*update {
		return
	}
	var out []byte
	last := 0
	for _, m := range matches {
		body, ran := got[string(doc[m[2]:m[3]])]
		if !ran { // a -run filter skipped it: keep what is there
			body = doc[m[4]:m[5]]
		}
		out = append(append(out, doc[last:m[4]]...), body...)
		last = m[5]
	}
	if err := os.WriteFile(path, append(out, doc[last:]...), 0o644); err != nil {
		t.Fatal(err)
	}
}
