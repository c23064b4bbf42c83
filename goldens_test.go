// Golden regression fixtures: the serial engine's full MetricsJSON for the
// two example configurations, and the rendering of every table, figure and
// ablation of the paper's evaluation, are pinned under testdata/. Any change
// to event ordering, cache policy, interconnect timing or stats accounting
// shows up as a byte diff against a fixture — run with -update after an
// intentional model change to regenerate:
//
//	go test -run TestGolden -update .
package smappic_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"smappic"
	"smappic/internal/core"
	"smappic/internal/experiments"
	"smappic/internal/kernel"
	"smappic/internal/rvasm"
	"smappic/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden fixtures under testdata/")

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

// TestGoldenPaperEval pins the paper's evaluation at full size: each
// artifact's rendering — what smappic-bench prints under its "generated in"
// header, and what EXPERIMENTS.md quotes — is testdata/paper_eval/<name>.txt.
// A model change that moves a paper number fails here, and the -update diff
// shows which numbers moved.
func TestGoldenPaperEval(t *testing.T) {
	for _, a := range experiments.Artifacts {
		t.Run(a.Name, func(t *testing.T) {
			checkGolden(t, filepath.Join("paper_eval", a.Name+".txt"), []byte(a.Run(false)+"\n"))
		})
	}
}
