// The work budget: what three fixed points cost, counted rather than timed.
// Executed events are exact and heap objects repeat to a few hundredths of
// a percent, so both hold a host-cost change where the wall clock cannot.
// After an intentional change re-record testdata/cost-budget.json:
//
//	go test -run TestPointCostBudget -update .
package smappic_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"

	"smappic"
	"smappic/internal/core"
	"smappic/internal/kernel"
	"smappic/internal/rvasm"
	"smappic/internal/workload"
)

// pointCost is one point's budget: heap objects allocated by the whole
// point (build, run, report) and events the engines executed.
type pointCost struct {
	Name    string `json:"name"`
	Objects uint64 `json:"objects"`
	Events  uint64 `json:"events"`
}

// costSlack is how far a point's objects may drift either way from the
// budget before the test fails. A rise beyond it is a regression; a fall
// beyond it is a gain the budget has not written down.
const costSlack = 0.01

func TestPointCostBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	points := []struct {
		name string
		run  func(t *testing.T) *core.Prototype
	}{
		{"is-2x2x2-keys4096", func(t *testing.T) *core.Prototype { return costIS(t, 2, 2, 2, 1<<12) }},
		{"is-4x1x12-keys8192", func(t *testing.T) *core.Prototype { return costIS(t, 4, 1, 12, 1<<13) }},
		{"rvasm-2x1x4", costRV},
	}
	var got []pointCost
	for _, pt := range points {
		p, objects := pointObjects(t, pt.run)
		if t.Failed() {
			return
		}
		got = append(got, pointCost{Name: pt.name, Objects: objects, Events: p.Eng.Executed()})
		t.Logf("%s: %d heap objects, %d events", pt.name, objects, p.Eng.Executed())
	}

	path := filepath.Join("testdata", "cost-budget.json")
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestPointCostBudget -update .` to record it)", err)
	}
	var want []pointCost
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s has %d points, the test runs %d: re-record the budget", path, len(want), len(got))
	}
	for i, g := range got {
		w := want[i]
		if w.Name != g.Name {
			t.Errorf("point %d is %s, the budget has %s: re-record the budget", i, g.Name, w.Name)
			continue
		}
		if g.Events != w.Events {
			t.Errorf("%s: %d events executed, budget %d (events are exact)", g.Name, g.Events, w.Events)
		}
		drift := float64(g.Objects)/float64(w.Objects) - 1
		switch {
		case drift > costSlack:
			t.Errorf("%s: %d heap objects, budget %d (+%.1f%%, more than %.0f%%)", g.Name, g.Objects, w.Objects, 100*drift, 100*costSlack)
		case drift < -costSlack:
			t.Errorf("%s: %d heap objects, budget %d (%.1f%%): re-record the budget (go test -run TestPointCostBudget -update .)",
				g.Name, g.Objects, w.Objects, 100*drift)
		}
	}
}

// pointObjects runs a point twice and returns the second run with the heap
// objects it allocated. The first run pays the process's one-time costs
// (lazy package state, per-P pools), which would otherwise land on
// whichever point a test binary runs first. Both run on one P with the
// collector off: a sync.Pool keeps its records per P and a collection
// empties it, so either would move the count from run to run.
func pointObjects(t *testing.T, run func(*testing.T) *core.Prototype) (*core.Prototype, uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p := run(t)
	runtime.ReadMemStats(&after)
	return p, after.Mallocs - before.Mallocs
}

// costIS runs NPB-IS on a one-engine AxBxC prototype, seed 1, and renders
// its report.
func costIS(t *testing.T, a, b, c, keys int) *core.Prototype {
	cfg := smappic.DefaultConfig(a, b, c)
	cfg.Core = core.CoreNone
	p, err := core.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ip := workload.DefaultISParams(cfg.TotalTiles())
	ip.Keys, ip.Seed = keys, 1
	if r := workload.RunIS(kernel.New(p, kernel.DefaultConfig()), ip); !r.Sorted {
		t.Error("integer sort output not sorted")
	}
	if _, err := p.MetricsJSON(); err != nil {
		t.Fatal(err)
	}
	return p
}

// costRVLines is how many lines each hart reads from each node's array.
const costRVLines = 96

// costRV runs an RV64 program on the 2x1x4 Ariane prototype, the
// smappic-run path: each of the 8 harts sums one dword per line of its
// slice of an array in node 0's DRAM and of one in node 1's, adds its sum
// into a shared word with amoadd.d, and hart 0 prints a banner over the
// UART.
func costRV(t *testing.T) *core.Prototype {
	cfg := smappic.DefaultConfig(2, 1, 4)
	p, err := core.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const slice = costRVLines * 64
	arr := func(node int) uint64 { return p.Map.NodeDRAMBase(node) + 0x10_0000 }
	total := p.Map.NodeDRAMBase(0) + 0x8_0000
	var want uint64
	for node := 0; node < 2; node++ {
		for i := uint64(0); i < 8*costRVLines; i++ {
			v := i*0x9E37_79B9 + uint64(node)
			p.Backing.WriteU64(arr(node)+64*i, v)
			want += v
		}
	}
	prog, err := rvasm.Assemble(smappic.ResetPC, fmt.Sprintf(`
	csrr t0, mhartid
	li   t1, %d
	mul  t1, t0, t1
	li   s0, %#x
	add  s0, s0, t1
	li   s1, %#x
	add  s1, s1, t1
	li   s2, %d
	li   s3, 0
loop:	ld   t2, 0(s0)
	add  s3, s3, t2
	ld   t2, 0(s1)
	add  s3, s3, t2
	addi s0, s0, 64
	addi s1, s1, 64
	addi s2, s2, -1
	bnez s2, loop
	li   t3, %#x
	amoadd.d zero, s3, (t3)
	bnez t0, halt
	la   s0, msg
	li   s1, 0xF000001000
putc:	lbu  t1, 0(s0)
	beqz t1, halt
	sd   t1, 0(s1)
wait:	ld   t2, 40(s1)
	andi t2, t2, 0x20
	beqz t2, wait
	addi s0, s0, 1
	j    putc
halt:	li a0, 0
	ebreak
msg:	.asciz "rv\n"
`, slice, arr(0), arr(1), costRVLines, total))
	if err != nil {
		t.Fatal(err)
	}
	host := p.Host()
	host.LoadProgram(0, prog)
	p.Start()
	p.RunUntilHalted(50_000_000)
	if !p.AllHalted() {
		t.Error("harts still running at the cycle limit")
	}
	if got := p.ReadPhys(total, 8); got != want {
		t.Errorf("harts summed %#x, want %#x", got, want)
	}
	if got := host.Console(0); got != "rv\n" {
		t.Errorf("console %q, want %q", got, "rv\n")
	}
	if _, err := p.MetricsJSON(); err != nil {
		t.Fatal(err)
	}
	return p
}
