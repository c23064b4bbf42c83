// Differential harness for the sharded engine: every configuration below is
// simulated on one shard (the serial reference) and sharded across
// goroutines under the same lookahead synchronizer, and the runs must agree
// byte-for-byte on the MetricsJSON document, on the final simulated time,
// and on the workload's output checksum. Any scheduling divergence between
// shardings shows up as a counter or cycle-count drift, so this is the
// equivalence proof the parallel engine rests on.
package smappic_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"smappic"
	"smappic/internal/accel"
	"smappic/internal/ckpt"
	"smappic/internal/core"
	"smappic/internal/kernel"
	"smappic/internal/rvasm"
	"smappic/internal/workload"
)

// diffOutcome is everything a run must reproduce exactly.
type diffOutcome struct {
	metrics  []byte // MetricsJSON without its "samples" section
	samples  []byte // that section (nil for an unsampled run)
	trace    []byte // the exported Chrome trace (nil for an untraced run)
	cycles   smappic.Time
	checksum uint64
	faults   string // Injector.String(): every matched site and what it fired, touched or not
	sync     []byte // the synchronizer's books: the partition's, so compared only between runs of one partition
}

// same requires got to be the outcome want, the partition's books aside.
func (want diffOutcome) same(t *testing.T, label string, got diffOutcome) {
	t.Helper()
	if want.cycles != got.cycles {
		t.Errorf("%s: final time: serial %d, got %d", label, want.cycles, got.cycles)
	}
	if want.checksum != got.checksum {
		t.Errorf("%s: checksum: serial %#x, got %#x", label, want.checksum, got.checksum)
	}
	if !bytes.Equal(want.metrics, got.metrics) {
		t.Errorf("%s: MetricsJSON diverges (%d vs %d bytes):\n%s",
			label, len(want.metrics), len(got.metrics), firstDiff(want.metrics, got.metrics))
	}
	if want.faults != got.faults {
		t.Errorf("%s: fault report diverges:\nserial:\n%sgot:\n%s", label, want.faults, got.faults)
	}
	if !bytes.Equal(want.samples, got.samples) {
		t.Errorf("%s: sampler rows diverge from the one-shard run's:\n%s", label, firstDiff(want.samples, got.samples))
	}
	if !bytes.Equal(want.trace, got.trace) {
		t.Errorf("%s: Chrome trace diverges from the one-shard run's:\n%s", label, firstDiff(want.trace, got.trace))
	}
}

// diffCase is one row of the differential table.
type diffCase struct {
	name        string
	a, b, c     int    // shape
	workload    string // is | irregular | noise | riscv
	numa        bool
	faults      string
	seed        uint64
	sampler     smappic.Time // EnableSampler interval (0 = unsampled)
	trace       int          // EnableTrace capacity, small enough that every node's ring wraps (0 = untraced)
	widthCap    int          // widening-cap override for the sharded run (0 = the configuration's, 1 = fixed windows)
	granularity string       // ShardGranularity for the sharded run ("" = per-FPGA)
}

// buildProto builds one prototype for a case in the requested mode.
func buildProto(t *testing.T, dc diffCase, parallel int) *core.Prototype {
	t.Helper()
	cfg := smappic.DefaultConfig(dc.a, dc.b, dc.c)
	cfg.Parallel = parallel
	cfg.ShardGranularity = dc.granularity
	cfg.Seed = dc.seed
	if dc.workload != "riscv" {
		cfg.Core = core.CoreNone
	}
	if dc.faults != "" {
		var err error
		cfg.Faults, err = smappic.ParseFaults(dc.faults, dc.seed)
		if err != nil {
			t.Fatal(err)
		}
	}
	p, err := core.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dc.widthCap != 0 {
		// Fixed windows are a test-only discipline: no configuration
		// selects them.
		p.Group.SetAdaptive(dc.widthCap)
	}
	if dc.sampler != 0 {
		p.EnableSampler(dc.sampler)
	}
	if dc.trace != 0 {
		p.EnableTrace(dc.trace)
	}
	return p
}

// runCase executes one configuration in one mode and captures the outcome.
func runCase(t *testing.T, dc diffCase, parallel int) diffOutcome {
	t.Helper()
	p := buildProto(t, dc, parallel)
	var out diffOutcome

	switch dc.workload {
	case "is":
		kc := kernel.DefaultConfig()
		kc.NUMA = dc.numa
		kc.Seed = dc.seed
		k := kernel.New(p, kc)
		ip := workload.DefaultISParams(p.Cfg.TotalTiles())
		ip.Keys = 1 << 12
		r := workload.RunIS(k, ip)
		if !r.Sorted {
			t.Fatalf("%s: output not sorted", dc.name)
		}
		out.checksum = r.Checksum
	case "irregular":
		kc := kernel.DefaultConfig()
		kc.NUMA = dc.numa
		kc.Seed = dc.seed
		k := kernel.New(p, kc)
		ip := workload.DefaultIrregularParams()
		ip.Rows = 256
		r := workload.RunIrregular(k, workload.SPMV, workload.WithMAPLE, ip)
		out.checksum = r.Checksum
	case "noise":
		p.Nodes[0].Tiles[1].Accel = accel.NewGNG(1, p.StatsForNode(0), "gng")
		kc := kernel.DefaultConfig()
		kc.NUMA = dc.numa
		kc.Seed = dc.seed
		k := kernel.New(p, kc)
		np := workload.DefaultNoiseParams()
		r := workload.RunNoiseGenerator(k, workload.NoiseHW2, np)
		out.checksum = uint64(r.Cycles)
	case "riscv":
		host := p.Host()
		prog := rvasm.MustAssemble(smappic.ResetPC, diffProgram)
		for n := 0; n < p.Cfg.TotalNodes(); n++ {
			host.LoadProgram(n, prog)
		}
		p.Start()
		p.RunUntilHalted(20_000_000)
		if !p.AllHalted() {
			t.Fatalf("%s: harts did not halt", dc.name)
		}
		sum := uint64(0)
		for n := 0; n < p.Cfg.TotalNodes(); n++ {
			for _, ch := range host.Console(n) {
				sum = sum*31 + uint64(ch)
			}
		}
		out.checksum = sum
	default:
		t.Fatalf("unknown workload %q", dc.workload)
	}

	if p.StallDiagnosis != "" {
		t.Fatalf("%s: a healthy run drained wedged:\n%s", dc.name, p.StallDiagnosis)
	}
	m, err := p.MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	out.metrics, out.samples = splitSamples(m)
	out.cycles = p.Now()
	out.faults = p.Injector.String()
	if out.sync, err = json.Marshal(p.Group.SyncSnapshot()); err != nil {
		t.Fatal(err)
	}
	if dc.trace != 0 {
		for _, n := range p.Nodes {
			if got, ring := n.Tracer.Len(), dc.trace/len(p.Nodes); got != ring {
				t.Fatalf("%s: %s retained %d events; the row needs its ring of %d full", dc.name, n.Name(), got, ring)
			}
		}
		var buf bytes.Buffer
		if err := p.WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
		out.trace = buf.Bytes()
	}
	return out
}

// splitSamples cuts the "samples" member — the document's last — out of a
// MetricsJSON document and closes the object, which leaves exactly what an
// unsampled run renders; samples is nil when there was none.
func splitSamples(m []byte) (metrics, samples []byte) {
	if i := bytes.Index(m, []byte(",\n  \"samples\": ")); i >= 0 {
		return append(m[:i:i], "\n}\n"...), m[i:]
	}
	return m, nil
}

// diffProgram is the cross-node RISC-V payload: every hart halts, hart 0 of
// every node prints a banner (UART traffic exercises MMIO and interrupts).
const diffProgram = `
	csrr t0, mhartid
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
msg:	.asciz "diff\n"
`

// pcieFaults is the drop/delay mix used by the fault-plan rows: drops force
// the reliable-delivery retransmission path, delays shift arrival times.
const pcieFaults = "pcie.*.drop:p=0.02;pcie.*.delay:p=0.01,cycles=300"

func diffCases() []diffCase {
	var cases []diffCase
	// IS across the shape ladder (1, 2, 4, 8 nodes), both NUMA modes,
	// with and without PCIe fault plans, two seeds each for the big shape.
	for _, sh := range []struct{ a, b, c int }{
		{1, 1, 2}, {2, 1, 2}, {4, 1, 2}, {2, 2, 2}, {4, 2, 2},
	} {
		for _, numa := range []bool{true, false} {
			cases = append(cases, diffCase{
				name: fmt.Sprintf("is-%dx%dx%d-numa=%v", sh.a, sh.b, sh.c, numa),
				a:    sh.a, b: sh.b, c: sh.c,
				workload: "is", numa: numa, seed: 42,
			})
		}
		if sh.a > 1 {
			cases = append(cases, diffCase{
				name: fmt.Sprintf("is-%dx%dx%d-faults", sh.a, sh.b, sh.c),
				a:    sh.a, b: sh.b, c: sh.c,
				workload: "is", numa: true, faults: pcieFaults, seed: 7,
			})
		}
	}
	cases = append(cases,
		diffCase{name: "is-4x2x2-seed9", a: 4, b: 2, c: 2, workload: "is", numa: false, seed: 9},
		diffCase{name: "is-4x2x2-faults-numa-off", a: 4, b: 2, c: 2, workload: "is", numa: false, faults: pcieFaults, seed: 11},
		// Irregular kernels with the MAPLE engine (single-node compute,
		// multi-FPGA build still exercises idle-shard synchronization).
		diffCase{name: "irregular-1x1x6", a: 1, b: 1, c: 6, workload: "irregular", numa: true, seed: 42},
		diffCase{name: "irregular-2x1x6", a: 2, b: 1, c: 6, workload: "irregular", numa: true, seed: 42},
		diffCase{name: "irregular-2x1x6-faults", a: 2, b: 1, c: 6, workload: "irregular", numa: true, faults: pcieFaults, seed: 13},
		// GNG noise generation through accelerator MMIO.
		diffCase{name: "noise-1x1x2", a: 1, b: 1, c: 2, workload: "noise", numa: true, seed: 42},
		diffCase{name: "noise-2x1x2", a: 2, b: 1, c: 2, workload: "noise", numa: true, seed: 42},
		// Full RISC-V cores over the bridge/PCIe fabric.
		diffCase{name: "riscv-4x1x2", a: 4, b: 1, c: 2, workload: "riscv", seed: 42},
		diffCase{name: "riscv-4x1x2-faults", a: 4, b: 1, c: 2, workload: "riscv", faults: pcieFaults, seed: 5},
		// Sampled rows: the reference stays the *unsampled* one-shard run, and
		// every sharding must take the sampled one-shard run's rows, byte
		// for byte.
		diffCase{name: "is-4x2x2-sampler", a: 4, b: 2, c: 2, workload: "is", numa: true, seed: 42, sampler: 1000},
		diffCase{name: "riscv-2x2x2-sampler", a: 2, b: 2, c: 2, workload: "riscv", seed: 42, sampler: 1000},
		// Traced rows: likewise against the *untraced* one-shard run, and
		// every sharding must export the traced one-shard run's Chrome
		// trace, byte for byte, from rings that wrapped.
		diffCase{name: "is-4x2x2-trace", a: 4, b: 2, c: 2, workload: "is", numa: true, seed: 42, trace: 4000},
		diffCase{name: "riscv-2x2x2-trace", a: 2, b: 2, c: 2, workload: "riscv", seed: 42, trace: 32},
	)
	return cases
}

// TestShardedMatchesSerial is the differential table: sharded == serial,
// byte for byte, across node counts, workloads, fault plans and seeds —
// and for every row, both with fixed windows and under the configuration's
// adaptive widening cap, at per-FPGA shard granularity and (for multi-node
// FPGAs) at per-node granularity under the hierarchical synchronizer.
// Adaptive widening, shard granularity, the sampler and the tracer are
// execution scheduling and observation only, so every variant
// must reproduce the one unobserved one-shard outcome — which also pins
// per-node byte-identical to per-FPGA, transitively.
func TestShardedMatchesSerial(t *testing.T) {
	for _, dc := range diffCases() {
		dc := dc
		t.Run(dc.name, func(t *testing.T) {
			t.Parallel()
			ref := dc
			ref.sampler, ref.trace = 0, 0
			// The unobserved one-shard outcome, then with the observed one-shard
			// run's sampler rows and Chrome trace.
			want := runCase(t, ref, 0)
			if dc.sampler != 0 || dc.trace != 0 {
				observed := runCase(t, dc, 0)
				if (len(observed.samples) == 0) != (dc.sampler == 0) {
					t.Fatalf("observed-serial: %d bytes of sampler rows at interval %d", len(observed.samples), dc.sampler)
				}
				want.samples, want.trace = observed.samples, observed.trace
				want.same(t, "observed-serial", observed)
			}
			grans := []string{"fpga"}
			if dc.b > 1 {
				grans = append(grans, "node")
			}
			for _, mode := range []struct {
				name     string
				widthCap int
			}{{"fixed", 1}, {"adaptive", 0}} {
				for _, gran := range grans {
					dc := dc
					dc.widthCap = mode.widthCap
					dc.granularity = gran
					want.same(t, mode.name+"/"+gran, runCase(t, dc, dc.a))
				}
			}
		})
	}
}

// TestWorkerCountMovesNothing is the worker axis: the engines are the
// partition and the host's processors only decide who runs them, so the
// per-FPGA and per-node runs of three rows — under 1, 2, 3, 5 and 8
// processors, from everything inline on the caller to a worker per engine,
// whole clusters per worker and clusters split among workers in between —
// must each reproduce the one-shard outcome and, worker count to worker
// count, the same synchronizer books to the byte: windows, chunks, inner
// levels, per-shard envelopes and events, the critical path. More
// processors than the host has cores is slow, not wrong.
func TestWorkerCountMovesNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, dc := range []diffCase{
		{name: "is-4x2x2", a: 4, b: 2, c: 2, workload: "is", numa: true, seed: 42},
		{name: "is-2x2x2-faults", a: 2, b: 2, c: 2, workload: "is", numa: true, faults: pcieFaults, seed: 7},
		{name: "riscv-2x2x2", a: 2, b: 2, c: 2, workload: "riscv", seed: 42},
	} {
		want := runCase(t, dc, 0)
		for _, dc.granularity = range []string{"fpga", "node"} {
			var books []byte
			for _, procs := range []int{1, 2, 3, 5, 8} {
				runtime.GOMAXPROCS(procs)
				label := fmt.Sprintf("%s/%s/%d procs", dc.name, dc.granularity, procs)
				got := runCase(t, dc, dc.a)
				want.same(t, label, got)
				if books == nil {
					books = got.sync
				} else if !bytes.Equal(books, got.sync) {
					t.Errorf("%s: the synchronizer's books moved with the worker count:\n%s", label, firstDiff(books, got.sync))
				}
			}
		}
	}
}

// TestStoppedRunLeaksNoWorkers: a sharded run stopped mid-flight by its
// predicate leaves the synchronizer's workers (and its harts) waiting for a
// window that never comes; Prototype.Close releases them all.
func TestStoppedRunLeaksNoWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	base := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		p := buildProto(t, diffCase{a: 2, b: 2, c: 2, workload: "riscv", seed: 42, granularity: "node"}, 2)
		prog := rvasm.MustAssemble(smappic.ResetPC, diffProgram)
		for n := 0; n < p.Cfg.TotalNodes(); n++ {
			p.Host().LoadProgram(n, prog)
		}
		p.Start()
		p.RunUntil(func() bool { return p.Group.Windows() >= 5 })
		if p.AllHalted() {
			t.Fatal("the run halted within five windows; nothing was stopped mid-flight")
		}
		p.Close()
	}
	// A closed process has handed control back but may not have finished
	// exiting; give the scheduler a moment before counting.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines before, %d after: stopped runs leaked goroutines", base, n)
	}
}

// TestLatencyMatrixSameUnderEverySharding: the Fig. 7 probe starts its two
// processes on the engines of the tiles they use and drains through the
// group, so the heatmap and the MetricsJSON after its 256 probes are the
// same on one shard, per FPGA and per node.
func TestLatencyMatrixSameUnderEverySharding(t *testing.T) {
	run := func(parallel int, granularity string) (string, []byte) {
		dc := diffCase{a: 2, b: 2, c: 4, workload: "probe", seed: 1, granularity: granularity}
		p := buildProto(t, dc, parallel)
		heatmap := core.FormatHeatmap(p.LatencyMatrix())
		m, err := p.MetricsJSON()
		if err != nil {
			t.Fatal(err)
		}
		return heatmap, m
	}
	heatmap, metrics := run(0, "")
	for _, gran := range []string{"fpga", "node"} {
		h, m := run(2, gran)
		if h != heatmap {
			t.Errorf("per-%s: latency matrix differs from the one-shard build's:\n%s\nwant:\n%s", gran, h, heatmap)
		}
		if !bytes.Equal(m, metrics) {
			t.Errorf("per-%s: MetricsJSON diverges:\n%s", gran, firstDiff(metrics, m))
		}
	}
}

// sharding is one partition of a multi-node shape.
type sharding struct {
	name        string
	parallel    int
	granularity string
}

// shardings are the three partitions of a multi-node shape the tests below
// compare: one shard, per FPGA and per node.
var shardings = []sharding{{"one-shard", 0, ""}, {"per-fpga", 2, "fpga"}, {"per-node", 2, "node"}}

// drainedIS runs NPB-IS with 1 024 keys to the end on 2x2x2 under one
// sharding and returns the drained prototype, nothing read or reported yet.
func drainedIS(t *testing.T, parallel int, granularity string) *core.Prototype {
	t.Helper()
	p := buildProto(t, diffCase{a: 2, b: 2, c: 2, workload: "is", seed: 42, granularity: granularity}, parallel)
	ip := workload.DefaultISParams(p.Cfg.TotalTiles())
	ip.Keys = 1 << 10
	if r := workload.RunIS(kernel.New(p, kernel.DefaultConfig()), ip); !r.Sorted {
		t.Fatal("output not sorted")
	}
	return p
}

// TestStatsCurrentAfterRun: Stats is the fold of the node registries as soon
// as the run returns, before any report, under every sharding.
func TestStatsCurrentAfterRun(t *testing.T) {
	var want map[string]uint64
	for _, s := range shardings {
		got := drainedIS(t, s.parallel, s.granularity).Stats.CounterSnapshot()
		if want == nil {
			want = got
			if want["node0.dram.reads"] == 0 {
				t.Fatal("one-shard run: node0.dram.reads is 0 right after the run")
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: node0.dram.reads = %d of %d counters right after the run; one shard reads %d of %d",
				s.name, got["node0.dram.reads"], len(got), want["node0.dram.reads"], len(want))
		}
	}
}

// TestStateCaptureIsShardingFree: the hardware half of a state capture is
// laid out by node, so a drained run captures the same bytes under every
// sharding, and a capture applied into a fresh build of any sharding
// schedules nothing and captures those bytes again.
func TestStateCaptureIsShardingFree(t *testing.T) {
	encode := func(p *core.Prototype) []byte {
		t.Helper()
		st, err := p.CaptureState()
		if err != nil {
			t.Fatal(err)
		}
		return encodeSnapshot(t, &ckpt.Snapshot{Kind: ckpt.KindState, State: st})
	}
	var want []byte
	for _, taken := range shardings {
		p := drainedIS(t, taken.parallel, taken.granularity)
		raw := encode(p)
		if want == nil {
			want = raw
		} else if !bytes.Equal(raw, want) {
			t.Errorf("taken %s: capture differs from the one-shard one:\n%s", taken.name, firstDiff(want, raw))
		}
		snap, err := ckpt.Read(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		for _, into := range shardings {
			r := buildProto(t, diffCase{a: 2, b: 2, c: 2, seed: 42, granularity: into.granularity}, into.parallel)
			if err := r.ApplyState(snap.State, false); err != nil {
				t.Fatalf("taken %s, applied into %s: %v", taken.name, into.name, err)
			}
			if r.Group.Pending() {
				t.Fatalf("taken %s, applied into %s: the applied state scheduled events", taken.name, into.name)
			}
			if got := encode(r); !bytes.Equal(got, raw) {
				t.Errorf("taken %s, applied into %s: re-capture differs:\n%s", taken.name, into.name, firstDiff(raw, got))
			}
		}
	}
}

// encodeSnapshot writes snap to bytes.
func encodeSnapshot(t *testing.T, snap *ckpt.Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := snap.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// isSegment runs NPB-IS (keys keys, IS seed = dc.seed) on a fresh build of
// dc under s — cold, or resumed from the encoded state snapshot from — to
// the end or, with cut set, to the first phase barrier past its start. At a
// cut it returns the whole snapshot (hardware, kernel and workload sections)
// encoded; at the end, nil.
func isSegment(t *testing.T, dc diffCase, keys int, s sharding, from []byte, cut bool) (*core.Prototype, workload.ISResult, []byte) {
	t.Helper()
	dc.granularity = s.granularity
	p := buildProto(t, dc, s.parallel)
	k := kernel.New(p, kernel.DefaultConfig())
	ip := workload.DefaultISParams(p.Cfg.TotalTiles())
	ip.Keys, ip.Seed = keys, dc.seed
	var snap *ckpt.Snapshot
	var plan *workload.CutPlan
	if from != nil {
		var err error
		if snap, err = ckpt.Read(bytes.NewReader(from)); err != nil {
			t.Fatal(err)
		}
		if err := p.ApplyState(snap.State, false); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
	}
	if cut {
		plan = &workload.CutPlan{After: 1}
		if snap != nil {
			plan.After += smappic.Time(snap.Now)
		}
	}
	var res workload.ISResult
	var ic *workload.ISCut
	if snap != nil {
		var err error
		if res, ic, err = workload.ResumeIS(k, ip, snap.State.Kernel, snap.State.Workload, plan); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
	} else {
		res, ic = workload.RunISCut(k, ip, plan)
	}
	if ic == nil {
		return p, res, nil
	}
	st, err := p.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	st.Kernel, st.Workload = ic.KernelState(), ic.WorkloadState()
	return p, res, encodeSnapshot(t, &ckpt.Snapshot{Kind: ckpt.KindState, ConfigHash: p.Cfg.ConfigHash(),
		Workload: p.WorkloadTag, Now: uint64(p.Now()), State: st})
}

// metricsOf renders p's MetricsJSON.
func metricsOf(t *testing.T, p *core.Prototype) []byte {
	t.Helper()
	m, err := p.MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestISCutIsShardingFree: a whole IS cut is laid out by node — the resume
// cursor too — and a resumed thread wakes on its own engine, so cutting
// 2x2x2 at its first phase barrier writes the same snapshot under one shard,
// per FPGA and per node, and the snapshot taken under each resumes under
// each to the plain run's checksum and MetricsJSON.
func TestISCutIsShardingFree(t *testing.T) {
	dc := diffCase{a: 2, b: 2, c: 2, workload: "is", seed: 42}
	p, plain, _ := isSegment(t, dc, 1<<10, shardings[0], nil, false)
	want := metricsOf(t, p)
	var first []byte
	for _, taken := range shardings {
		_, _, raw := isSegment(t, dc, 1<<10, taken, nil, true)
		if raw == nil {
			t.Fatalf("taken %s: the run ended before its first phase barrier", taken.name)
		}
		if first == nil {
			first = raw
		} else if !bytes.Equal(raw, first) {
			t.Errorf("taken %s: snapshot differs from the one-shard one:\n%s", taken.name, firstDiff(first, raw))
		}
		for _, into := range shardings {
			r, res, _ := isSegment(t, dc, 1<<10, into, raw, false)
			if res.Checksum != plain.Checksum || res.Cycles != plain.Cycles || !res.Sorted {
				t.Errorf("taken %s, resumed %s: checksum %#x in %d cycles (sorted %v), plain run %#x in %d",
					taken.name, into.name, res.Checksum, res.Cycles, res.Sorted, plain.Checksum, plain.Cycles)
			}
			if got := metricsOf(t, r); !bytes.Equal(got, want) {
				t.Errorf("taken %s, resumed %s: MetricsJSON diverges from the plain run's:\n%s", taken.name, into.name, firstDiff(want, got))
			}
		}
	}
}

// TestISCutChainKeepsItsKnownDifference: seed 17 of 2x1x2 / 512 keys is the
// credit-read hole (DESIGN §3.4): cut at every phase barrier and resumed from
// each cut, it ends with node1.bridge.credit_stall one lower than the plain
// run. Per FPGA the chain writes the one-shard chain's snapshot at every
// barrier and ends on its MetricsJSON, so sharding neither widens nor hides
// the difference.
func TestISCutChainKeepsItsKnownDifference(t *testing.T) {
	const differ = "node1.bridge.credit_stall"
	dc := diffCase{a: 2, b: 1, c: 2, workload: "is", seed: 17}
	p, plain, _ := isSegment(t, dc, 512, shardings[0], nil, false)
	plainEnd, plainStats := p.Now(), p.Stats.CounterSnapshot()
	var cuts [][]byte
	var end []byte
	for _, s := range shardings[:2] {
		var raw []byte
		var res workload.ISResult
		n := 0
		for {
			var next []byte
			if p, res, next = isSegment(t, dc, 512, s, raw, true); next == nil {
				break
			}
			if n == len(cuts) {
				cuts = append(cuts, next)
			} else if !bytes.Equal(next, cuts[n]) {
				t.Errorf("%s: cut %d differs from the one-shard chain's:\n%s", s.name, n+1, firstDiff(cuts[n], next))
			}
			raw = next
			n++
		}
		if n != len(cuts) {
			t.Errorf("%s: %d cuts, the one-shard chain made %d", s.name, n, len(cuts))
		}
		if res.Checksum != plain.Checksum || p.Now() != plainEnd {
			t.Errorf("%s: checksum %#x at cycle %d, plain run %#x at %d; the known difference is one counter",
				s.name, res.Checksum, p.Now(), plain.Checksum, plainEnd)
		}
		m := metricsOf(t, p)
		if end == nil {
			end = m
		} else if !bytes.Equal(m, end) {
			t.Errorf("%s: the chain's MetricsJSON diverges from the one-shard chain's:\n%s", s.name, firstDiff(end, m))
		}
		got := p.Stats.CounterSnapshot()
		for name, v := range plainStats {
			if got[name] != v && (name != differ || got[name]+1 != v) {
				t.Errorf("%s: %s %d, plain run %d; the known difference is %s one lower", s.name, name, got[name], v, differ)
			}
		}
		if got[differ] == plainStats[differ] {
			t.Errorf("%s: %s equals the plain run's: the known difference is gone (close the ROADMAP item)", s.name, differ)
		}
	}
}

// firstDiff renders the first divergent region of two byte slices.
func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 120
			if lo < 0 {
				lo = 0
			}
			hiA, hiB := i+120, i+120
			if hiA > len(a) {
				hiA = len(a)
			}
			if hiB > len(b) {
				hiB = len(b)
			}
			return fmt.Sprintf("first diff at byte %d:\nserial:  …%s…\ngot:     …%s…", i, a[lo:hiA], b[lo:hiB])
		}
	}
	return fmt.Sprintf("length mismatch at byte %d", n)
}
