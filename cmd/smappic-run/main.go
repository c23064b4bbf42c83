// Command smappic-run boots a prototype and executes a bare-metal RISC-V
// program on it, printing the console UART output — the simulated
// equivalent of loading a test over the UART tunnel and watching the
// virtual serial device.
//
// Usage:
//
//	smappic-run -shape 1x1x2 [-prog program.s] [-max-cycles N]
//	            [-parallel N] [-shard-granularity fpga|node]
//	            [-metrics-json out.json] [-trace-out trace.json]
//	            [-sample-every N] [-sample-out samples.csv]
//	            [-faults SPEC] [-fault-seed N]
//	            [-cpuprofile cpu.pb.gz] [-memprofile mem.pb.gz]
//
// Without -prog a built-in hello-world runs. Programs are RV64IMA assembly
// (see internal/rvasm); execution starts at the reset PC on every hart.
//
// -metrics-json dumps every counter, gauge and histogram as JSON;
// -trace-out writes a Chrome trace-event file loadable in Perfetto (one ring
// per node, -trace-cap events between them; the same file under every
// -parallel / -shard-granularity);
// -sample-every N snapshots the default counter set at every multiple of N
// cycles up to the run's last event (written into the metrics JSON, or as
// CSV with -sample-out), at window barriers: it schedules no events, so a
// sampled run's results equal an unsampled one's, whatever the sharding.
//
// -faults enables deterministic fault injection. A spec is a semicolon-
// separated list of rules, each "site-pattern.kind:opts":
//
//	pcie.*.drop:p=0.01,seed=7;node0.dram.flip:n=3
//
// The site pattern matches dot-separated site names (pcie.ep<N>.link,
// node<N>.bridge, node<N>.dram) with "*" wildcards; a trailing "*" matches
// any remainder. Kinds: drop (lose a transfer), corrupt (deliver garbage;
// retransmitted like a drop), delay (add cycles=N latency), stall (pause a
// site for cycles=N), hang (site goes permanently dead), flip (single-bit
// upset, ECC-correctable), flip2 (double-bit upset, uncorrectable).
// Options: p=F (per-transfer probability), n=N (fire at most N times),
// after=N (skip the first N transfers), cycles=N (delay/stall length),
// seed=N (per-rule RNG seed; -fault-seed sets the default).
//
// A run that drains with transactions still in flight (a hung link, say)
// wedged: it prints a stall diagnosis — the drain cycle, every node's
// outstanding gauges, fault-site status — and exits 1. The check runs at
// every drain, takes no option, and reads the same under every sharding.
//
// -cpuprofile and -memprofile write Go pprof profiles of the simulator
// itself (inspect with `go tool pprof`). The CPU profile covers the whole
// run; the heap profile is snapshotted after the run, post-GC, so it shows
// the simulator's steady-state live set.
//
// Every run executes in lookahead windows under one conservative
// synchronizer; the default is its one-shard case (a single engine whose
// windows run straight through). -parallel N (N > 1) shards it
// one-engine-per-FPGA; results are bit-identical whatever the shard count.
// Windows widen adaptively while cross-shard traffic is absent (geometric
// doubling up to 64 minimum PCIe crossings, collapsing back to one crossing
// when traffic returns). -shard-granularity picks the shard unit: "fpga"
// (default, one engine per FPGA) or "node" (one engine per simulated node,
// nested under the per-FPGA windows at the intra-FPGA interconnect
// lookahead — on multi-node FPGAs this exposes NodesPerFPGA times more host
// parallelism). These knobs are execution policy: they choose the engines,
// and the engines of a window are run by as many host workers as GOMAXPROCS
// allows, so they change wall-clock, never results. A -parallel run ends
// with a "sync:" line on stderr: windows, chunks, events and the
// critical-path event count, whose ratio to the events is the most that a
// worker per FPGA can gain over one worker on any host.
// The halt check and -max-cycles are evaluated at window barriers, so a run
// may pass such a bound by at most one window.
//
// smappic-run takes no snapshots: a state snapshot is cut at a workload
// barrier, which a bare-metal program has none of. Campaign jobs checkpoint
// and resume (smappic-fleet -checkpoint-every).
//
// -serve ADDR starts the live observability dashboard (internal/obs) on
// ADDR for the duration of the run: open http://ADDR/ in a browser, or poll
// /api/metrics and /api/events directly. Observation is read-only and
// non-perturbing — a served run's outputs are byte-identical to an unserved
// one. Snapshots publish at window barriers, throttled to one per 100 ms of
// wall clock; -serve-hold D keeps the server (and the
// process) up for D after the run finishes so the final state can be
// inspected — all output files are written before the hold begins.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"smappic"
	"smappic/internal/obs"
	"smappic/internal/rvasm"
)

const helloProgram = `
	# Built-in demo: hart 0 prints over the console UART; other harts halt.
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
msg:	.asciz "Hello from SMAPPIC!\n"
`

func main() {
	shape := flag.String("shape", "1x1x2", "prototype shape (AxBxC)")
	progPath := flag.String("prog", "", "RV64 assembly source to run (default: built-in hello)")
	maxCycles := flag.Uint64("max-cycles", 50_000_000, "abort after this many cycles")
	stats := flag.Bool("stats", false, "dump hardware counters after the run")
	disasm := flag.Bool("disasm", false, "print a disassembly listing before running")
	metricsJSON := flag.String("metrics-json", "", "write all counters/gauges/histograms as JSON to this file")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON (Perfetto) to this file")
	traceCap := flag.Int("trace-cap", 1<<20, "events the trace retains, split evenly over the nodes' rings (with -trace-out)")
	sampleEvery := flag.Uint64("sample-every", 0, "snapshot the default counter set every N cycles (0 = off)")
	sampleOut := flag.String("sample-out", "", "write the sampled time series as CSV to this file")
	faults := flag.String("faults", "", `fault-injection spec, e.g. "pcie.*.drop:p=0.01;node0.dram.flip:n=3" (see doc comment)`)
	faultSeed := flag.Uint64("fault-seed", 1, "default RNG seed for fault rules without an explicit seed=")
	parallel := flag.Int("parallel", 0, "shard the simulation, one engine per FPGA, run by up to GOMAXPROCS workers (>1 = on; results are identical to serial)")
	granularity := flag.String("shard-granularity", "", `shard unit for -parallel runs: "fpga" (default) or "node" (one engine per node under nested windows)`)
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (taken after the run) to this file")
	serve := flag.String("serve", "", "serve the live dashboard on this address (e.g. 127.0.0.1:8080) for the duration of the run")
	serveHold := flag.Duration("serve-hold", 0, "keep the dashboard up this long after the run ends (outputs are written first)")
	flag.Parse()

	a, b, c, err := smappic.ParseShape(*shape)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cfg := smappic.DefaultConfig(a, b, c)
	cfg.Parallel = *parallel
	cfg.ShardGranularity = *granularity
	cfg.Faults, err = smappic.ParseFaults(*faults, *faultSeed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	proto, err := smappic.Build(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// A run that ends at -max-cycles leaves its harts parked mid-program;
	// release them (the process may linger under -serve-hold).
	defer proto.Close()

	source := helloProgram
	if *progPath != "" {
		data, err := os.ReadFile(*progPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		source = string(data)
	}
	prog, err := rvasm.Assemble(smappic.ResetPC, source)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *disasm {
		fmt.Println("--- disassembly ---")
		fmt.Print(rvasm.DisassembleAll(prog))
	}

	if *traceOut != "" {
		proto.EnableTrace(*traceCap)
	}
	if *sampleEvery > 0 || *sampleOut != "" {
		proto.EnableSampler(smappic.Time(*sampleEvery))
	}

	host := proto.Host()
	for n := 0; n < proto.Cfg.TotalNodes(); n++ {
		host.LoadProgram(n, prog)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	var srv *obs.Server
	if *serve != "" {
		srv = obs.New()
		srv.ObservePrototype(proto)
		addr, err := srv.Start(*serve)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "dashboard: http://%s/\n", addr)
	}
	proto.Start()
	proto.RunUntilHalted(smappic.Time(*maxCycles))
	if srv != nil {
		srv.Flush()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		runtime.GC() // flush dead objects so the profile shows live state
		err = pprof.WriteHeapProfile(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	fmt.Printf("ran %d cycles (%.3f ms at %d MHz)\n",
		proto.Now(), proto.Seconds(proto.Now())*1e3, proto.Cfg.ClockMHz)
	switch {
	case proto.AllHalted():
	case proto.Now() >= smappic.Time(*maxCycles):
		fmt.Println("warning: not all harts halted before the cycle limit")
	default:
		fmt.Println("warning: the run drained with harts still running")
	}
	if *parallel > 1 {
		// The partition's books, not the results': stderr, like the other
		// notes about how the run was executed.
		sn := proto.Group.SyncSnapshot()
		var events uint64
		for _, sh := range sn.Shards {
			events += sh.Events
		}
		fmt.Fprintf(os.Stderr, "sync: %d shards, %d windows, %d chunks, %d events, critical path %d events (one worker per FPGA is at most %.2fx one worker)\n",
			len(sn.Shards), sn.Windows, sn.Chunks, events, sn.CriticalEvents, float64(events)/float64(max(sn.CriticalEvents, 1)))
	}
	if proto.StallDiagnosis != "" {
		fmt.Print(proto.StallDiagnosis)
	} else if proto.Injector != nil && !*stats {
		fmt.Println("--- fault injection ---")
		fmt.Print(proto.Injector.String())
	}
	for n := 0; n < proto.Cfg.TotalNodes(); n++ {
		if out := host.Console(n); out != "" {
			fmt.Printf("--- node %d console ---\n%s", n, out)
		}
	}
	if *stats {
		fmt.Println("--- hardware counters ---")
		fmt.Print(proto.Report())
	}
	if *metricsJSON != "" {
		out, err := proto.MetricsJSON()
		if err == nil {
			err = os.WriteFile(*metricsJSON, out, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err == nil {
			err = proto.WriteTrace(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *sampleOut != "" && proto.Sampler != nil {
		if err := os.WriteFile(*sampleOut, []byte(proto.Sampler.CSV()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if srv != nil && *serveHold > 0 {
		fmt.Fprintf(os.Stderr, "holding dashboard for %v\n", *serveHold)
		time.Sleep(*serveHold)
	}
	if srv != nil {
		srv.Close()
	}
	if proto.StallDiagnosis != "" {
		pprof.StopCPUProfile() // os.Exit skips the deferred stop
		os.Exit(1)
	}
}
