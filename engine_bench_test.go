// Engine throughput benchmarks: end-to-end simulations whose wall-clock is
// dominated by the event core (internal/sim) and the hot subsystems feeding
// it, so changes to the scheduler, the event pool or a hot call site show up
// here first (benchmark/ holds the committed numbers; these are the quick
// local fixtures). Run with:
//
//	go test -bench 'BenchmarkEngine_' -benchmem
//
// The exported cycles_per_sec metric is simulated cycles divided by
// wall-clock seconds, and sim_cycles pins the simulated work so a "speedup"
// from simulating less is visible as such.
package smappic_test

import (
	"testing"

	"smappic"
	"smappic/internal/rvasm"
)

// reportThroughput attaches cycles_per_sec and sim_cycles to b.
func reportThroughput(b *testing.B, cycles smappic.Time) {
	b.Helper()
	secPerOp := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(float64(cycles)/secPerOp, "cycles_per_sec")
	b.ReportMetric(float64(cycles), "sim_cycles")
}

// BenchmarkEngine_Quickstart is the full-system path: boot the quickstart
// shape (1x1x2 Ariane tiles) from reset and run a bare-metal program that
// prints over the tunneled UART. Interpreter cores, caches, NoC, devices —
// every event flows through the serial engine.
func BenchmarkEngine_Quickstart(b *testing.B) {
	prog := rvasm.MustAssemble(smappic.ResetPC, `
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
	msg:	.asciz "engine benchmark\n"
	`)
	var cycles smappic.Time
	for i := 0; i < b.N; i++ {
		proto, err := smappic.Build(smappic.DefaultConfig(1, 1, 2))
		if err != nil {
			b.Fatal(err)
		}
		host := proto.Host()
		host.LoadProgram(0, prog)
		proto.Start()
		proto.Run()
		cycles = proto.Eng.Now()
		if host.Console(0) == "" {
			b.Fatal("program produced no console output")
		}
	}
	reportThroughput(b, cycles)
}

// BenchmarkEngine_NUMA48 is the execution-driven path at the paper's 48-core
// scale: NPB-IS on the numa48 shape (4x1x12), serial engine. Cross-FPGA
// traffic exercises the bridge, PCIe fabric and shell conversion layers.
func BenchmarkEngine_NUMA48(b *testing.B) {
	var cycles smappic.Time
	for i := 0; i < b.N; i++ {
		cycles = benchIS(b, 4, 1, 12, 0, "")
	}
	reportThroughput(b, cycles)
}

// BenchmarkEngine_NPBIS8 is the 8-node (4x2x2) NPB-IS serial run — the same
// configuration as BenchmarkParallel_vs_Serial/8node/serial and the fixture
// the >=1.5x engine-throughput acceptance gate is measured on.
func BenchmarkEngine_NPBIS8(b *testing.B) {
	var cycles smappic.Time
	for i := 0; i < b.N; i++ {
		cycles = benchIS(b, 4, 2, 2, 0, "")
	}
	reportThroughput(b, cycles)
}
