package experiments

import (
	"fmt"
	"strings"
	"time"

	"smappic/internal/baseline"
	"smappic/internal/cloud"
	"smappic/internal/core"
	"smappic/internal/kernel"
	"smappic/internal/rvasm"
)

// prototypeBackend runs the Nginx+PHP side of the Fig. 12 pipeline on a
// live simulated prototype: the request handler parses the request, walks
// the S3 payload through the memory system and formats the response, all
// charged in prototype cycles.
type prototypeBackend struct {
	kern *kernel.Kernel
}

// Handle processes one HTTP request on the prototype.
func (pb *prototypeBackend) Handle(path string, s3Data []byte) (string, time.Duration) {
	k := pb.kern
	pr := k.Prototype()
	buf := k.Alloc(uint64(len(s3Data) + 4096))
	start := pr.Now()
	k.Spawn("nginx", []int{0}, func(c *kernel.Ctx) {
		// Parse the request line (per-byte scan).
		for range path {
			c.Compute(8)
		}
		// CGI handoff to the PHP script.
		c.Compute(2000)
		// The script stages the S3 payload through memory and builds the
		// response (copy + format).
		for i, b := range s3Data {
			c.Store(buf+uint64(i), 1, uint64(b))
			c.Compute(4)
		}
		for i := 0; i < len(s3Data); i++ {
			c.Load(buf+uint64(i), 1)
			c.Compute(4)
		}
		// Attach the current date (time syscall + formatting).
		c.Compute(5000)
	})
	end := k.Join()
	cycles := end - start
	secs := pr.Seconds(cycles)
	body := fmt.Sprintf("%s date=%d-cycles-%d", string(s3Data), core.ClockMHz, cycles)
	return body, time.Duration(secs * float64(time.Second))
}

// Fig12Result is one request through the in-situ cloud pipeline.
type Fig12Result struct {
	Trace          *cloud.Trace
	PrototypeShare float64 // fraction of end-to-end time spent on the prototype
}

// Fig12 builds the paper's pipeline (Lambda -> Nginx on a 1x1x4 SMAPPIC
// prototype -> S3) and pushes one request through it.
func Fig12() Fig12Result {
	p := newPrototype(1, 1, 4)
	k := kernel.New(p, kernel.DefaultConfig())
	s3 := cloud.NewS3()
	s3.Put("dataset.json", []byte(`{"records":[1,2,3,4],"source":"s3"}`))
	pipe := &cloud.Pipeline{
		Lambda:  cloud.NewLambda(),
		S3:      s3,
		Backend: &prototypeBackend{kern: k},
		S3Key:   "dataset.json",
	}
	tr, err := pipe.Request("GET /index.php HTTP/1.1")
	if err != nil {
		panic(err)
	}
	var proto time.Duration
	for _, s := range tr.Stages {
		if strings.Contains(s.Name, "prototype") {
			proto = s.Latency
		}
	}
	return Fig12Result{Trace: tr, PrototypeShare: float64(proto) / float64(tr.Total())}
}

// String renders the request trace.
func (r Fig12Result) String() string {
	return fmt.Sprintf("Fig 12: SMAPPIC in an experimental cloud pipeline (one request)\n%s  prototype share of end-to-end latency: %.2f%%\n",
		r.Trace.String(), r.PrototypeShare*100)
}

// Fig13Row is one benchmark's modeling cost across tools.
type Fig13Row struct {
	Benchmark string
	Dollars   map[baseline.Tool]float64 // absent = tool cannot run it
}

// Fig13Result is the cost comparison (paper Fig. 13) plus the HelloWorld
// Verilator anchor of §4.5.
type Fig13Result struct {
	Rows       []Fig13Row
	SuiteTotal map[baseline.Tool]float64
	Gem5Total  float64
	// HelloWorld anchor, measured by running the program on the RISC-V
	// prototype.
	HelloCycles       uint64
	HelloSMAPPICSec   float64
	HelloVerilatorSec float64
	HelloCostEffRatio float64
}

// fig13Tools are the bars shown in the figure (gem5 is annotated off-chart).
var fig13Tools = []baseline.Tool{baseline.SMAPPIC, baseline.FireSimSingle, baseline.FireSimSuper, baseline.Sniper}

// Fig13 computes modeling costs for every SPECint benchmark and tool, and
// measures the HelloWorld anchor on a real simulated prototype.
func Fig13() Fig13Result {
	res := Fig13Result{SuiteTotal: make(map[baseline.Tool]float64)}
	for _, b := range baseline.SPECint2017 {
		row := Fig13Row{Benchmark: b.Name, Dollars: make(map[baseline.Tool]float64)}
		for _, tool := range fig13Tools {
			d, _, err := baseline.Cost(baseline.ModelFor(tool), b)
			if err != nil {
				continue
			}
			row.Dollars[tool] = d
			res.SuiteTotal[tool] += d
		}
		res.Rows = append(res.Rows, row)
	}
	res.Gem5Total, _ = baseline.SuiteCost(baseline.ModelFor(baseline.Gem5))

	res.HelloCycles = helloWorldCycles()
	h := baseline.HelloWorld{Cycles: res.HelloCycles}
	res.HelloSMAPPICSec = h.SMAPPICSeconds()
	res.HelloVerilatorSec = h.VerilatorSeconds()
	res.HelloCostEffRatio = h.CostEfficiencyRatio()
	return res
}

// helloWorldCycles boots a 1x1x1 RISC-V prototype, runs a UART hello-world
// and returns the cycle count — the measurement both the SMAPPIC and
// Verilator times derive from.
func helloWorldCycles() uint64 {
	cfg := core.DefaultConfig(1, 1, 1)
	p, err := core.Build(cfg)
	if err != nil {
		panic(err)
	}
	host := p.Host()
	prog := rvasm.MustAssemble(core.ResetPC, `
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
	msg:	.asciz "Hello World\n"
	`)
	host.LoadProgram(0, prog)
	p.Start()
	p.Run()
	return uint64(p.Now())
}

// String renders the cost table and anchors.
func (r Fig13Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 13: modeling costs in dollars (paper totals: FireSim single 11.56, supernode 8.24; gem5 4-5 orders higher)\n")
	fmt.Fprintf(&b, "%-12s", "Benchmark")
	for _, tool := range fig13Tools {
		fmt.Fprintf(&b, "%22s", tool)
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s", row.Benchmark)
		for _, tool := range fig13Tools {
			if d, ok := row.Dollars[tool]; ok {
				fmt.Fprintf(&b, "%21.3f$", d)
			} else {
				fmt.Fprintf(&b, "%22s", "n/a")
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-12s", "SPECint 2017")
	for _, tool := range fig13Tools {
		fmt.Fprintf(&b, "%21.2f$", r.SuiteTotal[tool])
	}
	fmt.Fprintf(&b, "\ngem5 suite total: $%.0f (excluded from the chart, as in the paper)\n", r.Gem5Total)
	fmt.Fprintf(&b, "HelloWorld anchor: %d cycles -> SMAPPIC %.1f ms vs Verilator %.1f s (%.0fx cost-efficiency; paper: 4 ms vs 65 s, ~1600x)\n",
		r.HelloCycles, r.HelloSMAPPICSec*1000, r.HelloVerilatorSec, r.HelloCostEffRatio)
	return b.String()
}

// Fig14Result is the cloud vs on-premises cost study (paper Fig. 14).
type Fig14Result struct {
	Instance      string
	Days          []float64
	Cloud         []float64
	OnPrem        []float64
	CrossoverDays float64
}

// Fig14 samples both cost curves out to a year, for the single-FPGA
// instance the paper's comparison uses (f1.2xl vs one $8000 board).
func Fig14() Fig14Result {
	inst, err := cloud.InstanceByName("f1.2xl")
	if err != nil {
		panic(err)
	}
	days, cl, op := cloud.CostCurve(inst, 350, 25)
	return Fig14Result{Instance: inst.Name, Days: days, Cloud: cl, OnPrem: op, CrossoverDays: cloud.CrossoverDays(inst)}
}

// String renders the cost curves.
func (r Fig14Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 14: FPGA modeling cost on %s, cloud vs on-premises (paper: crossover ~200 days)\n", r.Instance)
	fmt.Fprintf(&b, "%8s %12s %14s\n", "Days", "Cloud ($)", "On-prem ($)")
	for i := range r.Days {
		fmt.Fprintf(&b, "%8.0f %12.0f %14.0f\n", r.Days[i], r.Cloud[i], r.OnPrem[i])
	}
	fmt.Fprintf(&b, "crossover: %.0f days of continuous modeling\n", r.CrossoverDays)
	return b.String()
}
