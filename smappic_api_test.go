package smappic_test

import (
	"fmt"
	"strings"
	"testing"

	"smappic"
	"smappic/internal/accel"
	"smappic/internal/core"
	"smappic/internal/rvasm"
	"smappic/internal/sim"
)

// TestPublicAPIQuickstart exercises the documented public surface end to
// end: build, load, boot, console.
func TestPublicAPIQuickstart(t *testing.T) {
	proto, err := smappic.Build(smappic.DefaultConfig(1, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	host := proto.Host()
	host.LoadProgram(0, rvasm.MustAssemble(smappic.ResetPC, `
		csrr t0, mhartid
		bnez t0, halt
		li   s1, 0xF000001000
		li   t1, 0x21       # '!'
		sd   t1, 0(s1)
	halt:	li a0, 0
		ebreak
	`))
	proto.Start()
	proto.Run()
	if !proto.AllHalted() {
		t.Fatal("harts did not halt")
	}
	if got := host.Console(0); got != "!" {
		t.Fatalf("console = %q", got)
	}
}

// TestGNGOverMMIO: in the paper's 1x1x2 prototype an Ariane hart stores to
// the GNG's MMIO window in tile 1, which acknowledges the store and changes
// nothing, then loads four packed samples back.
func TestGNGOverMMIO(t *testing.T) {
	proto, err := smappic.Build(smappic.DefaultConfig(1, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	proto.Nodes[0].Tiles[1].Accel = accel.NewGNG(1, proto.StatsForNode(0), "gng")
	gng := core.DevBase + core.DevAccel + 1<<16
	proto.Host().LoadProgram(0, rvasm.MustAssemble(smappic.ResetPC, fmt.Sprintf(`
		li s1, %#x
		sd s1, %d(s1)
		ld a0, %d(s1)
		ebreak
	`, gng, accel.GNGFetch1, accel.GNGFetch4)))
	proto.Start()
	proto.Run()
	if !proto.AllHalted() {
		t.Fatal("hart 0 did not halt")
	}
	if fetches, samples := proto.Stats.Get("gng.fetches"), proto.Stats.Get("gng.samples"); fetches != 1 || samples != 4 {
		t.Fatalf("the GNG served %d fetches of %d samples, want 1 of 4 (a store fetches nothing)", fetches, samples)
	}
	if proto.Nodes[0].Tiles[0].Core.X[10] == 0 {
		t.Error("four packed samples read back as 0")
	}
}

// TestPublicAPIKernelMode exercises the execution-driven path through the
// re-exported kernel types.
func TestPublicAPIKernelMode(t *testing.T) {
	cfg := smappic.DefaultConfig(2, 1, 2)
	cfg.Core = smappic.CoreNone
	proto, err := smappic.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k := smappic.BootKernel(proto, smappic.DefaultKernelConfig())
	buf := k.Alloc(4096)
	var got uint64
	k.Spawn("t", k.NodeHarts(1), func(c *smappic.Ctx) {
		c.Store(buf, 8, 7)
		got = c.Load(buf, 8)
	})
	k.Join()
	if got != 7 {
		t.Fatalf("kernel-mode readback = %d", got)
	}
	if !strings.Contains(k.DeviceTree(), "numa-node-id") {
		t.Error("device tree missing NUMA info")
	}
}

// TestPublicAPIShapeValidation checks ParseShape and Validate through the
// root package.
func TestPublicAPIShapeValidation(t *testing.T) {
	a, b, c, err := smappic.ParseShape("2x2x4")
	if err != nil || a*b*c != 16 {
		t.Fatalf("ParseShape: %d %d %d %v", a, b, c, err)
	}
	bad := smappic.DefaultConfig(5, 1, 1)
	if bad.Validate() == nil {
		t.Fatal("5-FPGA config should be rejected")
	}
	var _ smappic.Time = sim.Time(0) // alias holds
}
