package riscv

import (
	"testing"

	"smappic/internal/mem"
	"smappic/internal/rvasm"
	"smappic/internal/sim"
)

// flatMem is a timing-free Mem over a backing store, with one MMIO word to
// test device access ordering.
type flatMem struct {
	b        *mem.Backing
	loadLat  sim.Time
	mmioAddr uint64
	mmioLog  []uint64
}

func (m *flatMem) Fetch(p *sim.Process, addr uint64) uint32 {
	return m.b.ReadU32(addr)
}

func (m *flatMem) Load(p *sim.Process, addr uint64, size int) uint64 {
	if m.loadLat > 0 {
		p.Wait(m.loadLat)
	}
	switch size {
	case 1:
		return uint64(m.b.ReadU8(addr))
	case 2:
		return uint64(m.b.ReadU16(addr))
	case 4:
		return uint64(m.b.ReadU32(addr))
	default:
		return m.b.ReadU64(addr)
	}
}

func (m *flatMem) Store(p *sim.Process, addr uint64, size int, v uint64) {
	if addr == m.mmioAddr && m.mmioAddr != 0 {
		m.mmioLog = append(m.mmioLog, v)
		return
	}
	switch size {
	case 1:
		m.b.WriteU8(addr, uint8(v))
	case 2:
		m.b.WriteU16(addr, uint16(v))
	case 4:
		m.b.WriteU32(addr, uint32(v))
	default:
		m.b.WriteU64(addr, v)
	}
}

func (m *flatMem) Amo(p *sim.Process, addr uint64, size int, op AmoOp, operand uint64) uint64 {
	old := m.Load(p, addr, size)
	m.Store(p, addr, size, op.Apply(old, operand, size))
	return old
}

// run assembles source at 0x1000, executes until halt, and returns the core.
func run(t *testing.T, source string) (*Core, *flatMem) {
	t.Helper()
	return runWith(t, source, nil)
}

func runWith(t *testing.T, source string, tweak func(*flatMem)) (*Core, *flatMem) {
	t.Helper()
	prog, err := rvasm.Assemble(0x1000, source)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	fm := &flatMem{b: mem.NewBacking()}
	if tweak != nil {
		tweak(fm)
	}
	fm.b.WriteBytes(prog.Base, prog.Bytes)
	core := New(fm, 0, prog.Base)
	eng := sim.NewEngine()
	sim.Go(eng, "hart0", func(p *sim.Process) { core.Run(p, 2_000_000) })
	eng.Run()
	if !core.Halted() {
		t.Fatalf("program did not halt; pc=%#x a0=%#x", core.PC, core.X[10])
	}
	return core, fm
}

// expectA0 runs a program and checks the a0 halt code.
func expectA0(t *testing.T, want uint64, source string) *Core {
	t.Helper()
	core, _ := run(t, source)
	if core.HaltCode() != want {
		t.Fatalf("a0 = %d (%#x), want %d; pc=%#x", core.HaltCode(), core.HaltCode(), want, core.PC)
	}
	return core
}

func TestArithmetic(t *testing.T) {
	expectA0(t, 42, `
		li   a0, 40
		addi a0, a0, 2
		ebreak
	`)
}

func TestSubAndNeg(t *testing.T) {
	expectA0(t, 5, `
		li a1, 12
		li a2, 7
		sub a0, a1, a2
		ebreak
	`)
}

func TestLargeImmediates(t *testing.T) {
	expectA0(t, 0xDEADBEEF, `
		li a0, 0xDEADBEEF
		ebreak
	`)
	expectA0(t, 0x123456789ABCDEF0, `
		li a0, 0x123456789ABCDEF0
		ebreak
	`)
}

func TestNegativeImmediate(t *testing.T) {
	core, _ := run(t, `
		li a0, -5
		ebreak
	`)
	if int64(core.HaltCode()) != -5 {
		t.Fatalf("a0 = %d, want -5", int64(core.HaltCode()))
	}
}

func TestLoadsStores(t *testing.T) {
	expectA0(t, 0x1122334455667788, `
		la   t0, buf
		li   t1, 0x1122334455667788
		sd   t1, 0(t0)
		ld   a0, 0(t0)
		ebreak
	.align 3
	buf:	.dword 0
	`)
	// Sub-word widths and sign extension.
	expectA0(t, 0xFFFFFFFFFFFFFF80, `
		la t0, buf
		li t1, 0x80
		sb t1, 0(t0)
		lb a0, 0(t0)
		ebreak
	.align 3
	buf:	.dword 0
	`)
	expectA0(t, 0x80, `
		la t0, buf
		li t1, 0x80
		sb t1, 0(t0)
		lbu a0, 0(t0)
		ebreak
	.align 3
	buf:	.dword 0
	`)
}

func TestBranchesAndLoops(t *testing.T) {
	// Sum 1..10 = 55.
	expectA0(t, 55, `
		li a0, 0
		li t0, 1
		li t1, 10
	loop:	add a0, a0, t0
		addi t0, t0, 1
		ble t0, t1, loop
		ebreak
	`)
}

func TestFunctionCall(t *testing.T) {
	expectA0(t, 21, `
		li   a0, 7
		call triple
		ebreak
	triple:	li t0, 3
		mul a0, a0, t0
		ret
	`)
}

func TestMulDiv(t *testing.T) {
	expectA0(t, 6, `
		li a1, 42
		li a2, 7
		divu a0, a1, a2
		ebreak
	`)
	expectA0(t, 3, `
		li a1, 31
		li a2, 7
		remu a0, a1, a2
		ebreak
	`)
	// Division by zero returns all-ones per spec.
	core, _ := run(t, `
		li a1, 5
		li a2, 0
		div a0, a1, a2
		ebreak
	`)
	if core.HaltCode() != ^uint64(0) {
		t.Fatalf("div by zero = %#x, want all ones", core.HaltCode())
	}
}

func TestMulh(t *testing.T) {
	// (2^63) * 2 >> 64 == 1 for unsigned.
	expectA0(t, 1, `
		li a1, 0x8000000000000000
		li a2, 2
		mulhu a0, a1, a2
		ebreak
	`)
	// -1 * -1 high half is 0 signed.
	expectA0(t, 0, `
		li a1, -1
		li a2, -1
		mulh a0, a1, a2
		ebreak
	`)
}

func TestWordOps(t *testing.T) {
	// addw wraps at 32 bits and sign-extends.
	core, _ := run(t, `
		li a1, 0x7FFFFFFF
		li a2, 1
		addw a0, a1, a2
		ebreak
	`)
	if int64(core.HaltCode()) != -0x80000000 {
		t.Fatalf("addw overflow = %#x", core.HaltCode())
	}
}

func TestShifts(t *testing.T) {
	expectA0(t, 0x10, `
		li a0, 1
		slli a0, a0, 4
		ebreak
	`)
	core, _ := run(t, `
		li a0, -16
		srai a0, a0, 2
		ebreak
	`)
	if int64(core.HaltCode()) != -4 {
		t.Fatalf("srai = %d, want -4", int64(core.HaltCode()))
	}
}

func TestAmoAddAndSwap(t *testing.T) {
	expectA0(t, 15, `
		la t0, counter
		li t1, 5
		amoadd.d t2, t1, (t0)   # returns 10, memory = 15
		ld a0, 0(t0)
		ebreak
	.align 3
	counter: .dword 10
	`)
	expectA0(t, 10, `
		la t0, counter
		li t1, 5
		amoswap.d a0, t1, (t0)  # returns old value 10
		ebreak
	.align 3
	counter: .dword 10
	`)
}

func TestLrScSuccess(t *testing.T) {
	expectA0(t, 0, `
		la t0, cell
		lr.d t1, (t0)
		addi t1, t1, 1
		sc.d a0, t1, (t0)   # 0 = success
		ebreak
	.align 3
	cell: .dword 7
	`)
}

func TestLrScFailsWithoutReservation(t *testing.T) {
	expectA0(t, 1, `
		la t0, cell
		li t1, 9
		sc.d a0, t1, (t0)   # no reservation: must fail
		ebreak
	.align 3
	cell: .dword 7
	`)
}

func TestCSRAccess(t *testing.T) {
	expectA0(t, 0x123, `
		li t0, 0x123
		csrw mscratch, t0
		csrr a0, mscratch
		ebreak
	`)
}

func TestHartID(t *testing.T) {
	prog := rvasm.MustAssemble(0x1000, `
		csrr a0, mhartid
		ebreak
	`)
	fm := &flatMem{b: mem.NewBacking()}
	fm.b.WriteBytes(prog.Base, prog.Bytes)
	core := New(fm, 3, prog.Base)
	eng := sim.NewEngine()
	sim.Go(eng, "hart3", func(p *sim.Process) { core.Run(p, 1000) })
	eng.Run()
	if core.HaltCode() != 3 {
		t.Fatalf("mhartid = %d, want 3", core.HaltCode())
	}
}

func TestEcallTrapAndMret(t *testing.T) {
	expectA0(t, 77, `
		la t0, handler
		csrw mtvec, t0
		li a0, 0
		ecall
		ebreak          # reached after mret with a0 = 77
	handler:
		li a0, 77
		csrr t1, mepc
		addi t1, t1, 4
		csrw mepc, t1
		mret
	`)
}

func TestIllegalInstructionTraps(t *testing.T) {
	core, _ := run(t, `
		la t0, handler
		csrw mtvec, t0
		.word 0xFFFFFFFF   # illegal
		ebreak
	handler:
		csrr a0, mcause
		ebreak
	`)
	if core.HaltCode() != 2 {
		t.Fatalf("mcause = %d, want 2 (illegal instruction)", core.HaltCode())
	}
}

func TestTrapWithoutHandlerHalts(t *testing.T) {
	core, _ := run(t, `
		.word 0xFFFFFFFF
	`)
	if core.HaltCode()&0xFFFF0000 != 0xdead0000 {
		t.Fatalf("halt code = %#x, want 0xdeadXXXX", core.HaltCode())
	}
}

func TestSoftwareInterrupt(t *testing.T) {
	// Raise MSIP from outside while the core spins; handler sets a flag.
	prog := rvasm.MustAssemble(0x1000, `
		la t0, handler
		csrw mtvec, t0
		li t0, 8        # MSIP enable
		csrw mie, t0
		li t0, 8        # mstatus.MIE
		csrs mstatus, t0
	spin:	j spin
	handler:
		li a0, 99
		ebreak
	`)
	fm := &flatMem{b: mem.NewBacking()}
	fm.b.WriteBytes(prog.Base, prog.Bytes)
	core := New(fm, 0, prog.Base)
	eng := sim.NewEngine()
	sim.Go(eng, "hart0", func(p *sim.Process) { core.Run(p, 100_000) })
	eng.Schedule(200, func() { core.SetIRQ(0, true) })
	eng.Run()
	if !core.Halted() || core.HaltCode() != 99 {
		t.Fatalf("interrupt not taken: pc=%#x a0=%#x halted=%v", core.PC, core.X[10], core.Halted())
	}
}

func TestWFIBlocksUntilInterrupt(t *testing.T) {
	prog := rvasm.MustAssemble(0x1000, `
		li t0, 8
		csrw mie, t0    # enable MSIP but keep mstatus.MIE=0: WFI wakes,
		wfi             # no trap is taken
		li a0, 55
		ebreak
	`)
	fm := &flatMem{b: mem.NewBacking()}
	fm.b.WriteBytes(prog.Base, prog.Bytes)
	core := New(fm, 0, prog.Base)
	eng := sim.NewEngine()
	var haltAt sim.Time
	sim.Go(eng, "hart0", func(p *sim.Process) {
		core.Run(p, 100_000)
		haltAt = p.Now()
	})
	eng.Schedule(500, func() { core.SetIRQ(0, true) })
	eng.Run()
	if !core.Halted() || core.HaltCode() != 55 {
		t.Fatalf("WFI path wrong: pc=%#x a0=%#x halted=%v", core.PC, core.X[10], core.Halted())
	}
	if haltAt < 500 {
		t.Fatalf("core halted at %d, before the interrupt at 500", haltAt)
	}
}

func TestMMIOStoreOrder(t *testing.T) {
	_, fm := runWith(t, `
		li t0, 0x40000000
		li t1, 72
		sd t1, 0(t0)
		li t1, 105
		sd t1, 0(t0)
		ebreak
	`, func(m *flatMem) { m.mmioAddr = 0x40000000 })
	if len(fm.mmioLog) != 2 || fm.mmioLog[0] != 72 || fm.mmioLog[1] != 105 {
		t.Fatalf("mmio log = %v", fm.mmioLog)
	}
}

func TestTimingChargesCycles(t *testing.T) {
	prog := rvasm.MustAssemble(0x1000, `
		li t0, 100
	loop:	addi t0, t0, -1
		bnez t0, loop
		ebreak
	`)
	fm := &flatMem{b: mem.NewBacking()}
	fm.b.WriteBytes(prog.Base, prog.Bytes)
	core := New(fm, 0, prog.Base)
	eng := sim.NewEngine()
	sim.Go(eng, "hart0", func(p *sim.Process) { core.Run(p, 10_000) })
	end := eng.Run()
	// ~200 instructions, each 1 cycle, plus 2-cycle penalty per taken
	// branch (~100): at least 300 cycles, below 1000.
	if end < 300 || end > 1000 {
		t.Fatalf("loop took %d cycles for %d instructions", end, core.InstRet())
	}
}

func TestStringsAndData(t *testing.T) {
	_, fm := run(t, `
		j start
	msg:	.asciz "Hi"
		.align 2
	start:	la t0, msg
		lbu a0, 0(t0)
		ebreak
	`)
	_ = fm
}

func TestAssemblerErrors(t *testing.T) {
	cases := []string{
		"bogus a0, a1",
		"addi a0, a0",       // missing operand
		"lw a0, nope",       // bad memory operand
		"addi a0, a0, 5000", // immediate out of range
		"dup: nop\ndup: nop",
	}
	for _, src := range cases {
		if _, err := rvasm.Assemble(0x1000, src); err == nil {
			t.Errorf("assembling %q succeeded, want error", src)
		}
	}
}

func TestAssemblerForwardReferences(t *testing.T) {
	expectA0(t, 5, `
		la t0, data
		ld a0, 0(t0)
		ebreak
	.align 3
	data:	.dword 5
	`)
}

// Retiring an ALU instruction allocates nothing: the fallthrough PC a trap
// may redirect is a field of the core, not a local whose address escapes.
// The pipeline's batched Wait runs inside the count too (every 32 cycles).
func TestStepALUZeroAlloc(t *testing.T) {
	prog, err := rvasm.Assemble(0x1000, "addi x5, x5, 1")
	if err != nil {
		t.Fatal(err)
	}
	fm := &flatMem{b: mem.NewBacking()}
	fm.b.WriteBytes(prog.Base, prog.Bytes)
	core := New(fm, 0, prog.Base)
	step := func(p *sim.Process) {
		core.PC = prog.Base
		core.Step(p)
	}
	var allocs float64
	eng := sim.NewEngine()
	sim.Go(eng, "hart0", func(p *sim.Process) {
		for i := 0; i < 100; i++ {
			step(p)
		}
		allocs = testing.AllocsPerRun(1000, func() { step(p) })
	})
	eng.Run()
	if core.X[5] != 1101 || core.InstRet() != 1101 {
		t.Fatalf("x5 = %d after %d instructions, want 1101 of each", core.X[5], core.InstRet())
	}
	if allocs != 0 {
		t.Errorf("Step of an ALU instruction allocates %.2f/op, want 0", allocs)
	}
}

// TestStepAMOZeroAlloc: an AMO reaches memory as an opcode and an operand,
// so retiring one allocates nothing either.
func TestStepAMOZeroAlloc(t *testing.T) {
	prog, err := rvasm.Assemble(0x1000, "amoadd.d x5, x6, (x7)")
	if err != nil {
		t.Fatal(err)
	}
	fm := &flatMem{b: mem.NewBacking()}
	fm.b.WriteBytes(prog.Base, prog.Bytes)
	core := New(fm, 0, prog.Base)
	core.X[6], core.X[7] = 3, 0x8000
	step := func(p *sim.Process) {
		core.PC = prog.Base
		core.Step(p)
	}
	var allocs float64
	eng := sim.NewEngine()
	sim.Go(eng, "hart0", func(p *sim.Process) {
		for i := 0; i < 100; i++ {
			step(p)
		}
		allocs = testing.AllocsPerRun(1000, func() { step(p) })
	})
	eng.Run()
	if got := fm.b.ReadU64(0x8000); got != 3*1101 || core.X[5] != 3*1100 {
		t.Fatalf("memory %d, x5 %d after 1101 amoadd.d of 3; want %d, %d", got, core.X[5], 3*1101, 3*1100)
	}
	if allocs != 0 {
		t.Errorf("Step of an AMO allocates %.2f/op, want 0", allocs)
	}
}
