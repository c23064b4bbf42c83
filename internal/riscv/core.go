// Package riscv implements a functional RV64IMA+Zicsr machine-mode core:
// the stand-in for the Ariane cores SMAPPIC instantiates in its tiles. The
// interpreter is exact at the architectural level (registers, CSRs, traps,
// atomics); timing comes from a simple in-order single-issue model matching
// Ariane's 6-stage pipeline (base CPI 1, multi-cycle mul/div, pipeline
// flush on taken control flow) plus whatever the memory system charges.
package riscv

import (
	"fmt"

	"smappic/internal/sim"
)

// Mem is the core's port into the memory system. Implementations charge
// simulated time on the calling process (the TRI + BPC path for cacheable
// addresses, the chipset MMIO path for device addresses) and move
// functional data.
type Mem interface {
	Fetch(p *sim.Process, addr uint64) uint32
	Load(p *sim.Process, addr uint64, size int) uint64
	Store(p *sim.Process, addr uint64, size int, v uint64)
	// Amo atomically replaces the value at addr with op.Apply(old,
	// operand, size) and returns the old value. The callee guarantees
	// exclusivity.
	Amo(p *sim.Process, addr uint64, size int, op AmoOp, operand uint64) uint64
}

// AmoOp is an AMO's funct5 field: the read-modify-write it performs.
type AmoOp uint32

const (
	AmoAdd  AmoOp = 0x00
	AmoSwap AmoOp = 0x01
	AmoXor  AmoOp = 0x04
	AmoOr   AmoOp = 0x08
	AmoAnd  AmoOp = 0x0C
	AmoMin  AmoOp = 0x10
	AmoMax  AmoOp = 0x14
	AmoMinU AmoOp = 0x18
	AmoMaxU AmoOp = 0x1C
)

// Apply returns the value op stores over old, for a size-byte (4 or 8)
// operand.
func (op AmoOp) Apply(old, operand uint64, size int) uint64 {
	switch op {
	case AmoSwap:
		return operand
	case AmoAdd:
		return old + operand
	case AmoXor:
		return old ^ operand
	case AmoAnd:
		return old & operand
	case AmoOr:
		return old | operand
	case AmoMin:
		if cmpSigned(old, operand, size) <= 0 {
			return old
		}
	case AmoMax:
		if cmpSigned(old, operand, size) >= 0 {
			return old
		}
	case AmoMinU:
		if trunc(old, size) <= trunc(operand, size) {
			return old
		}
	case AmoMaxU:
		if trunc(old, size) >= trunc(operand, size) {
			return old
		}
	default:
		panic(fmt.Sprintf("riscv: AMO funct5 %#x", uint32(op)))
	}
	return operand
}

// Machine-mode CSR numbers (the subset a bare-metal OS needs).
const (
	csrMStatus  = 0x300
	csrMISA     = 0x301
	csrMIE      = 0x304
	csrMTVec    = 0x305
	csrMScratch = 0x340
	csrMEPC     = 0x341
	csrMCause   = 0x342
	csrMTVal    = 0x343
	csrMIP      = 0x344
	csrMCycle   = 0xB00
	csrMInstRet = 0xB02
	csrMHartID  = 0xF14
	csrTime     = 0xC01
)

// mip/mie bit positions of the interrupts a wire drives.
const (
	bitMSI = 3
	bitMTI = 7
)

// mstatus bits.
const (
	mstatusMIE  = 1 << 3
	mstatusMPIE = 1 << 7
)

// Trap causes.
const (
	causeMisalignedFetch = 0
	causeIllegalInst     = 2
	causeECallM          = 11
	causeIntSoftware     = uint64(1)<<63 | 3
	causeIntTimer        = uint64(1)<<63 | 7
)

// Profile is a core timing model: the functional ISA is shared, the
// pipeline costs differ per integrated core (BYOC's core diversity).
type Profile struct {
	Name          string
	BaseCPI       sim.Time // cycles per simple instruction
	BranchPenalty sim.Time // extra cycles on taken control flow
	MulCycles     sim.Time // extra cycles per multiply
	DivCycles     sim.Time // extra cycles per divide
}

// Ariane is the 6-stage in-order application core (the default tile).
var Ariane = Profile{Name: "ariane", BaseCPI: 1, BranchPenalty: 2, MulCycles: 1, DivCycles: 10}

// PicoRV32 is the small multi-cycle microcontroller core BYOC also
// integrates: ~4 cycles per instruction, no speculation to flush, slow
// serial multiply/divide.
var PicoRV32 = Profile{Name: "picorv32", BaseCPI: 4, BranchPenalty: 0, MulCycles: 32, DivCycles: 32}

// Core is one hart.
type Core struct {
	mem     Mem
	hartID  int
	profile Profile

	X  [32]uint64
	PC uint64

	mstatus  uint64
	mie      uint64
	mip      uint64
	mtvec    uint64
	mepc     uint64
	mcause   uint64
	mtval    uint64
	mscratch uint64
	instret  uint64

	// LR/SC reservation.
	resValid bool
	resAddr  uint64

	halted   bool
	haltCode uint64
	wfi      bool
	wakeWFI  func()

	// Timing model.
	pendingCycles sim.Time

	// next is the in-flight instruction's fallthrough PC. nextPtr points at
	// it while exec runs, so traps raised mid-instruction can redirect it;
	// it is a field, not a local, so taking its address allocates nothing.
	next    uint64
	nextPtr *uint64
}

// New creates an Ariane-profile core with reset PC.
func New(mem Mem, hartID int, resetPC uint64) *Core {
	return NewWithProfile(mem, hartID, resetPC, Ariane)
}

// NewWithProfile creates a core with an explicit timing profile.
func NewWithProfile(mem Mem, hartID int, resetPC uint64, prof Profile) *Core {
	return &Core{mem: mem, hartID: hartID, PC: resetPC, profile: prof}
}

// Halted reports whether the core stopped (EBREAK or double fault).
func (c *Core) Halted() bool { return c.halted }

// HaltCode returns the value of register a0 at the halting EBREAK, the
// convention our bare-metal programs use for exit status.
func (c *Core) HaltCode() uint64 { return c.haltCode }

// InstRet returns the number of retired instructions.
func (c *Core) InstRet() uint64 { return c.instret }

// SetIRQ drives one of the core's interrupt wires (from the interrupt
// depacketizer). kind: 0 software, 1 timer; no device drives an external
// interrupt.
func (c *Core) SetIRQ(kind int, level bool) {
	var bit uint
	switch kind {
	case 0:
		bit = bitMSI
	case 1:
		bit = bitMTI
	default:
		panic(fmt.Sprintf("riscv: interrupt kind %d has no wire", kind))
	}
	if level {
		c.mip |= 1 << bit
	} else {
		c.mip &^= 1 << bit
	}
	if level && c.wfi && c.wakeWFI != nil {
		w := c.wakeWFI
		c.wakeWFI = nil
		c.wfi = false
		w()
	}
}

// Run executes instructions on the calling simulation process until the
// core halts or maxInstructions retire (0 = unlimited).
func (c *Core) Run(p *sim.Process, maxInstructions uint64) {
	for !c.halted {
		if maxInstructions > 0 && c.instret >= maxInstructions {
			return
		}
		c.Step(p)
	}
}

// flushTime charges accumulated pipeline cycles to the process. Timing is
// batched between memory operations to keep the event count low.
func (c *Core) flushTime(p *sim.Process) {
	if c.pendingCycles > 0 {
		p.Wait(c.pendingCycles)
		c.pendingCycles = 0
	}
}

// charge adds pipeline cycles, flushing in batches.
func (c *Core) charge(p *sim.Process, n sim.Time) {
	c.pendingCycles += n
	if c.pendingCycles >= 32 {
		c.flushTime(p)
	}
}

// pendingInterrupt returns the cause of the highest-priority enabled
// pending interrupt, or 0.
func (c *Core) pendingInterrupt() uint64 {
	if c.mstatus&mstatusMIE == 0 {
		return 0
	}
	pend := c.mip & c.mie
	switch {
	case pend&(1<<bitMSI) != 0:
		return causeIntSoftware
	case pend&(1<<bitMTI) != 0:
		return causeIntTimer
	}
	return 0
}

// trap enters machine trap handling.
func (c *Core) trap(cause, tval uint64) {
	if c.mtvec == 0 {
		// No handler installed: halt (keeps bare-metal tests honest).
		c.halted = true
		c.haltCode = 0xdead0000 | cause&0xFFFF
		return
	}
	c.mepc = c.PC
	c.mcause = cause
	c.mtval = tval
	// mstatus: MPIE <- MIE, MIE <- 0.
	if c.mstatus&mstatusMIE != 0 {
		c.mstatus |= mstatusMPIE
	} else {
		c.mstatus &^= mstatusMPIE
	}
	c.mstatus &^= mstatusMIE
	c.PC = c.mtvec &^ 3
	if c.nextPtr != nil {
		*c.nextPtr = c.PC
	}
}

// Step retires one instruction (or takes one trap).
func (c *Core) Step(p *sim.Process) {
	if c.halted {
		return
	}
	if cause := c.pendingInterrupt(); cause != 0 {
		c.flushTime(p)
		c.trap(cause, 0)
		return
	}
	if c.PC&1 != 0 {
		c.trap(causeMisalignedFetch, c.PC)
		return
	}
	c.flushTime(p)
	inst := c.mem.Fetch(p, c.PC)
	c.next = c.PC + 4
	c.nextPtr = &c.next
	c.exec(p, inst, &c.next)
	c.nextPtr = nil
	c.PC = c.next
	c.instret++
	c.charge(p, c.profile.BaseCPI)
}

func signExt(v uint64, bits uint) uint64 {
	shift := 64 - bits
	return uint64(int64(v<<shift) >> shift)
}

// exec decodes and executes one instruction. next holds the fallthrough PC
// and may be redirected by control flow.
func (c *Core) exec(p *sim.Process, inst uint32, next *uint64) {
	op := inst & 0x7F
	rd := int(inst >> 7 & 0x1F)
	rs1 := int(inst >> 15 & 0x1F)
	rs2 := int(inst >> 20 & 0x1F)
	f3 := inst >> 12 & 7
	f7 := inst >> 25

	setRD := func(v uint64) {
		if rd != 0 {
			c.X[rd] = v
		}
	}
	immI := signExt(uint64(inst>>20), 12)
	a := c.X[rs1]
	b := c.X[rs2]

	switch op {
	case 0x37: // LUI
		setRD(signExt(uint64(inst&0xFFFFF000), 32))
	case 0x17: // AUIPC
		setRD(c.PC + signExt(uint64(inst&0xFFFFF000), 32))
	case 0x6F: // JAL
		imm := signExt(uint64(inst>>31<<20|inst>>21&0x3FF<<1|inst>>20&1<<11|inst>>12&0xFF<<12), 21)
		setRD(c.PC + 4)
		*next = c.PC + imm
		c.pendingCycles += c.profile.BranchPenalty // pipeline flush
	case 0x67: // JALR
		t := (a + immI) &^ 1
		setRD(c.PC + 4)
		*next = t
		c.pendingCycles += c.profile.BranchPenalty
	case 0x63: // branches
		imm := signExt(uint64(inst>>31<<12|inst>>25&0x3F<<5|inst>>8&0xF<<1|inst>>7&1<<11), 13)
		var take bool
		switch f3 {
		case 0:
			take = a == b
		case 1:
			take = a != b
		case 4:
			take = int64(a) < int64(b)
		case 5:
			take = int64(a) >= int64(b)
		case 6:
			take = a < b
		case 7:
			take = a >= b
		default:
			c.trap(causeIllegalInst, uint64(inst))
			return
		}
		if take {
			*next = c.PC + imm
			c.pendingCycles += c.profile.BranchPenalty // mispredict/flush
		}
	case 0x03: // loads
		addr := a + immI
		c.flushTime(p)
		switch f3 {
		case 0:
			setRD(signExt(c.mem.Load(p, addr, 1), 8))
		case 1:
			setRD(signExt(c.mem.Load(p, addr, 2), 16))
		case 2:
			setRD(signExt(c.mem.Load(p, addr, 4), 32))
		case 3:
			setRD(c.mem.Load(p, addr, 8))
		case 4:
			setRD(c.mem.Load(p, addr, 1))
		case 5:
			setRD(c.mem.Load(p, addr, 2))
		case 6:
			setRD(c.mem.Load(p, addr, 4))
		default:
			c.trap(causeIllegalInst, uint64(inst))
		}
	case 0x23: // stores
		imm := signExt(uint64(inst>>25<<5|inst>>7&0x1F), 12)
		addr := a + imm
		c.flushTime(p)
		switch f3 {
		case 0:
			c.mem.Store(p, addr, 1, b)
		case 1:
			c.mem.Store(p, addr, 2, b)
		case 2:
			c.mem.Store(p, addr, 4, b)
		case 3:
			c.mem.Store(p, addr, 8, b)
		default:
			c.trap(causeIllegalInst, uint64(inst))
		}
		// A store conditional's reservation is cleared by any store.
		c.resValid = false
	case 0x13: // op-imm
		switch f3 {
		case 0:
			setRD(a + immI)
		case 2:
			if int64(a) < int64(immI) {
				setRD(1)
			} else {
				setRD(0)
			}
		case 3:
			if a < immI {
				setRD(1)
			} else {
				setRD(0)
			}
		case 4:
			setRD(a ^ immI)
		case 6:
			setRD(a | immI)
		case 7:
			setRD(a & immI)
		case 1:
			setRD(a << (inst >> 20 & 0x3F))
		case 5:
			sh := inst >> 20 & 0x3F
			if inst>>30&1 != 0 {
				setRD(uint64(int64(a) >> sh))
			} else {
				setRD(a >> sh)
			}
		}
	case 0x1B: // op-imm-32
		switch f3 {
		case 0:
			setRD(signExt(a+immI, 32))
		case 1:
			setRD(signExt(a<<(inst>>20&0x1F), 32))
		case 5:
			sh := inst >> 20 & 0x1F
			if inst>>30&1 != 0 {
				setRD(signExt(uint64(int32(a)>>sh), 32))
			} else {
				setRD(signExt(uint64(uint32(a)>>sh), 32))
			}
		default:
			c.trap(causeIllegalInst, uint64(inst))
		}
	case 0x33: // op
		if f7 == 1 {
			c.execM(p, f3, a, b, setRD, false)
			return
		}
		switch {
		case f3 == 0 && f7 == 0:
			setRD(a + b)
		case f3 == 0 && f7 == 0x20:
			setRD(a - b)
		case f3 == 1:
			setRD(a << (b & 0x3F))
		case f3 == 2:
			if int64(a) < int64(b) {
				setRD(1)
			} else {
				setRD(0)
			}
		case f3 == 3:
			if a < b {
				setRD(1)
			} else {
				setRD(0)
			}
		case f3 == 4:
			setRD(a ^ b)
		case f3 == 5 && f7 == 0:
			setRD(a >> (b & 0x3F))
		case f3 == 5 && f7 == 0x20:
			setRD(uint64(int64(a) >> (b & 0x3F)))
		case f3 == 6:
			setRD(a | b)
		case f3 == 7:
			setRD(a & b)
		default:
			c.trap(causeIllegalInst, uint64(inst))
		}
	case 0x3B: // op-32
		if f7 == 1 {
			c.execM(p, f3, a, b, setRD, true)
			return
		}
		switch {
		case f3 == 0 && f7 == 0:
			setRD(signExt(a+b, 32))
		case f3 == 0 && f7 == 0x20:
			setRD(signExt(a-b, 32))
		case f3 == 1:
			setRD(signExt(a<<(b&0x1F), 32))
		case f3 == 5 && f7 == 0:
			setRD(signExt(uint64(uint32(a)>>(b&0x1F)), 32))
		case f3 == 5 && f7 == 0x20:
			setRD(signExt(uint64(int32(a)>>(b&0x1F)), 32))
		default:
			c.trap(causeIllegalInst, uint64(inst))
		}
	case 0x0F: // FENCE / FENCE.I: ordering is implicit in the model
	case 0x2F: // AMO
		c.execA(p, inst, f3, a, b, setRD)
	case 0x73: // SYSTEM
		c.execSystem(p, inst, f3, rs1, a, setRD, next)
	default:
		c.trap(causeIllegalInst, uint64(inst))
	}
}

// execM handles the M extension. Division takes extra cycles, as on Ariane.
func (c *Core) execM(p *sim.Process, f3 uint32, a, b uint64, setRD func(uint64), w bool) {
	if w {
		a32, b32 := int32(a), int32(b)
		switch f3 {
		case 0:
			setRD(signExt(uint64(a32*b32), 32))
			c.pendingCycles += c.profile.MulCycles
		case 4:
			c.pendingCycles += c.profile.DivCycles
			if b32 == 0 {
				setRD(^uint64(0))
			} else if a32 == -1<<31 && b32 == -1 {
				setRD(signExt(uint64(uint32(a32)), 32))
			} else {
				setRD(signExt(uint64(uint32(a32/b32)), 32))
			}
		case 5:
			c.pendingCycles += c.profile.DivCycles
			if uint32(b) == 0 {
				setRD(^uint64(0))
			} else {
				setRD(signExt(uint64(uint32(a)/uint32(b)), 32))
			}
		case 6:
			c.pendingCycles += c.profile.DivCycles
			if b32 == 0 {
				setRD(signExt(uint64(uint32(a32)), 32))
			} else if a32 == -1<<31 && b32 == -1 {
				setRD(0)
			} else {
				setRD(signExt(uint64(uint32(a32%b32)), 32))
			}
		case 7:
			c.pendingCycles += c.profile.DivCycles
			if uint32(b) == 0 {
				setRD(signExt(uint64(uint32(a)), 32))
			} else {
				setRD(signExt(uint64(uint32(a)%uint32(b)), 32))
			}
		default:
			c.trap(causeIllegalInst, 0)
		}
		return
	}
	switch f3 {
	case 0:
		setRD(a * b)
		c.pendingCycles += c.profile.MulCycles
	case 1: // MULH
		setRD(mulh(int64(a), int64(b)))
		c.pendingCycles += c.profile.MulCycles
	case 2: // MULHSU
		setRD(mulhsu(int64(a), b))
		c.pendingCycles += c.profile.MulCycles
	case 3: // MULHU
		setRD(mulhu(a, b))
		c.pendingCycles += c.profile.MulCycles
	case 4:
		c.pendingCycles += c.profile.DivCycles
		if b == 0 {
			setRD(^uint64(0))
		} else if int64(a) == -1<<63 && int64(b) == -1 {
			setRD(a)
		} else {
			setRD(uint64(int64(a) / int64(b)))
		}
	case 5:
		c.pendingCycles += c.profile.DivCycles
		if b == 0 {
			setRD(^uint64(0))
		} else {
			setRD(a / b)
		}
	case 6:
		c.pendingCycles += c.profile.DivCycles
		if b == 0 {
			setRD(a)
		} else if int64(a) == -1<<63 && int64(b) == -1 {
			setRD(0)
		} else {
			setRD(uint64(int64(a) % int64(b)))
		}
	case 7:
		c.pendingCycles += c.profile.DivCycles
		if b == 0 {
			setRD(a)
		} else {
			setRD(a % b)
		}
	}
}

func mulhu(a, b uint64) uint64 {
	aLo, aHi := a&0xFFFFFFFF, a>>32
	bLo, bHi := b&0xFFFFFFFF, b>>32
	t := aLo*bLo>>32 + aHi*bLo
	lo, hi := t&0xFFFFFFFF, t>>32
	lo += aLo * bHi
	return aHi*bHi + hi + lo>>32
}

func mulh(a, b int64) uint64 {
	neg := (a < 0) != (b < 0)
	ua, ub := uint64(a), uint64(b)
	if a < 0 {
		ua = uint64(-a)
	}
	if b < 0 {
		ub = uint64(-b)
	}
	hi, lo := mulhu(ua, ub), ua*ub
	if neg {
		hi = ^hi
		if lo == 0 {
			hi++
		}
	}
	return hi
}

func mulhsu(a int64, b uint64) uint64 {
	if a >= 0 {
		return mulhu(uint64(a), b)
	}
	hi, lo := mulhu(uint64(-a), b), uint64(-a)*b
	hi = ^hi
	if lo == 0 {
		hi++
	}
	return hi
}

// execA handles the A extension (LR/SC and AMOs).
func (c *Core) execA(p *sim.Process, inst, f3 uint32, a, b uint64, setRD func(uint64)) {
	size := 4
	if f3 == 3 {
		size = 8
	} else if f3 != 2 {
		c.trap(causeIllegalInst, uint64(inst))
		return
	}
	sext := func(v uint64) uint64 {
		if size == 4 {
			return signExt(v, 32)
		}
		return v
	}
	c.flushTime(p)
	switch op := AmoOp(inst >> 27); op {
	case 0x02: // LR
		v := c.mem.Load(p, a, size)
		c.resValid = true
		c.resAddr = a
		setRD(sext(v))
	case 0x03: // SC
		if c.resValid && c.resAddr == a {
			c.mem.Store(p, a, size, b)
			setRD(0)
		} else {
			setRD(1)
		}
		c.resValid = false
	case AmoAdd, AmoSwap, AmoXor, AmoOr, AmoAnd, AmoMin, AmoMax, AmoMinU, AmoMaxU:
		setRD(sext(c.mem.Amo(p, a, size, op, b)))
	default:
		c.trap(causeIllegalInst, uint64(inst))
	}
}

func trunc(v uint64, size int) uint64 {
	if size == 4 {
		return v & 0xFFFFFFFF
	}
	return v
}

func cmpSigned(a, b uint64, size int) int {
	var x, y int64
	if size == 4 {
		x, y = int64(int32(a)), int64(int32(b))
	} else {
		x, y = int64(a), int64(b)
	}
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}

// execSystem handles ECALL/EBREAK/MRET/WFI and Zicsr.
func (c *Core) execSystem(p *sim.Process, inst uint32, f3 uint32, rs1 int, a uint64, setRD func(uint64), next *uint64) {
	if f3 == 0 {
		switch inst >> 20 {
		case 0: // ECALL: mepc records the ecall itself (c.PC is unchanged
			// while exec runs), and trap redirects next via nextPtr.
			c.trap(causeECallM, 0)
		case 1: // EBREAK: halt convention for bare-metal programs
			c.halted = true
			c.haltCode = c.X[10]
		case 0x302: // MRET
			*next = c.mepc
			if c.mstatus&mstatusMPIE != 0 {
				c.mstatus |= mstatusMIE
			} else {
				c.mstatus &^= mstatusMIE
			}
			c.mstatus |= mstatusMPIE
		case 0x105: // WFI: block until an interrupt wire rises
			if c.mip&c.mie == 0 {
				c.flushTime(p)
				c.wfi = true
				c.wakeWFI = p.Suspend()
				p.Park()
			}
		default:
			c.trap(causeIllegalInst, uint64(inst))
		}
		return
	}
	csr := inst >> 20
	var uimm uint64 = uint64(rs1)
	src := a
	if f3 >= 5 {
		src = uimm
	}
	old := c.readCSR(csr)
	switch f3 & 3 {
	case 1: // CSRRW
		c.writeCSR(csr, src)
	case 2: // CSRRS
		if rs1 != 0 {
			c.writeCSR(csr, old|src)
		}
	case 3: // CSRRC
		if rs1 != 0 {
			c.writeCSR(csr, old&^src)
		}
	}
	setRD(old)
}

func (c *Core) readCSR(csr uint32) uint64 {
	switch csr {
	case csrMStatus:
		return c.mstatus
	case csrMISA:
		return 2<<62 | 1<<8 | 1<<12 | 1<<0 // RV64IMA
	case csrMIE:
		return c.mie
	case csrMTVec:
		return c.mtvec
	case csrMScratch:
		return c.mscratch
	case csrMEPC:
		return c.mepc
	case csrMCause:
		return c.mcause
	case csrMTVal:
		return c.mtval
	case csrMIP:
		return c.mip
	case csrMCycle, csrTime:
		return c.instret // approximation: cycle counters read via CLINT mtime for real time
	case csrMInstRet:
		return c.instret
	case csrMHartID:
		return uint64(c.hartID)
	}
	return 0
}

func (c *Core) writeCSR(csr uint32, v uint64) {
	switch csr {
	case csrMStatus:
		c.mstatus = v & (mstatusMIE | mstatusMPIE)
	case csrMIE:
		c.mie = v
	case csrMTVec:
		c.mtvec = v
	case csrMScratch:
		c.mscratch = v
	case csrMEPC:
		c.mepc = v &^ 1
	case csrMCause:
		c.mcause = v
	case csrMTVal:
		c.mtval = v
	}
}
