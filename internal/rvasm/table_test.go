package rvasm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"smappic/internal/riscv"
	"smappic/internal/sim"
)

// flatMem is a timing-free riscv.Mem over the first 64 KiB of memory.
type flatMem []byte

func (m flatMem) Fetch(p *sim.Process, addr uint64) uint32 {
	return uint32(m.Load(p, addr, 4))
}

func (m flatMem) Load(_ *sim.Process, addr uint64, size int) uint64 {
	var b [8]byte
	copy(b[:size], m[addr:])
	return binary.LittleEndian.Uint64(b[:])
}

func (m flatMem) Store(_ *sim.Process, addr uint64, size int, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	copy(m[addr:addr+uint64(size)], b[:size])
}

func (m flatMem) Amo(p *sim.Process, addr uint64, size int, op riscv.AmoOp, operand uint64) uint64 {
	old := m.Load(p, addr, size)
	m.Store(p, addr, size, op.Apply(old, operand, size))
	return old
}

// entryHarness runs one instruction behind a trap handler. Before it, t0
// holds the address after it (a jalr target, and mepc for mret), t2 a data
// address and mie every bit, so that wfi with a raised wire falls through.
// The program halts with a0 = -1 if the instruction retired, or with
// mcause if it trapped.
const entryHarness = `
	la t0, handler
	csrw mtvec, t0
	la t0, after
	csrw mepc, t0
	li t4, -1
	csrw mie, t4
	la t2, data
	li a0, -1
	%s
after:
	ebreak
handler:
	csrr a0, mcause
	ebreak
	.align 3
data:
	.dword 0
`

// TestEveryEntryExecutes cross-checks the table against the interpreter's
// independent decoder: every entry, assembled with fixed operands, executes
// on riscv.Core without an illegal-instruction trap (mcause 2). Only ecall
// traps, with its own cause.
func TestEveryEntryExecutes(t *testing.T) {
	operand := map[byte]string{
		'd': "t1", 's': "t2", 't': "t3", 'j': "0", 'o': "0", '>': "1", '<': "1",
		'u': "1", 'p': "after", 'a': "after", 'E': "mscratch", '0': "",
	}
	for _, e := range insns {
		var ops []string
		for _, slot := range splitArgs(e.args) {
			switch {
			case len(slot) > 1:
				ops = append(ops, operand[slot[0]]+"(t2)")
			case e.name == "jalr" && slot == "s":
				ops = append(ops, "t0")
			default:
				ops = append(ops, operand[slot[0]])
			}
		}
		src := strings.TrimSpace(e.name + " " + strings.Join(ops, ", "))
		prog, err := Assemble(0x1000, fmt.Sprintf(entryHarness, src))
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		m := make(flatMem, 64<<10)
		copy(m[prog.Base:], prog.Bytes)
		core := riscv.New(m, 0, prog.Base)
		core.SetIRQ(1, true)
		eng := sim.NewEngine()
		sim.Go(eng, "hart0", func(p *sim.Process) { core.Run(p, 1000) })
		eng.Run()
		want := ^uint64(0)
		if e.name == "ecall" {
			want = 11
		}
		if !core.Halted() || core.HaltCode() != want {
			t.Errorf("%s: halted %v with a0 = %#x, want %#x", src, core.Halted(), core.HaltCode(), want)
		}
	}
}

// FuzzAssemble: no input makes Assemble panic, and a program it accepts
// assembles the same way twice. Without .byte, .asciz or .space, which
// emit single bytes, every statement emits whole words, so the program is
// a multiple of 4 bytes long. The seed corpus is the repository's programs
// (testdata/fuzz/FuzzAssemble) and the malformed statements of TestErrors.
func FuzzAssemble(f *testing.F) {
	for _, src := range malformed {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Assemble(0x1000, src)
		if err != nil {
			return
		}
		again, err := Assemble(0x1000, src)
		if err != nil || !bytes.Equal(p.Bytes, again.Bytes) || fmt.Sprint(p.Symbols) != fmt.Sprint(again.Symbols) {
			t.Fatalf("assembling twice differs: %v", err)
		}
		lower := strings.ToLower(src)
		bytewise := strings.Contains(lower, ".byte") || strings.Contains(lower, ".asciz") || strings.Contains(lower, ".space")
		if !bytewise && len(p.Bytes)%4 != 0 {
			t.Fatalf("%d bytes, not a multiple of 4", len(p.Bytes))
		}
	})
}
