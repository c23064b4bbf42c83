package core

import (
	"fmt"
	"math/bits"
	"strings"
	"testing"

	"smappic/internal/rvasm"
)

// An Ariane tile runs the M extension's high multiplies, LR/SC and every
// AMO at both widths through the prototype's cache hierarchy, and each
// result matches host arithmetic. The program is straight-line, so the
// hart retires exactly its instruction count.
func TestAtomicsAndHighMultiplyOnAriane(t *testing.T) {
	const (
		data    = DRAMBase + 0x10_0000 // the AMOs' word and dword
		results = DRAMBase + 0x10_1000 // one dword per checked result
	)
	var a, b uint64 = 0x8000_0000_0000_0005, 0xFFFF_FFFF_8000_0003 // both negative as int64
	var src strings.Builder
	var want []uint64
	emit := func(format string, args ...any) { fmt.Fprintf(&src, "\t"+format+"\n", args...) }
	check := func(reg string, v uint64) {
		emit("sd %s, %d(s1)", reg, 8*len(want))
		want = append(want, v)
	}
	emit("li s0, %#x", data)
	emit("li s1, %#x", results)
	emit("li a1, %#x", a)
	emit("li a2, %#x", b)

	// The signed high halves follow from the unsigned one: reading a
	// negative operand as unsigned adds 2^64 times the other operand.
	hu, _ := bits.Mul64(a, b)
	emit("mulhu t0, a1, a2")
	check("t0", hu)
	emit("mulh t0, a1, a2")
	check("t0", hu-b-a)
	emit("mulhsu t0, a1, a2")
	check("t0", hu-b)

	sext32 := func(v uint64) uint64 { return uint64(int64(int32(v))) }
	for _, w := range []struct {
		suffix string
		size   int
	}{{"w", 4}, {"d", 8}} {
		mask, sext := ^uint64(0), func(v uint64) uint64 { return v }
		signed := func(v uint64) int64 { return int64(v) }
		if w.size == 4 {
			mask, sext = 0xFFFF_FFFF, sext32
			signed = func(v uint64) int64 { return int64(int32(v)) }
		}
		mem := a & mask
		emit("s%s a1, 0(s0)", w.suffix)
		for _, op := range []struct {
			name string
			f    func(old, b uint64) uint64
		}{
			{"amoswap", func(_, b uint64) uint64 { return b }},
			{"amoadd", func(o, b uint64) uint64 { return o + b }},
			{"amoxor", func(o, b uint64) uint64 { return o ^ b }},
			{"amoand", func(o, b uint64) uint64 { return o & b }},
			{"amoor", func(o, b uint64) uint64 { return o | b }},
			{"amomin", func(o, b uint64) uint64 { return pick(signed(o) <= signed(b), o, b) }},
			{"amomax", func(o, b uint64) uint64 { return pick(signed(o) >= signed(b), o, b) }},
			{"amominu", func(o, b uint64) uint64 { return pick(o&mask <= b&mask, o, b) }},
			{"amomaxu", func(o, b uint64) uint64 { return pick(o&mask >= b&mask, o, b) }},
		} {
			// Alternate the operand so min and max see both orders.
			operand, reg := b, "a2"
			if len(want)%2 == 0 {
				operand, reg = a^0x1234_5678, "a3"
				emit("li a3, %#x", operand)
			}
			emit("%s.%s t0, %s, (s0)", op.name, w.suffix, reg)
			check("t0", sext(mem))
			mem = op.f(mem, operand) & mask
		}
		emit("l%s t0, 0(s0)", w.suffix)
		check("t0", sext(mem))

		// LR/SC: a store-conditional succeeds under its reservation and
		// fails once the first one has consumed it.
		emit("lr.%s t0, (s0)", w.suffix)
		emit("addi t0, t0, 1")
		emit("sc.%s t1, t0, (s0)", w.suffix)
		check("t1", 0)
		emit("sc.%s t1, t0, (s0)", w.suffix)
		check("t1", 1)
		emit("l%s t0, 0(s0)", w.suffix)
		check("t0", sext(sext(mem)+1))
	}
	emit("ebreak")

	cfg := DefaultConfig(1, 1, 1)
	p := buildQuiet(t, cfg)
	prog, err := rvasm.Assemble(ResetPC, src.String())
	if err != nil {
		t.Fatalf("assemble: %v\n%s", err, src.String())
	}
	p.Host().LoadProgram(0, prog)
	p.Start()
	p.RunUntilHalted(5_000_000)
	c := p.Nodes[0].Tiles[0].Core
	if !c.Halted() {
		t.Fatalf("program did not halt: pc=%#x", c.PC)
	}
	for i, v := range want {
		if got := p.ReadPhys(results+uint64(8*i), 8); got != v {
			t.Errorf("result %d = %#x, want %#x", i, got, v)
		}
	}
	if n := uint64(len(prog.Bytes) / 4); c.InstRet() != n {
		t.Errorf("retired %d instructions, want the program's %d", c.InstRet(), n)
	}
}

func pick(first bool, a, b uint64) uint64 {
	if first {
		return a
	}
	return b
}
