package rvasm

import (
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func words(t *testing.T, src string) []uint32 {
	t.Helper()
	p, err := Assemble(0x1000, src)
	if err != nil {
		t.Fatalf("assemble %q: %v", src, err)
	}
	if len(p.Bytes)%4 != 0 {
		t.Fatalf("odd byte count %d", len(p.Bytes))
	}
	out := make([]uint32, len(p.Bytes)/4)
	for i := range out {
		out[i] = uint32(p.Bytes[4*i]) | uint32(p.Bytes[4*i+1])<<8 |
			uint32(p.Bytes[4*i+2])<<16 | uint32(p.Bytes[4*i+3])<<24
	}
	return out
}

// TestEncodingsMatchSpec pins one encoding per table entry and per pseudo,
// assembled at 0x1000. The words were recorded from the assembler before
// the table replaced its per-format maps; fence.i alone changed, from plain
// fence to funct3 = 1.
func TestEncodingsMatchSpec(t *testing.T) {
	// Golden encodings cross-checked against the RISC-V ISA manual.
	cases := map[string]uint32{
		"addi x1, x2, 5":         0x00510093,
		"add x3, x4, x5":         0x005201B3,
		"sub x3, x4, x5":         0x405201B3,
		"lui x1, 0x12345":        0x123450B7,
		"ld x6, 8(x7)":           0x0083B303,
		"sd x6, 16(x7)":          0x0063B823,
		"mul x1, x2, x3":         0x023100B3,
		"slli x1, x1, 12":        0x00C09093,
		"srai x1, x1, 3":         0x4030D093,
		"amoadd.d x5, x6, (x7)":  0x0063B2AF,
		"lr.d x5, (x7)":          0x1003B2AF,
		"add a0, a1, a2":         0x00C58533,
		"sub a0, a1, a2":         0x40C58533,
		"sll a0, a1, a2":         0x00C59533,
		"slt a0, a1, a2":         0x00C5A533,
		"sltu a0, a1, a2":        0x00C5B533,
		"xor a0, a1, a2":         0x00C5C533,
		"srl a0, a1, a2":         0x00C5D533,
		"sra a0, a1, a2":         0x40C5D533,
		"or a0, a1, a2":          0x00C5E533,
		"and a0, a1, a2":         0x00C5F533,
		"addw a0, a1, a2":        0x00C5853B,
		"subw a0, a1, a2":        0x40C5853B,
		"sllw a0, a1, a2":        0x00C5953B,
		"srlw a0, a1, a2":        0x00C5D53B,
		"sraw a0, a1, a2":        0x40C5D53B,
		"mul a0, a1, a2":         0x02C58533,
		"mulh a0, a1, a2":        0x02C59533,
		"mulhsu a0, a1, a2":      0x02C5A533,
		"mulhu a0, a1, a2":       0x02C5B533,
		"div a0, a1, a2":         0x02C5C533,
		"divu a0, a1, a2":        0x02C5D533,
		"rem a0, a1, a2":         0x02C5E533,
		"remu a0, a1, a2":        0x02C5F533,
		"mulw a0, a1, a2":        0x02C5853B,
		"divw a0, a1, a2":        0x02C5C53B,
		"divuw a0, a1, a2":       0x02C5D53B,
		"remw a0, a1, a2":        0x02C5E53B,
		"remuw a0, a1, a2":       0x02C5F53B,
		"addi a0, a1, -7":        0xFF958513,
		"slti a0, a1, -7":        0xFF95A513,
		"sltiu a0, a1, 2047":     0x7FF5B513,
		"xori a0, a1, -2048":     0x8005C513,
		"ori a0, a1, 0x7F0":      0x7F05E513,
		"andi a0, a1, 255":       0x0FF5F513,
		"addiw a0, a1, -1":       0xFFF5851B,
		"jalr ra, t0, 16":        0x010280E7,
		"slli a0, a1, 33":        0x02159513,
		"srli a0, a1, 63":        0x03F5D513,
		"srai a0, a1, 1":         0x4015D513,
		"slliw a0, a1, 31":       0x01F5951B,
		"srliw a0, a1, 17":       0x0115D51B,
		"sraiw a0, a1, 5":        0x4055D51B,
		"lb a0, -1(sp)":          0xFFF10503,
		"lh a0, 2(sp)":           0x00211503,
		"lw a0, -2048(sp)":       0x80012503,
		"ld a0, 2047(sp)":        0x7FF13503,
		"lbu a0, 0(gp)":          0x0001C503,
		"lhu a0, 6(tp)":          0x00625503,
		"lwu a0, 12(s0)":         0x00C46503,
		"sb a1, -1(sp)":          0xFEB10FA3,
		"sh a1, 2(sp)":           0x00B11123,
		"sw a1, -2048(sp)":       0x80B12023,
		"sd a1, 2047(sp)":        0x7EB13FA3,
		"beq a0, a1, 0x800":      0x80B500E3,
		"bne a0, a1, 0x1FFE":     0x7EB51FE3,
		"blt a0, a1, 0x1004":     0x00B54263,
		"bge a0, a1, 0x0":        0x80B55063,
		"bltu a0, a1, 0x1800":    0x00B560E3,
		"bgeu a0, a1, 0x1000":    0x00B57063,
		"lui a0, 0xABCDE":        0xABCDE537,
		"auipc a0, 0x12345":      0x12345517,
		"jal ra, 0x1800":         0x001000EF,
		"jal zero, 0x0":          0x800FF06F,
		"amoswap.w a0, a1, (a2)": 0x08B6252F,
		"amoadd.w a0, a1, (a2)":  0x00B6252F,
		"amoxor.w a0, a1, (a2)":  0x20B6252F,
		"amoand.w a0, a1, (a2)":  0x60B6252F,
		"amoor.w a0, a1, (a2)":   0x40B6252F,
		"amomin.w a0, a1, (a2)":  0x80B6252F,
		"amomax.w a0, a1, (a2)":  0xA0B6252F,
		"amominu.w a0, a1, (a2)": 0xC0B6252F,
		"amomaxu.w a0, a1, (a2)": 0xE0B6252F,
		"amoswap.d a0, a1, (a2)": 0x08B6352F,
		"amoadd.d a0, a1, (a2)":  0x00B6352F,
		"amoxor.d a0, a1, (a2)":  0x20B6352F,
		"amoand.d a0, a1, (a2)":  0x60B6352F,
		"amoor.d a0, a1, (a2)":   0x40B6352F,
		"amomin.d a0, a1, (a2)":  0x80B6352F,
		"amomax.d a0, a1, (a2)":  0xA0B6352F,
		"amominu.d a0, a1, (a2)": 0xC0B6352F,
		"amomaxu.d a0, a1, (a2)": 0xE0B6352F,
		"lr.w a0, (a1)":          0x1005A52F,
		"lr.d a0, (a1)":          0x1005B52F,
		"sc.w a0, a1, (a2)":      0x18B6252F,
		"sc.d a0, a1, (a2)":      0x18B6352F,
		"csrrw a0, mscratch, a1": 0x34059573,
		"csrrs a0, mip, a1":      0x3445A573,
		"csrrc a0, 0x7C0, a1":    0x7C05B573,
		"ecall":                  0x00000073,
		"ebreak":                 0x00100073,
		"mret":                   0x30200073,
		"wfi":                    0x10500073,
		"fence":                  0x0000000F,
		"fence.i":                0x0000100F, // fence; funct3 = 1
		"nop":                    0x00000013,
		"mv a0, a1":              0x00058513,
		"not a0, a1":             0xFFF5C513,
		"neg a0, a1":             0x40B00533,
		"jr t0":                  0x00028067,
		"ret":                    0x00008067,
		"beqz a0, 0x800":         0x800500E3,
		"bnez a0, 0x1008":        0x00051463,
		"bgez a0, 0x1010":        0x00055863,
		"bltz a0, 0xFF0":         0xFE0548E3,
		"ble a0, a1, 0x1020":     0x02A5D063,
		"bgt a0, a1, 0x0":        0x80A5C063,
		"csrr a0, mhartid":       0xF1402573,
		"csrw mtvec, a0":         0x30551073,
		"csrs mie, a0":           0x30452073,
		"csrc mstatus, a0":       0x30053073,
		"j 0x1000":               0x0000006F,
		"jal 0x2000":             0x000010EF,
		"call 0x800":             0x801FF0EF,
		"li a0, -42":             0xFD600513,
	}
	covered := map[string]bool{}
	for src, want := range cases {
		covered[strings.Fields(src)[0]] = true
		if got := words(t, src); len(got) != 1 || got[0] != want {
			t.Errorf("%s = %#08x, want %#08x", src, got, want)
		}
	}
	for _, e := range insns {
		if !covered[e.name] {
			t.Errorf("table entry %s has no pinned encoding", e.name)
		}
	}
	for p := range pseudos {
		if !covered[p] {
			t.Errorf("pseudo %s has no pinned encoding", p)
		}
	}
}

// TestTableIsDisjoint: every entry's match lies inside its mask, and no
// word matches two entries, so Disassemble's first match is the only one.
func TestTableIsDisjoint(t *testing.T) {
	for i, a := range insns {
		if a.match&^a.mask != 0 {
			t.Errorf("%s: match %#08x has bits outside mask %#08x", a.name, a.match, a.mask)
		}
		for _, b := range insns[i+1:] {
			if (a.match^b.match)&a.mask&b.mask == 0 {
				t.Errorf("%s and %s match the same words", a.name, b.name)
			}
		}
	}
}

func TestBranchOffsets(t *testing.T) {
	w := words(t, `
	top:	nop
		beq x1, x2, top
	`)
	// beq at 0x1004 targeting 0x1000: offset -4.
	// imm[12|10:5]=1111111 rs2=00010 rs1=00001 f3=000 imm[4:1|11]=11101 op=1100011
	if w[1] != 0xFE208EE3 {
		t.Fatalf("backward beq = %#08x, want 0xFE208EE3", w[1])
	}
}

func TestJalEncoding(t *testing.T) {
	w := words(t, `
		jal x1, next
		nop
	next:	nop
	`)
	// jal at 0x1000 to 0x1008: offset +8.
	if w[0] != 0x008000EF {
		t.Fatalf("jal = %#08x, want 0x008000EF", w[0])
	}
}

func TestRegisterNamesEquivalence(t *testing.T) {
	a := words(t, "add ra, sp, gp")
	b := words(t, "add x1, x2, x3")
	if a[0] != b[0] {
		t.Fatalf("ABI names encode differently: %#x vs %#x", a[0], b[0])
	}
	if words(t, "mv s0, a0")[0] != words(t, "mv fp, a0")[0] {
		t.Fatal("fp alias broken")
	}
}

func TestPseudoExpansions(t *testing.T) {
	if w := words(t, "nop"); w[0] != 0x00000013 {
		t.Fatalf("nop = %#08x", w[0])
	}
	if w := words(t, "ret"); w[0] != 0x00008067 {
		t.Fatalf("ret = %#08x", w[0])
	}
	// li small = addi.
	if w := words(t, "li a0, 42"); len(w) != 1 || w[0] != 0x02A00513 {
		t.Fatalf("li small = %v", w)
	}
	// li 32-bit = lui + addiw.
	if w := words(t, "li a0, 0x12345678"); len(w) != 2 {
		t.Fatalf("li 32-bit expanded to %d words", len(w))
	}
}

func TestLabelArithmeticForbidden(t *testing.T) {
	if _, err := Assemble(0x1000, "la a0, foo+4\nfoo: nop"); err == nil {
		t.Fatal("label arithmetic should be rejected")
	}
}

func TestSymbolLoadFixedLength(t *testing.T) {
	// la of a forward symbol always occupies 8 words so pass-1 sizes hold.
	p := MustAssemble(0x1000, `
		la a0, target
	mark:	nop
	target:	nop
	`)
	if p.Symbols["mark"] != 0x1000+8*4 {
		t.Fatalf("mark at %#x, want la to occupy exactly 8 words", p.Symbols["mark"])
	}
}

func TestDirectives(t *testing.T) {
	p := MustAssemble(0x1000, `
		.byte 1, 2, 3
		.align 2
		.word 0xAABBCCDD
		.dword 0x1122334455667788
		.space 4
		.asciz "ok"
	`)
	b := p.Bytes
	if b[0] != 1 || b[1] != 2 || b[2] != 3 || b[3] != 0 {
		t.Fatalf("byte/align wrong: %v", b[:4])
	}
	if b[4] != 0xDD || b[7] != 0xAA {
		t.Fatal(".word endianness wrong")
	}
	if b[8] != 0x88 || b[15] != 0x11 {
		t.Fatal(".dword endianness wrong")
	}
	if string(b[20:23]) != "ok\x00" {
		t.Fatalf(".asciz wrong: %q", b[20:23])
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	p := MustAssemble(0x1000, `
		# full-line comment
		nop   # trailing comment
		// C++-style comment

		nop
	`)
	if len(p.Bytes) != 8 {
		t.Fatalf("comments miscounted: %d bytes", len(p.Bytes))
	}
}

func TestEntryAndSymbols(t *testing.T) {
	p := MustAssemble(0x2000, `
	start:	nop
	loop:	j loop
	`)
	if p.Entry("start") != 0x2000 || p.Entry("loop") != 0x2004 {
		t.Fatalf("symbols: %v", p.Symbols)
	}
	if p.Entry("missing") != 0x2000 {
		t.Fatal("Entry of missing label should return base")
	}
}

func TestErrors(t *testing.T) {
	bad := []string{
		"unknowninsn a0, a1",
		"addi a0, nosuchreg, 1",
		".bogusdirective 1",
		"csrw nosuchcsr, a0",
		"lw a0, 4(nope)",
		"jal a0",               // jal with one operand must be a label
		"beq a0, a1, 99999999", // branch out of range (absolute target)
		".space -1",
		".align 64",
		".space 0x7FFFFFFF",
	}
	for _, src := range bad {
		if _, err := Assemble(0x1000, src); err == nil {
			t.Errorf("%q assembled without error", src)
		}
	}
	for _, src := range malformed {
		_, err := Assemble(0x1000, src)
		if err == nil {
			t.Errorf("%q assembled without error", src)
			continue
		}
		if name := strings.Fields(src)[0]; !strings.Contains(err.Error(), ": "+name+" ") {
			t.Errorf("%q: error %q does not name %s", src, err, name)
		}
	}
}

// malformed are statements with a missing, extra or out-of-range operand;
// each must be an error naming the mnemonic as written.
var malformed = []string{
	"not a0", "neg a0", "jr", "call", "csrr a0", "csrw mstatus",
	"slli a0, a1", "lui a0", "ble a0, a1", "csrrw a0, mstatus",
	"ret a0", "nop a0", "ecall a0", "fence rw, rw", "beqz a0",
	"ld a0, 4096(sp)", "sd a0, -3000(sp)", "slli a0, a0, 64",
	"slliw a0, a0, 40", "lui a0, 0x123456", "addi a0, a0, 2048",
	"amoadd.d a0, a1, 8(a2)", "j 0x1001", "bgt a0, a1, 0x3000",
}

// Property: assembling the same source twice is byte-identical, and every
// instruction line contributes a multiple of 4 bytes.
func TestAssembleDeterministic(t *testing.T) {
	srcs := []string{
		"nop\nadd a0, a1, a2\n",
		"li a0, 0x123456789\nret\n",
		"loop: addi a0, a0, -1\nbnez a0, loop\n",
	}
	f := func(pick uint8) bool {
		src := srcs[int(pick)%len(srcs)]
		a := MustAssemble(0x1000, src)
		b := MustAssemble(0x1000, src)
		if len(a.Bytes) != len(b.Bytes) || len(a.Bytes)%4 != 0 {
			return false
		}
		for i := range a.Bytes {
			if a.Bytes[i] != b.Bytes[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Round-trip property: assemble -> disassemble -> assemble reaches a fixed
// point for a broad sample of the supported instruction space.
func TestDisassembleRoundTrip(t *testing.T) {
	sources := []string{
		"addi a0, a1, -7",
		"add s0, s1, s2",
		"subw t0, t1, t2",
		"mul a0, a1, a2",
		"divu a3, a4, a5",
		"lui a0, 0x12345",
		"auipc t0, 0xFF",
		"ld a0, 40(sp)",
		"sb t1, -3(gp)",
		"slli a0, a0, 17",
		"sraiw a1, a1, 5",
		"beq a0, a1, 8", // forward branch offset within one insn
		"jalr ra, t0, 16",
		"amoadd.d t0, t1, (t2)",
		"amoswap.w a0, a1, (a2)",
		"lr.d s0, (s1)",
		"sc.w s2, s3, (s4)",
		"ecall",
		"ebreak",
		"mret",
		"wfi",
		"fence",
		"csrrw a0, mstatus, a1",
		"csrrs zero, mie, t0",
	}
	for _, src := range sources {
		// Branch/jump operands are absolute targets in assembler syntax but
		// print as offsets; assembling at base 0 makes the two coincide.
		p1, err := Assemble(0, src)
		if err != nil {
			t.Fatalf("assemble %q: %v", src, err)
		}
		w1 := uint32(p1.Bytes[0]) | uint32(p1.Bytes[1])<<8 | uint32(p1.Bytes[2])<<16 | uint32(p1.Bytes[3])<<24
		dis := Disassemble(w1)
		p2, err := Assemble(0, dis)
		if err != nil {
			t.Fatalf("reassemble %q (from %q): %v", dis, src, err)
		}
		w2 := uint32(p2.Bytes[0]) | uint32(p2.Bytes[1])<<8 | uint32(p2.Bytes[2])<<16 | uint32(p2.Bytes[3])<<24
		if w1 != w2 {
			t.Errorf("round trip diverged: %q -> %#08x -> %q -> %#08x", src, w1, dis, w2)
		}
	}
}

// Property: for every 32-bit word w, Disassemble(w) is either a .word
// directive or an instruction, and either way it assembles back to w.
// Random words seldom hit an entry, so each entry's free bits are also
// filled at random.
func TestDisassembleTotal(t *testing.T) {
	reassembles := func(w uint32) bool {
		s := Disassemble(w)
		p, err := Assemble(0, s)
		if err != nil || len(p.Bytes) != 4 {
			t.Errorf("%#08x -> %q does not reassemble: %v", w, s, err)
			return false
		}
		if got := binary.LittleEndian.Uint32(p.Bytes); got != w {
			t.Errorf("%#08x -> %q -> %#08x", w, s, got)
			return false
		}
		return true
	}
	if err := quick.Check(reassembles, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
	r := rand.New(rand.NewSource(1))
	for _, e := range insns {
		for range 200 {
			w := e.match | r.Uint32()&^e.mask
			if s := Disassemble(w); strings.Fields(s)[0] != e.name {
				t.Fatalf("%#08x matches %s but disassembles as %q", w, e.name, s)
			}
			if !reassembles(w) {
				return
			}
		}
	}
}

func TestDisassembleAllListing(t *testing.T) {
	p := MustAssemble(0x1000, "nop\naddi a0, a0, 1\nebreak\n")
	listing := DisassembleAll(p)
	for _, want := range []string{"00001000", "addi", "ebreak"} {
		if !containsStr(listing, want) {
			t.Errorf("listing missing %q:\n%s", want, listing)
		}
	}
}

func containsStr(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		func() bool {
			for i := 0; i+len(sub) <= len(s); i++ {
				if s[i:i+len(sub)] == sub {
					return true
				}
			}
			return false
		}())
}
