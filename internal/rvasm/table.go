package rvasm

import "fmt"

// insn is one real RV64IMA instruction. A word w encodes it when
// w&mask == match. args spells its operands, one comma-separated slot per
// operand, with one letter per field the mask leaves free:
//
//	d, s, t  rd, rs1, rs2
//	j        12-bit signed immediate (I type; "j(s)" is a load's address)
//	o        12-bit signed store offset ("o(s)", S type)
//	>, <     6- and 5-bit shift amounts
//	u        20-bit upper immediate
//	p, a     branch and jump targets: absolute in source, pc-relative in
//	         the word, so a disassembled offset reassembles at address 0
//	E        CSR, by name or number
//	0        an AMO's offset, which must be zero and prints as nothing
//
// Assemble parses a statement slot by slot into these fields; Disassemble
// renders a word's fields through the same slots.
type insn struct {
	name        string
	args        string
	match, mask uint32
}

const (
	maskOpcode = 0x0000007F
	maskI      = 0x0000707F // opcode, funct3
	maskShift  = 0xFC00707F // opcode, funct3, imm[11:6]
	maskR      = 0xFE00707F // opcode, funct3, funct7 (an AMO's aq and rl are 0)
	maskLR     = 0xFFF0707F // maskR with rs2 = 0
	maskAll    = 0xFFFFFFFF
)

// insns is the instruction set: the assembler's mnemonics and the
// disassembler's decode table. No two entries match the same word.
var insns = []insn{
	{"lui", "d,u", 0x00000037, maskOpcode},
	{"auipc", "d,u", 0x00000017, maskOpcode},
	{"jal", "d,a", 0x0000006F, maskOpcode},
	{"jalr", "d,s,j", 0x00000067, maskI},
	{"beq", "s,t,p", 0x00000063, maskI},
	{"bne", "s,t,p", 0x00001063, maskI},
	{"blt", "s,t,p", 0x00004063, maskI},
	{"bge", "s,t,p", 0x00005063, maskI},
	{"bltu", "s,t,p", 0x00006063, maskI},
	{"bgeu", "s,t,p", 0x00007063, maskI},
	{"lb", "d,j(s)", 0x00000003, maskI},
	{"lh", "d,j(s)", 0x00001003, maskI},
	{"lw", "d,j(s)", 0x00002003, maskI},
	{"ld", "d,j(s)", 0x00003003, maskI},
	{"lbu", "d,j(s)", 0x00004003, maskI},
	{"lhu", "d,j(s)", 0x00005003, maskI},
	{"lwu", "d,j(s)", 0x00006003, maskI},
	{"sb", "t,o(s)", 0x00000023, maskI},
	{"sh", "t,o(s)", 0x00001023, maskI},
	{"sw", "t,o(s)", 0x00002023, maskI},
	{"sd", "t,o(s)", 0x00003023, maskI},
	{"addi", "d,s,j", 0x00000013, maskI},
	{"slti", "d,s,j", 0x00002013, maskI},
	{"sltiu", "d,s,j", 0x00003013, maskI},
	{"xori", "d,s,j", 0x00004013, maskI},
	{"ori", "d,s,j", 0x00006013, maskI},
	{"andi", "d,s,j", 0x00007013, maskI},
	{"addiw", "d,s,j", 0x0000001B, maskI},
	{"slli", "d,s,>", 0x00001013, maskShift},
	{"srli", "d,s,>", 0x00005013, maskShift},
	{"srai", "d,s,>", 0x40005013, maskShift},
	{"slliw", "d,s,<", 0x0000101B, maskR},
	{"srliw", "d,s,<", 0x0000501B, maskR},
	{"sraiw", "d,s,<", 0x4000501B, maskR},
	{"add", "d,s,t", 0x00000033, maskR},
	{"sub", "d,s,t", 0x40000033, maskR},
	{"sll", "d,s,t", 0x00001033, maskR},
	{"slt", "d,s,t", 0x00002033, maskR},
	{"sltu", "d,s,t", 0x00003033, maskR},
	{"xor", "d,s,t", 0x00004033, maskR},
	{"srl", "d,s,t", 0x00005033, maskR},
	{"sra", "d,s,t", 0x40005033, maskR},
	{"or", "d,s,t", 0x00006033, maskR},
	{"and", "d,s,t", 0x00007033, maskR},
	{"addw", "d,s,t", 0x0000003B, maskR},
	{"subw", "d,s,t", 0x4000003B, maskR},
	{"sllw", "d,s,t", 0x0000103B, maskR},
	{"srlw", "d,s,t", 0x0000503B, maskR},
	{"sraw", "d,s,t", 0x4000503B, maskR},
	{"mul", "d,s,t", 0x02000033, maskR},
	{"mulh", "d,s,t", 0x02001033, maskR},
	{"mulhsu", "d,s,t", 0x02002033, maskR},
	{"mulhu", "d,s,t", 0x02003033, maskR},
	{"div", "d,s,t", 0x02004033, maskR},
	{"divu", "d,s,t", 0x02005033, maskR},
	{"rem", "d,s,t", 0x02006033, maskR},
	{"remu", "d,s,t", 0x02007033, maskR},
	{"mulw", "d,s,t", 0x0200003B, maskR},
	{"divw", "d,s,t", 0x0200403B, maskR},
	{"divuw", "d,s,t", 0x0200503B, maskR},
	{"remw", "d,s,t", 0x0200603B, maskR},
	{"remuw", "d,s,t", 0x0200703B, maskR},
	{"lr.w", "d,0(s)", 0x1000202F, maskLR},
	{"sc.w", "d,t,0(s)", 0x1800202F, maskR},
	{"amoswap.w", "d,t,0(s)", 0x0800202F, maskR},
	{"amoadd.w", "d,t,0(s)", 0x0000202F, maskR},
	{"amoxor.w", "d,t,0(s)", 0x2000202F, maskR},
	{"amoand.w", "d,t,0(s)", 0x6000202F, maskR},
	{"amoor.w", "d,t,0(s)", 0x4000202F, maskR},
	{"amomin.w", "d,t,0(s)", 0x8000202F, maskR},
	{"amomax.w", "d,t,0(s)", 0xA000202F, maskR},
	{"amominu.w", "d,t,0(s)", 0xC000202F, maskR},
	{"amomaxu.w", "d,t,0(s)", 0xE000202F, maskR},
	{"lr.d", "d,0(s)", 0x1000302F, maskLR},
	{"sc.d", "d,t,0(s)", 0x1800302F, maskR},
	{"amoswap.d", "d,t,0(s)", 0x0800302F, maskR},
	{"amoadd.d", "d,t,0(s)", 0x0000302F, maskR},
	{"amoxor.d", "d,t,0(s)", 0x2000302F, maskR},
	{"amoand.d", "d,t,0(s)", 0x6000302F, maskR},
	{"amoor.d", "d,t,0(s)", 0x4000302F, maskR},
	{"amomin.d", "d,t,0(s)", 0x8000302F, maskR},
	{"amomax.d", "d,t,0(s)", 0xA000302F, maskR},
	{"amominu.d", "d,t,0(s)", 0xC000302F, maskR},
	{"amomaxu.d", "d,t,0(s)", 0xE000302F, maskR},
	{"csrrw", "d,E,s", 0x00001073, maskI},
	{"csrrs", "d,E,s", 0x00002073, maskI},
	{"csrrc", "d,E,s", 0x00003073, maskI},
	{"ecall", "", 0x00000073, maskAll},
	{"ebreak", "", 0x00100073, maskAll},
	{"mret", "", 0x30200073, maskAll},
	{"wfi", "", 0x10500073, maskAll},
	{"fence", "", 0x0000000F, maskAll},
	{"fence.i", "", 0x0000100F, maskAll},
}

// pseudos rewrites each pseudo-instruction into one real instruction; $n
// stands for the pseudo's operand n, counting from 0.
var pseudos = map[string]string{
	"nop":  "addi zero, zero, 0",
	"mv":   "addi $0, $1, 0",
	"not":  "xori $0, $1, -1",
	"neg":  "sub $0, zero, $1",
	"j":    "jal zero, $0",
	"call": "jal ra, $0",
	"jr":   "jalr zero, $0, 0",
	"ret":  "jalr zero, ra, 0",
	"beqz": "beq $0, zero, $1",
	"bnez": "bne $0, zero, $1",
	"bgez": "bge $0, zero, $1",
	"bltz": "blt $0, zero, $1",
	"ble":  "bge $1, $0, $2",
	"bgt":  "blt $1, $0, $2",
	"csrr": "csrrs $0, $1, zero",
	"csrw": "csrrw zero, $0, $1",
	"csrs": "csrrs zero, $0, $1",
	"csrc": "csrrc zero, $0, $1",
}

// regShift places the register letters' fields.
var regShift = map[byte]uint{'d': 7, 's': 15, 't': 20}

// piece says that imm[at+n-1:at] sits at w[pos+n-1:pos].
type piece struct{ at, pos, n uint }

// immField is how an immediate letter's value is scattered over a word.
type immField struct {
	signed bool
	pieces []piece
}

// imms maps each immediate letter of insn.args to its field.
var imms = map[byte]immField{
	'j': {true, []piece{{0, 20, 12}}},
	'o': {true, []piece{{0, 7, 5}, {5, 25, 7}}},
	'p': {true, []piece{{1, 8, 4}, {5, 25, 6}, {11, 7, 1}, {12, 31, 1}}},
	'a': {true, []piece{{1, 21, 10}, {11, 20, 1}, {12, 12, 8}, {20, 31, 1}}},
	'>': {false, []piece{{0, 20, 6}}},
	'<': {false, []piece{{0, 20, 5}}},
	'u': {false, []piece{{0, 12, 20}}},
	'E': {false, []piece{{0, 20, 12}}},
}

// put scatters v into the field's bits, dropping what does not fit.
func (f immField) put(v int64) uint32 {
	var w uint32
	for _, p := range f.pieces {
		w |= uint32(v>>p.at) & (1<<p.n - 1) << p.pos
	}
	return w
}

// get gathers the field's value back out of w; get(put(v)) == v exactly
// when v fits the field.
func (f immField) get(w uint32) int64 {
	var v uint64
	var top uint
	for _, p := range f.pieces {
		v |= uint64(w>>p.pos&(1<<p.n-1)) << p.at
		top = max(top, p.at+p.n)
	}
	if f.signed {
		return int64(v<<(64-top)) >> (64 - top)
	}
	return int64(v)
}

// abiNames are the integer registers' ABI names, by number.
var abiNames = [32]string{
	"zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2",
	"s0", "s1", "a0", "a1", "a2", "a3", "a4", "a5",
	"a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7",
	"s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6",
}

var csrNames = map[string]uint32{
	"mstatus": 0x300, "misa": 0x301, "mie": 0x304, "mtvec": 0x305,
	"mscratch": 0x340, "mepc": 0x341, "mcause": 0x342, "mtval": 0x343,
	"mip": 0x344, "mcycle": 0xB00, "minstret": 0xB02, "mhartid": 0xF14,
	"time": 0xC01,
}

// regNames maps ABI and x-register names (and fp) to numbers; byName maps
// a mnemonic to its entry in insns.
var (
	regNames = map[string]int{"fp": 8}
	byName   = map[string]*insn{}
)

func init() {
	for i, n := range abiNames {
		regNames[n] = i
		regNames[fmt.Sprintf("x%d", i)] = i
	}
	for i := range insns {
		byName[insns[i].name] = &insns[i]
	}
}
