// Package rvasm is a small two-pass RV64IMA assembler and its
// disassembler. It exists so that the repository's examples and tests can
// express bare-metal programs in readable assembly instead of hand-encoded
// words.
//
// The instruction set is one table, insns: each real instruction's
// mnemonic, operand syntax and match/mask bits. Assemble looks a mnemonic
// up there and parses its operands slot by slot, checking arity and every
// immediate's range in one place. Disassemble renders a word through the
// first entry whose mask and match it fits, and any other word as .word,
// so Disassemble(w) reassembles to w for every 32-bit w. Each
// pseudo-instruction is a rewrite into one table entry (pseudos); only li
// and la, whose length depends on their value, and jal's one-operand form
// are code. Labels and a handful of data directives complete the language.
package rvasm

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
)

// Program is the assembler output.
type Program struct {
	Base    uint64 // load address of Bytes[0]
	Bytes   []byte
	Symbols map[string]uint64
}

// Entry returns the address of a label, or the base address if absent.
func (p *Program) Entry(label string) uint64 {
	if a, ok := p.Symbols[label]; ok {
		return a
	}
	return p.Base
}

// Assemble translates source into a Program loaded at base.
func Assemble(base uint64, source string) (*Program, error) {
	a := &assembler{base: base, symbols: make(map[string]uint64)}
	// Pass 1: compute sizes and label addresses.
	if err := a.run(source, false); err != nil {
		return nil, err
	}
	// Pass 2: emit.
	a.out = a.out[:0]
	a.pc = base
	if err := a.run(source, true); err != nil {
		return nil, err
	}
	return &Program{Base: base, Bytes: a.out, Symbols: a.symbols}, nil
}

// MustAssemble is Assemble that panics on error (for tests and tables of
// fixed programs).
func MustAssemble(base uint64, source string) *Program {
	p, err := Assemble(base, source)
	if err != nil {
		panic(err)
	}
	return p
}

type assembler struct {
	base    uint64
	pc      uint64
	out     []byte
	symbols map[string]uint64
	emit    bool
	lineNo  int
}

func (a *assembler) errf(format string, args ...any) error {
	return fmt.Errorf("rvasm: line %d: %s", a.lineNo, fmt.Sprintf(format, args...))
}

func (a *assembler) run(source string, emit bool) error {
	a.emit = emit
	a.pc = a.base
	for i, raw := range strings.Split(source, "\n") {
		a.lineNo = i + 1
		line := raw
		if idx := strings.IndexAny(line, "#"); idx >= 0 {
			line = line[:idx]
		}
		if idx := strings.Index(line, "//"); idx >= 0 {
			line = line[:idx]
		}
		line = strings.TrimSpace(line)
		for {
			colon := strings.Index(line, ":")
			if colon < 0 || strings.ContainsAny(line[:colon], " \t\"") {
				break
			}
			label := strings.TrimSpace(line[:colon])
			if !emit {
				if _, dup := a.symbols[label]; dup {
					return a.errf("duplicate label %q", label)
				}
				a.symbols[label] = a.pc
			}
			line = strings.TrimSpace(line[colon+1:])
		}
		if line == "" {
			continue
		}
		if err := a.statement(line); err != nil {
			return err
		}
	}
	return nil
}

func (a *assembler) put32(w uint32) {
	if a.emit {
		a.out = append(a.out, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
	}
	a.pc += 4
}

func (a *assembler) putBytes(b []byte) {
	if a.emit {
		a.out = append(a.out, b...)
	}
	a.pc += uint64(len(b))
}

// operand parsing -----------------------------------------------------------

func (a *assembler) reg(s string) (int, error) {
	r, ok := regNames[strings.TrimSpace(s)]
	if !ok {
		return 0, a.errf("unknown register %q", s)
	}
	return r, nil
}

// value resolves an integer literal or label.
func (a *assembler) value(s string) (int64, error) {
	s = strings.TrimSpace(s)
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	var v uint64
	if sym, ok := a.symbols[s]; ok {
		v = sym
	} else if n, err := strconv.ParseUint(strings.TrimPrefix(s, "+"), 0, 64); err == nil {
		v = n
	} else if n2, err2 := strconv.ParseInt(s, 0, 64); err2 == nil {
		v = uint64(n2)
	} else {
		if !a.emit {
			return 0, nil // labels may be forward references in pass 1
		}
		return 0, a.errf("cannot resolve %q", s)
	}
	if neg {
		return -int64(v), nil
	}
	return int64(v), nil
}

// statement assembles one directive or instruction.
func (a *assembler) statement(line string) error {
	mn, rest := line, ""
	if sp := strings.IndexAny(line, " \t"); sp >= 0 {
		mn, rest = line[:sp], strings.TrimSpace(line[sp+1:])
	}
	mn = strings.ToLower(mn)
	if strings.HasPrefix(mn, ".") {
		return a.directive(mn, rest)
	}
	args := splitArgs(rest)
	switch mn {
	case "li", "la":
		if len(args) != 2 {
			return a.errf("%s expects 2 operands, got %d", mn, len(args))
		}
		rd, err := a.reg(args[0])
		if err != nil {
			return err
		}
		v, err := a.value(args[1])
		if err != nil {
			return err
		}
		if isSymbolOperand(args[1]) {
			// Symbols may be forward references whose value is unknown in
			// pass 1; use a fixed-length expansion so label addresses are
			// identical in both passes.
			a.loadImmFixed(rd, v)
		} else {
			a.loadImm(rd, v)
		}
		return nil
	case "jal":
		if len(args) == 1 {
			args = []string{"ra", args[0]}
		}
	}
	name := mn
	if t, ok := pseudos[mn]; ok {
		if want := strings.Count(t, "$"); len(args) != want {
			return a.errf("%s expects %d operands, got %d", name, want, len(args))
		}
		mn, rest, _ = strings.Cut(t, " ")
		real := splitArgs(rest)
		for i, r := range real {
			if r[0] == '$' {
				real[i] = args[r[1]-'0']
			}
		}
		args = real
	}
	e, ok := byName[mn]
	if !ok {
		return a.errf("unknown instruction %q", name)
	}
	return a.encode(e, name, args)
}

// encode assembles one real instruction from its operands; name is the
// mnemonic as written, which errors report.
func (a *assembler) encode(e *insn, name string, args []string) error {
	slots := splitArgs(e.args)
	if len(args) != len(slots) {
		return a.errf("%s expects %d operands, got %d", name, len(slots), len(args))
	}
	w := e.match
	for i, slot := range slots {
		arg := args[i]
		if len(slot) > 1 { // "x(s)": an offset and a base register
			open := strings.Index(arg, "(")
			if open < 0 || !strings.HasSuffix(arg, ")") {
				return a.errf("bad memory operand %q", arg)
			}
			base, err := a.reg(arg[open+1 : len(arg)-1])
			if err != nil {
				return err
			}
			w |= uint32(base) << 15
			if arg = strings.TrimSpace(arg[:open]); arg == "" {
				arg = "0"
			}
		}
		bits, err := a.field(name, slot[0], arg)
		if err != nil {
			return err
		}
		w |= bits
	}
	a.put32(w)
	return nil
}

// field encodes one operand as the letter c spells it (see insn).
func (a *assembler) field(name string, c byte, arg string) (uint32, error) {
	if sh, ok := regShift[c]; ok {
		r, err := a.reg(arg)
		return uint32(r) << sh, err
	}
	var v int64
	var err error
	if c == 'E' {
		var csr uint32
		csr, err = a.csr(arg)
		v = int64(csr)
	} else {
		v, err = a.value(arg)
	}
	if err != nil {
		return 0, err
	}
	if c == '0' {
		if v != 0 {
			return 0, a.errf("%s takes no offset, got %d", name, v)
		}
		return 0, nil
	}
	rel := c == 'p' || c == 'a'
	if rel {
		v -= int64(a.pc)
	}
	f := imms[c]
	bits := f.put(v)
	if a.emit && f.get(bits) != v {
		if rel {
			return 0, a.errf("%s target %s out of range (offset %d)", name, arg, v)
		}
		return 0, a.errf("%s immediate %d out of range", name, v)
	}
	return bits, nil
}

func splitArgs(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// dataSizes are the data directives' item sizes in bytes.
var dataSizes = map[string]int{".byte": 1, ".word": 4, ".dword": 8}

func (a *assembler) directive(mn, rest string) error {
	if size, ok := dataSizes[mn]; ok {
		for _, arg := range splitArgs(rest) {
			v, err := a.value(arg)
			if err != nil {
				return err
			}
			a.putBytes(binary.LittleEndian.AppendUint64(nil, uint64(v))[:size])
		}
		return nil
	}
	switch mn {
	case ".align":
		n, err := a.value(rest)
		if err != nil {
			return err
		}
		if n < 0 || n > 63 {
			return a.errf(".align %d out of range", n)
		}
		align := uint64(1) << n
		return a.pad(int64((align - a.pc%align) % align))
	case ".space":
		n, err := a.value(rest)
		if err != nil {
			return err
		}
		return a.pad(n)
	case ".asciz":
		s, err := strconv.Unquote(strings.TrimSpace(rest))
		if err != nil {
			return a.errf("bad string %s", rest)
		}
		a.putBytes(append([]byte(s), 0))
	default:
		return a.errf("unknown directive %s", mn)
	}
	return nil
}

func (a *assembler) csr(s string) (uint32, error) {
	if v, ok := csrNames[strings.ToLower(strings.TrimSpace(s))]; ok {
		return v, nil
	}
	n, err := strconv.ParseUint(strings.TrimSpace(s), 0, 12)
	if err != nil {
		return 0, a.errf("unknown CSR %q", s)
	}
	return uint32(n), nil
}

// maxImage bounds how far .space and .align may grow a program: 16 MiB is
// far beyond any program here, and keeps a malformed one from exhausting
// memory.
const maxImage = 16 << 20

// pad emits n zero bytes.
func (a *assembler) pad(n int64) error {
	if used := a.pc - a.base; n < 0 || used > maxImage || uint64(n) > maxImage-used {
		return a.errf("%d bytes of padding would grow the program past %d bytes", n, maxImage)
	}
	if a.emit {
		a.out = append(a.out, make([]byte, n)...)
	}
	a.pc += uint64(n)
	return nil
}

// isSymbolOperand reports whether s is a label reference (not a numeric
// literal). The answer is identical in both passes, which keeps sizes
// stable.
func isSymbolOperand(s string) bool {
	s = strings.TrimSpace(strings.TrimPrefix(strings.TrimPrefix(s, "-"), "+"))
	if _, err := strconv.ParseUint(s, 0, 64); err == nil {
		return false
	}
	if _, err := strconv.ParseInt(s, 0, 64); err == nil {
		return false
	}
	return true
}

// loadImmFixed materializes v in exactly eight words (padding with nops),
// enough for any 64-bit constant.
func (a *assembler) loadImmFixed(rd int, v int64) {
	start := a.pc
	a.loadImm(rd, v)
	for a.pc-start < 8*4 {
		a.put32(enc("addi", 0, 0, 0)) // nop
	}
	if a.pc-start > 8*4 {
		panic(fmt.Sprintf("rvasm: loadImm for %#x exceeded fixed budget", uint64(v)))
	}
}

// loadImm emits a minimal sequence materializing a 64-bit constant.
func (a *assembler) loadImm(rd int, v int64) {
	if v >= -2048 && v <= 2047 {
		a.put32(enc("addi", rd, 0, v))
		return
	}
	if v >= -(1<<31) && v < 1<<31 {
		hi := (v + 0x800) >> 12 << 12
		lo := v - hi
		a.put32(enc("lui", rd, 0, hi>>12))
		if lo != 0 {
			a.put32(enc("addiw", rd, rd, lo)) // addiw keeps 32-bit sign
		}
		return
	}
	// General case (LLVM-style recursion): materialize the upper bits,
	// shift left 12, add the sign-extended low 12 bits.
	lo12 := v << 52 >> 52
	hi := (v - lo12) >> 12
	a.loadImm(rd, hi)
	a.put32(enc("slli", rd, rd, 12))
	if lo12 != 0 {
		a.put32(enc("addi", rd, rd, lo12))
	}
}

// enc encodes the real instruction mn, whose operands are rd, rs1 (if it
// has one) and an immediate known to fit: the expansions of li and la.
func enc(mn string, rd, rs1 int, imm int64) uint32 {
	e := byName[mn]
	return e.match | uint32(rd)<<7 | uint32(rs1)<<15 | imms[e.args[len(e.args)-1]].put(imm)
}
