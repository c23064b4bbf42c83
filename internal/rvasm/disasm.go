package rvasm

import (
	"fmt"
	"strings"
)

// Disassemble renders one instruction word in the syntax the assembler
// accepts: the first entry of insns that w matches, through that entry's
// operand slots, or ".word 0x..." when none does. Branch and jump targets
// print as offsets, so the text reassembles to w at address 0.
func Disassemble(w uint32) string {
	for i := range insns {
		if e := &insns[i]; w&e.mask == e.match {
			return e.render(w)
		}
	}
	return fmt.Sprintf(".word 0x%08X", w)
}

func (e *insn) render(w uint32) string {
	var b strings.Builder
	b.WriteString(e.name)
	if e.args != "" {
		b.WriteByte(' ')
	}
	for _, c := range []byte(e.args) {
		if sh, ok := regShift[c]; ok {
			b.WriteString(abiNames[w>>sh&31])
			continue
		}
		switch c {
		case ',':
			b.WriteString(", ")
		case '(', ')':
			b.WriteByte(c)
		case '0':
		case 'E':
			b.WriteString(csrName(w >> 20))
		case 'u':
			fmt.Fprintf(&b, "0x%x", w>>12)
		default:
			fmt.Fprintf(&b, "%d", imms[c].get(w))
		}
	}
	return b.String()
}

// DisassembleAll renders a program's code words, one instruction per line
// with addresses (a debugging aid for the examples and tests).
func DisassembleAll(p *Program) string {
	var b strings.Builder
	for i := 0; i+4 <= len(p.Bytes); i += 4 {
		w := uint32(p.Bytes[i]) | uint32(p.Bytes[i+1])<<8 | uint32(p.Bytes[i+2])<<16 | uint32(p.Bytes[i+3])<<24
		fmt.Fprintf(&b, "%08x:  %08x  %s\n", p.Base+uint64(i), w, Disassemble(w))
	}
	return b.String()
}

func csrName(csr uint32) string {
	for name, v := range csrNames {
		if v == csr {
			return name
		}
	}
	return fmt.Sprintf("0x%x", csr)
}
