package core

import (
	"fmt"

	"smappic/internal/dev"
	"smappic/internal/rvasm"
)

// Host models the F1 instance's host CPU side: the PCIe driver, the virtual
// serial devices and program loading. Host actions that happen before boot
// (image loading) are functional-only, matching the paper's flow where setup
// time is not part of the measured run.
type Host struct {
	pr      *Prototype
	serial0 []*dev.VirtualSerial
}

// Host returns the prototype's host-side tooling.
func (p *Prototype) Host() *Host {
	h := &Host{pr: p}
	for _, n := range p.Nodes {
		h.serial0 = append(h.serial0, dev.NewVirtualSerial(n.UART0))
	}
	return h
}

// LoadProgram writes an assembled program into a node's main memory through
// the PCIe DMA path (done before releasing the cores from reset).
func (h *Host) LoadProgram(node int, prog *rvasm.Program) {
	if prog.Base < DRAMBase {
		panic(fmt.Sprintf("core: program base %#x below DRAM", prog.Base))
	}
	h.pr.Backing.WriteBytes(prog.Base, prog.Bytes)
}

// Console returns everything node's console UART printed so far.
func (h *Host) Console(node int) string { return h.serial0[node].Console() }
