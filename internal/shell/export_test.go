package shell

import "smappic/internal/axi"

// WindowAddr returns the global PCIe address corresponding to local offset
// off inside this FPGA's window.
func (s *Shell) WindowAddr(off axi.Addr) axi.Addr {
	base, _ := s.fabric.Window(s.id)
	return base + off
}
