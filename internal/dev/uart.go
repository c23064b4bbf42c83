// Package dev provides SMAPPIC's I/O device (paper §3.4): the UART16550
// whose console a host-side virtual serial device drains.
package dev

import "smappic/internal/sim"

// UART16550 register offsets (LCR.DLAB=0 view; the divisor latch is
// accepted but the model's speed is set by CyclesPerByte).
const (
	UartRBR = 0 // read: receive buffer
	UartTHR = 0 // write: transmit holding
	UartIER = 1
	UartIIR = 2 // read; write = FCR
	UartLCR = 3
	UartLSR = 5
)

// LSR bits.
const (
	lsrDataReady = 1 << 0
	lsrTHREmpty  = 1 << 5
	lsrTXIdle    = 1 << 6
)

// StdBaudCycles is the cycles per byte at the standard 115200 bit/s rate at
// 100 MHz (10 bits per frame).
const StdBaudCycles = 8680

// FastBaudCycles models the paper's "overclocked" ~1 Mbit/s data UART.
const FastBaudCycles = 1000

// UART is a 16550-compatible UART. The core side accesses registers through
// MMIO; the host side drains TX with HostRead.
type UART struct {
	eng     *sim.Engine
	name    string
	txBytes sim.LazyCounter

	// CyclesPerByte is the modeled line rate.
	CyclesPerByte sim.Time

	rx       []byte // waiting for the core
	tx       []byte // waiting for the host
	ier      uint8  // read back, and gates IIR; the model has no interrupt line
	lcr      uint8
	shifting bool
}

// NewUART creates a UART at the standard baud rate.
func NewUART(eng *sim.Engine, name string, stats *sim.Stats) *UART {
	return &UART{
		eng: eng, name: name,
		txBytes:       stats.LazyCounter(name + ".tx_bytes"),
		CyclesPerByte: StdBaudCycles,
	}
}

// Name identifies the device in the chipset address map.
func (u *UART) Name() string { return u.name }

// Read implements core-side MMIO reads.
func (u *UART) Read(off uint64, size int) uint64 {
	switch off {
	case UartRBR:
		if len(u.rx) == 0 {
			return 0
		}
		b := u.rx[0]
		u.rx = u.rx[1:]
		return uint64(b)
	case UartIER:
		return uint64(u.ier)
	case UartIIR:
		if u.ier&1 != 0 && len(u.rx) > 0 {
			return 0x04 // received data available
		}
		return 0x01 // no interrupt pending
	case UartLCR:
		return uint64(u.lcr)
	case UartLSR:
		var v uint64 = lsrTXIdle
		if !u.shifting {
			v |= lsrTHREmpty
		}
		if len(u.rx) > 0 {
			v |= lsrDataReady
		}
		return v
	}
	return 0
}

// Write implements core-side MMIO writes.
func (u *UART) Write(off uint64, size int, v uint64) {
	switch off {
	case UartTHR:
		u.txBytes.Inc()
		u.shifting = true
		b := byte(v)
		u.eng.Schedule(u.CyclesPerByte, func() {
			u.tx = append(u.tx, b)
			u.shifting = false
		})
	case UartIER:
		u.ier = uint8(v)
	case UartLCR:
		u.lcr = uint8(v)
	}
}

// HostRead drains the transmit side (core -> host).
func (u *UART) HostRead() []byte {
	out := u.tx
	u.tx = nil
	return out
}

// VirtualSerial is the host program that creates a virtual serial device
// for a UART (paper §3.4.1). It drains the UART's transmit side with
// HostRead and accumulates console output; the PCIe crossing the paper's
// tunnel takes is not modeled, so reading the console costs no cycles.
type VirtualSerial struct {
	uart *UART
	out  []byte
}

// NewVirtualSerial attaches to a UART.
func NewVirtualSerial(u *UART) *VirtualSerial { return &VirtualSerial{uart: u} }

// Poll drains pending TX bytes into the console buffer.
func (v *VirtualSerial) Poll() {
	v.out = append(v.out, v.uart.HostRead()...)
}

// Console returns everything printed so far.
func (v *VirtualSerial) Console() string {
	v.Poll()
	return string(v.out)
}
