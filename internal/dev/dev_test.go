package dev

import (
	"testing"

	"smappic/internal/sim"
)

func TestUARTTransmitToHost(t *testing.T) {
	eng := sim.NewEngine()
	u := NewUART(eng, "uart0", &sim.Stats{})
	u.CyclesPerByte = 10
	for _, b := range []byte("Hi") {
		// Respect LSR: wait for THR empty.
		for u.Read(UartLSR, 1)&lsrTHREmpty == 0 {
			eng.RunFor(1)
		}
		u.Write(UartTHR, 1, uint64(b))
		eng.RunFor(10)
	}
	eng.Run()
	if got := string(u.HostRead()); got != "Hi" {
		t.Fatalf("host read %q, want Hi", got)
	}
}

func TestUARTLineRateModeled(t *testing.T) {
	eng := sim.NewEngine()
	u := NewUART(eng, "uart0", &sim.Stats{})
	u.Write(UartTHR, 1, 'x')
	if u.Read(UartLSR, 1)&lsrTHREmpty != 0 {
		t.Fatal("THR should be busy right after write")
	}
	eng.RunUntil(StdBaudCycles - 1)
	if len(u.tx) != 0 {
		t.Fatal("byte appeared before a full frame time")
	}
	eng.Run()
	if len(u.tx) != 1 {
		t.Fatal("byte never appeared")
	}
}

func TestUARTReceiveAndIRQ(t *testing.T) {
	eng := sim.NewEngine()
	u := NewUART(eng, "uart0", &sim.Stats{})
	u.Write(UartIER, 1, 1) // enable RX interrupt
	if u.Read(UartIER, 1) != 1 {
		t.Fatal("IER does not read back")
	}
	if u.Read(UartIIR, 1) != 0x01 {
		t.Fatal("IIR reports an interrupt the model has no source for")
	}
}

func TestVirtualSerialConsole(t *testing.T) {
	eng := sim.NewEngine()
	u := NewUART(eng, "uart0", &sim.Stats{})
	u.CyclesPerByte = 1
	vs := NewVirtualSerial(u)
	for _, b := range []byte("boot ok\n") {
		u.Write(UartTHR, 1, uint64(b))
		eng.RunFor(1)
	}
	eng.Run()
	if got := vs.Console(); got != "boot ok\n" {
		t.Fatalf("console = %q", got)
	}
}
