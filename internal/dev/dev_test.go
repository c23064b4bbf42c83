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
	u.HostWrite([]byte("ok"))
	if u.Read(UartIIR, 1) != 0x04 {
		t.Fatal("IIR does not report received data")
	}
	if u.Read(UartLSR, 1)&lsrDataReady == 0 {
		t.Fatal("LSR data-ready not set")
	}
	if got := u.Read(UartRBR, 1); got != 'o' {
		t.Fatalf("first byte = %c", rune(got))
	}
	if got := u.Read(UartRBR, 1); got != 'k' {
		t.Fatalf("second byte = %c", rune(got))
	}
	if u.Read(UartIIR, 1) != 0x01 {
		t.Fatal("IIR still reports received data with RX empty")
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
