package dev

import (
	"bytes"
	"testing"

	"smappic/internal/mem"
	"smappic/internal/sim"
)

func TestUARTTransmitToHost(t *testing.T) {
	eng := sim.NewEngine()
	u := NewUART(eng, "uart0", nil)
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
	u := NewUART(eng, "uart0", nil)
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
	u := NewUART(eng, "uart0", nil)
	var irq bool
	u.IRQ = func(l bool) { irq = l }
	u.Write(UartIER, 1, 1) // enable RX interrupt
	u.HostWrite([]byte("ok"))
	if !irq {
		t.Fatal("RX interrupt not raised")
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
	if irq {
		t.Fatal("IRQ still high with RX empty")
	}
}

func TestVirtualSerialConsole(t *testing.T) {
	eng := sim.NewEngine()
	u := NewUART(eng, "uart0", nil)
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

func TestSDCardReadIntoMemory(t *testing.T) {
	eng := sim.NewEngine()
	b := mem.NewBacking()
	sd := NewSDCard(eng, b, 1<<29, 1<<29, nil, "sd0")
	img := make([]byte, 2*SDSectorBytes)
	for i := range img {
		img[i] = byte(i)
	}
	sd.LoadImage(0, img)

	sd.Write(SDSector, 8, 0)
	sd.Write(SDTarget, 8, 0x1000)
	sd.Write(SDCount, 8, 2)
	sd.Write(SDCmd, 8, 1)
	if sd.Read(SDStatus, 8) != 1 {
		t.Fatal("controller should be busy")
	}
	eng.Run()
	if sd.Read(SDStatus, 8) != 0 {
		t.Fatal("controller stuck busy")
	}
	got := make([]byte, len(img))
	b.ReadBytes(0x1000, got)
	if !bytes.Equal(got, img) {
		t.Fatal("sector data mismatch after DMA read")
	}
}

func TestSDCardWriteFromMemory(t *testing.T) {
	eng := sim.NewEngine()
	b := mem.NewBacking()
	sd := NewSDCard(eng, b, 1<<29, 1<<29, nil, "sd0")
	data := bytes.Repeat([]byte{0xAB}, SDSectorBytes)
	b.WriteBytes(0x2000, data)

	sd.Write(SDSector, 8, 5)
	sd.Write(SDTarget, 8, 0x2000)
	sd.Write(SDCount, 8, 1)
	sd.Write(SDCmd, 8, 2)
	eng.Run()
	card := make([]byte, SDSectorBytes)
	b.ReadBytes(sd.CardBase+5*SDSectorBytes, card)
	if !bytes.Equal(card, data) {
		t.Fatal("card contents mismatch after DMA write")
	}
}

func TestSDCardDMATiming(t *testing.T) {
	eng := sim.NewEngine()
	b := mem.NewBacking()
	sd := NewSDCard(eng, b, 1<<29, 1<<29, nil, "sd0")
	sd.Write(SDCount, 8, 8)
	sd.Write(SDCmd, 8, 1)
	end := eng.Run()
	if end != 8*sd.DMACyclesPerSector {
		t.Fatalf("8-sector DMA took %d cycles, want %d", end, 8*sd.DMACyclesPerSector)
	}
}

func TestSDCardIgnoresCommandWhileBusy(t *testing.T) {
	eng := sim.NewEngine()
	b := mem.NewBacking()
	var st sim.Stats
	sd := NewSDCard(eng, b, 1<<29, 1<<29, &st, "sd0")
	sd.Write(SDCount, 8, 4)
	sd.Write(SDCmd, 8, 1)
	sd.Write(SDCmd, 8, 1) // while busy: dropped
	eng.Run()
	if st.Get("sd0.transfers") != 1 {
		t.Fatalf("transfers = %d, want 1", st.Get("sd0.transfers"))
	}
}
