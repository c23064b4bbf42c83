// Package interrupt provides SMAPPIC's RISC-V interrupt machinery: a CLINT
// (software + timer interrupts) and the interrupt packetizer/depacketizer
// pair of paper §3.3 / Fig. 6.
//
// The RISC-V specification notifies cores of pending interrupts with
// dedicated wires from the controller into each core. That does not scale to
// manycore nodes (long cross-node routes) and cannot cross node boundaries
// at all. SMAPPIC replaces the wires with NoC packets: the packetizer scans
// the controller outputs and sends a packet when a level changes; the
// depacketizer beside each core sniffs the traffic and drives the local
// wires accordingly.
package interrupt

import "smappic/internal/sim"

// Kind is a RISC-V interrupt line into a hart.
type Kind int

const (
	Software Kind = iota // MSIP
	Timer                // MTIP
	numKinds
)

// Change is the payload of an interrupt packet: a level transition on one
// hart's wire.
type Change struct {
	Hart  int
	Kind  Kind
	Level bool
}

// Flits is the NoC size of an interrupt packet (single control flit plus
// header, OpenPiton-style 3-flit message).
const Flits = 3

// Packetizer watches the interrupt controllers' output wires and emits a
// packet per level transition. The platform supplies send, which routes a
// Change to the destination hart's tile (possibly across nodes).
type Packetizer struct {
	send func(hart int, c *Change)
	last [][numKinds]bool // per hart: the level last sent on each wire
}

// NewPacketizer creates a packetizer for the given number of harts,
// delivering through send.
func NewPacketizer(harts int, send func(hart int, c *Change)) *Packetizer {
	return &Packetizer{send: send, last: make([][numKinds]bool, harts)}
}

// Set drives one controller output. Only transitions generate packets.
func (p *Packetizer) Set(hart int, kind Kind, level bool) {
	if p.last[hart][kind] == level {
		return
	}
	p.last[hart][kind] = level
	p.send(hart, &Change{Hart: hart, Kind: kind, Level: level})
}

// Depacketizer sits beside a core, receives interrupt packets and drives
// the core's wires through the assert callback.
type Depacketizer struct {
	assert func(kind Kind, level bool)
}

// NewDepacketizer creates a depacketizer driving assert.
func NewDepacketizer(assert func(kind Kind, level bool)) *Depacketizer {
	return &Depacketizer{assert: assert}
}

// Handle applies an interrupt packet to the local wires.
func (d *Depacketizer) Handle(c *Change) { d.assert(c.Kind, c.Level) }

// CLINT register map (offsets within the CLINT MMIO window), following the
// SiFive convention used by Ariane/OpenPiton platforms.
const (
	ClintMSIPBase     = 0x0000 // 4 bytes per hart
	ClintMTimeCmpBase = 0x4000 // 8 bytes per hart
	ClintMTime        = 0xBFF8
)

// CLINT is the core-local interruptor: software interrupts via MSIP
// registers and timer interrupts via MTIMECMP against the free-running
// MTIME counter (which ticks with the prototype clock).
type CLINT struct {
	eng   *sim.Engine
	pack  *Packetizer
	harts int

	msip     []bool
	mtimecmp []uint64
	armed    []bool // a wakeup event is scheduled for this hart
}

// NewCLINT builds a CLINT for the given number of harts, signalling through
// the packetizer.
func NewCLINT(eng *sim.Engine, harts int, pack *Packetizer) *CLINT {
	return &CLINT{
		eng: eng, pack: pack, harts: harts,
		msip:     make([]bool, harts),
		mtimecmp: make([]uint64, harts),
		armed:    make([]bool, harts),
	}
}

// Name identifies the device in the chipset address map.
func (c *CLINT) Name() string { return "clint" }

// MTime returns the current timer value.
func (c *CLINT) MTime() uint64 { return uint64(c.eng.Now()) }

// Read implements the MMIO read for the CLINT window.
func (c *CLINT) Read(off uint64, size int) uint64 {
	switch {
	case off >= ClintMSIPBase && off < ClintMSIPBase+uint64(4*c.harts):
		h := int((off - ClintMSIPBase) / 4)
		if c.msip[h] {
			return 1
		}
		return 0
	case off >= ClintMTimeCmpBase && off < ClintMTimeCmpBase+uint64(8*c.harts):
		return c.mtimecmp[(off-ClintMTimeCmpBase)/8]
	case off == ClintMTime:
		return c.MTime()
	}
	return 0
}

// Write implements the MMIO write for the CLINT window.
func (c *CLINT) Write(off uint64, size int, v uint64) {
	switch {
	case off >= ClintMSIPBase && off < ClintMSIPBase+uint64(4*c.harts):
		h := int((off - ClintMSIPBase) / 4)
		c.msip[h] = v&1 != 0
		c.pack.Set(h, Software, c.msip[h])
	case off >= ClintMTimeCmpBase && off < ClintMTimeCmpBase+uint64(8*c.harts):
		h := int((off - ClintMTimeCmpBase) / 8)
		c.mtimecmp[h] = v
		c.evaluateTimer(h)
	}
}

// evaluateTimer updates MTIP for hart h and arms a wakeup if the compare
// value is in the future.
func (c *CLINT) evaluateTimer(h int) {
	now := c.MTime()
	if now >= c.mtimecmp[h] {
		c.pack.Set(h, Timer, true)
		return
	}
	c.pack.Set(h, Timer, false)
	if !c.armed[h] {
		c.armed[h] = true
		c.eng.At(sim.Time(c.mtimecmp[h]), func() {
			c.armed[h] = false
			c.evaluateTimer(h)
		})
	}
}
