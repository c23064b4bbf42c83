// Package interrupt provides SMAPPIC's RISC-V interrupt machinery: a CLINT
// (software + timer interrupts), a PLIC-lite (external interrupts), and the
// interrupt packetizer/depacketizer pair of paper §3.3 / Fig. 6.
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
	External             // MEIP
	numKinds
)

// String names the wire.
func (k Kind) String() string {
	switch k {
	case Software:
		return "msip"
	case Timer:
		return "mtip"
	case External:
		return "meip"
	}
	return "irq?"
}

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

// PLIC is a simplified platform-level interrupt controller: level-sensitive
// sources, per-hart enable masks, claim/complete. Priorities are fixed
// (lowest source number wins), which matches how the platform uses it.
type PLIC struct {
	pack    *Packetizer
	harts   int
	sources int

	level   []bool   // device-driven levels, by source (1-based)
	claimed []bool   // source claimed and in service
	enable  [][]bool // [hart][source]
}

// PLIC register map (offsets within the PLIC MMIO window).
const (
	PlicEnableBase = 0x2000 // one 32-bit enable word per hart
	PlicClaimBase  = 0x200004
	PlicClaimStep  = 0x1000
)

// NewPLIC builds a PLIC with the given hart and source counts.
func NewPLIC(harts, sources int, pack *Packetizer) *PLIC {
	p := &PLIC{
		pack: pack, harts: harts, sources: sources,
		level:   make([]bool, sources+1),
		claimed: make([]bool, sources+1),
		enable:  make([][]bool, harts),
	}
	for h := range p.enable {
		p.enable[h] = make([]bool, sources+1)
	}
	return p
}

// Name identifies the device in the chipset address map.
func (p *PLIC) Name() string { return "plic" }

// SetLevel drives a source's interrupt level (called by devices).
func (p *PLIC) SetLevel(source int, level bool) {
	p.level[source] = level
	p.update()
}

// pendingFor returns the lowest pending enabled unclaimed source for hart h.
func (p *PLIC) pendingFor(h int) int {
	for s := 1; s <= p.sources; s++ {
		if p.level[s] && !p.claimed[s] && p.enable[h][s] {
			return s
		}
	}
	return 0
}

func (p *PLIC) update() {
	for h := 0; h < p.harts; h++ {
		p.pack.Set(h, External, p.pendingFor(h) != 0)
	}
}

// Read implements MMIO reads; reading the claim register claims the highest
// priority pending source.
func (p *PLIC) Read(off uint64, size int) uint64 {
	if off >= PlicClaimBase && (off-PlicClaimBase)%PlicClaimStep == 0 {
		h := int((off - PlicClaimBase) / PlicClaimStep)
		if h < p.harts {
			s := p.pendingFor(h)
			if s != 0 {
				p.claimed[s] = true
				p.update()
			}
			return uint64(s)
		}
	}
	if off >= PlicEnableBase && off < PlicEnableBase+uint64(4*p.harts) {
		h := int((off - PlicEnableBase) / 4)
		var v uint64
		for s := 1; s <= p.sources && s < 32; s++ {
			if p.enable[h][s] {
				v |= 1 << s
			}
		}
		return v
	}
	return 0
}

// Write implements MMIO writes; writing a source number to the claim
// register completes it.
func (p *PLIC) Write(off uint64, size int, v uint64) {
	if off >= PlicClaimBase && (off-PlicClaimBase)%PlicClaimStep == 0 {
		s := int(v)
		if s >= 1 && s <= p.sources {
			p.claimed[s] = false
			p.update()
		}
		return
	}
	if off >= PlicEnableBase && off < PlicEnableBase+uint64(4*p.harts) {
		h := int((off - PlicEnableBase) / 4)
		for s := 1; s <= p.sources && s < 32; s++ {
			p.enable[h][s] = v&(1<<s) != 0
		}
		p.update()
	}
}
