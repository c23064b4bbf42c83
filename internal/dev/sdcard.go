package dev

import (
	"smappic/internal/mem"
	"smappic/internal/sim"
)

// Virtual SD card (paper §3.4.2). The F1 FPGA has no SD slot, so SMAPPIC
// introduces the notion of a virtual device: requests to the SD controller
// are forwarded into the prototype's main memory instead. The card's
// contents live in the top half of the node's DRAM; the bottom half is the
// prototype's main memory. Virtual devices provide functionality only — the
// controller charges a nominal DMA time, not real SD timing.

// SD controller register offsets (a simple DMA-style block controller).
const (
	SDSector = 0x00 // sector number (512-byte units)
	SDTarget = 0x08 // DRAM destination/source address
	SDCount  = 0x10 // number of sectors
	SDCmd    = 0x18 // 1 = read (card->mem), 2 = write (mem->card)
	SDStatus = 0x20 // 0 = idle/done, 1 = busy
)

// SDSectorBytes is the transfer granule.
const SDSectorBytes = 512

// SDCard is the virtual SD card controller for one node.
type SDCard struct {
	eng     *sim.Engine
	backing *mem.Backing
	// CardBase is the physical address of the card image (top half of the
	// node's DRAM region).
	CardBase uint64
	// CardSize bounds the image.
	CardSize uint64
	stats    *sim.Stats
	name     string

	// DMACyclesPerSector models the copy performed through the memory
	// system (functional device, coarse timing).
	DMACyclesPerSector sim.Time

	sector, target, count uint64
	busy                  bool
}

// NewSDCard creates the controller. Contents are read and written directly
// in the backing store at CardBase.
func NewSDCard(eng *sim.Engine, backing *mem.Backing, cardBase, cardSize uint64, stats *sim.Stats, name string) *SDCard {
	return &SDCard{
		eng: eng, backing: backing,
		CardBase: cardBase, CardSize: cardSize,
		stats: stats, name: name,
		DMACyclesPerSector: 64, // one line per 8 cycles over the NoC path
	}
}

// Name identifies the device in the chipset address map.
func (s *SDCard) Name() string { return s.name }

// LoadImage writes a filesystem/boot image onto the card, as the host-side
// SD initialization driver does over PCIe.
func (s *SDCard) LoadImage(offset uint64, data []byte) {
	s.backing.WriteBytes(s.CardBase+offset, data)
}

// Read implements core-side MMIO reads.
func (s *SDCard) Read(off uint64, size int) uint64 {
	switch off {
	case SDSector:
		return s.sector
	case SDTarget:
		return s.target
	case SDCount:
		return s.count
	case SDStatus:
		if s.busy {
			return 1
		}
		return 0
	}
	return 0
}

// Write implements core-side MMIO writes.
func (s *SDCard) Write(off uint64, size int, v uint64) {
	switch off {
	case SDSector:
		s.sector = v
	case SDTarget:
		s.target = v
	case SDCount:
		s.count = v
	case SDCmd:
		s.start(int(v))
	}
}

func (s *SDCard) start(cmd int) {
	if s.busy || s.count == 0 {
		return
	}
	s.busy = true
	n := s.count
	if s.stats != nil {
		s.stats.Counter(s.name + ".transfers").Inc()
		s.stats.Counter(s.name + ".sectors").Add(n)
	}
	s.eng.Schedule(s.DMACyclesPerSector*sim.Time(n), func() {
		buf := make([]byte, n*SDSectorBytes)
		card := s.CardBase + s.sector*SDSectorBytes
		switch cmd {
		case 1: // card -> memory
			s.backing.ReadBytes(card, buf)
			s.backing.WriteBytes(s.target, buf)
		case 2: // memory -> card
			s.backing.ReadBytes(s.target, buf)
			s.backing.WriteBytes(card, buf)
		}
		s.busy = false
	})
}
