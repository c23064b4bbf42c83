package core

// Physical address map. Each node owns one DRAM region; the top half of the
// region backs the node's virtual SD card (paper §3.4.2), the bottom half is
// main memory. Device (uncacheable) space sits far above DRAM.
const (
	// DRAMBase is where node 0's DRAM region starts (the RISC-V reset
	// region sits below it).
	DRAMBase uint64 = 0x8000_0000
	// NodeDRAMSize is each node's DRAM region (1 GiB modeled; F1 boards
	// carry 16 GiB per channel, shrunk here to keep addresses compact).
	NodeDRAMSize uint64 = 1 << 30
	// ResetPC is where cores start executing (the host loads the boot
	// program there).
	ResetPC uint64 = DRAMBase

	// DevBase is the start of uncacheable device space. Bits [39:32]
	// select the node, bits of the offset select the device.
	DevBase uint64 = 0xF0_0000_0000

	// Device offsets within a node's device window.
	DevUART0    uint64 = 0x0000_1000
	DevUART1    uint64 = 0x0000_2000
	DevSD       uint64 = 0x0000_3000
	DevCLINT    uint64 = 0x0200_0000
	DevPLIC     uint64 = 0x0C00_0000
	DevAccel    uint64 = 0x4000_0000 // + tile<<16: per-tile accelerator MMIO
	DevNodeSize uint64 = 1 << 32
)

// AddrMap answers placement questions for a prototype's address space.
type AddrMap struct {
	nodes        int
	tilesPerNode int
	unified      bool
}

// NewAddrMap builds the map for a prototype.
func NewAddrMap(nodes, tilesPerNode int, unified bool) *AddrMap {
	return &AddrMap{nodes: nodes, tilesPerNode: tilesPerNode, unified: unified}
}

// NodeDRAMBase returns the start of a node's DRAM region.
func (m *AddrMap) NodeDRAMBase(node int) uint64 {
	return DRAMBase + uint64(node)*NodeDRAMSize
}

// MainMemorySize is the usable main memory per node (bottom half).
func (m *AddrMap) MainMemorySize() uint64 { return NodeDRAMSize / 2 }

// SDCardBase returns the physical address of a node's virtual SD card image
// (top half of the node's DRAM).
func (m *AddrMap) SDCardBase(node int) uint64 {
	return m.NodeDRAMBase(node) + NodeDRAMSize/2
}

// IsDRAM reports whether addr falls in any node's DRAM region.
func (m *AddrMap) IsDRAM(addr uint64) bool {
	return addr >= DRAMBase && addr < DRAMBase+uint64(m.nodes)*NodeDRAMSize
}

// IsUncached reports whether addr is device space.
func (m *AddrMap) IsUncached(addr uint64) bool { return addr >= DevBase }

// HomeNode returns the node owning addr's DRAM region. With unified memory
// disabled, every node is its own coherence domain, so the caller's node is
// the home; pass it as fallback.
func (m *AddrMap) HomeNode(addr uint64, callerNode int) int {
	if !m.unified {
		return callerNode
	}
	if !m.IsDRAM(addr) {
		return callerNode
	}
	return int((addr - DRAMBase) / NodeDRAMSize)
}

// HomeTile returns the LLC slice within the home node: cache lines
// interleave across the node's slices (SMAPPIC's out-of-the-box homing).
func (m *AddrMap) HomeTile(addr uint64) int {
	return int(addr >> 6 % uint64(m.tilesPerNode))
}

// DevNode extracts the node index from a device address.
func (m *AddrMap) DevNode(addr uint64) int {
	return int((addr - DevBase) / DevNodeSize)
}

// DevOffset returns the offset within the node's device window.
func (m *AddrMap) DevOffset(addr uint64) uint64 {
	return (addr - DevBase) % DevNodeSize
}

// AccelTile extracts the tile index from a per-tile accelerator address,
// reporting ok=false for non-accelerator device offsets.
func (m *AddrMap) AccelTile(off uint64) (tile int, devOff uint64, ok bool) {
	if off < DevAccel {
		return 0, 0, false
	}
	rel := off - DevAccel
	tile = int(rel >> 16)
	if tile >= m.tilesPerNode {
		return 0, 0, false
	}
	return tile, rel & 0xFFFF, true
}
