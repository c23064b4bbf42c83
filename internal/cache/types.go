// Package cache implements the BYOC memory subsystem that SMAPPIC nodes are
// built around: per-tile private caches (L1 + BYOC Private Cache) and the
// distributed, directory-coherent last-level cache (LLC), spanning nodes.
//
// The protocol is home-centric MESI, as in OpenPiton's P-Mesh: the LLC slice
// that is a line's home serializes all transactions on that line (blocking
// directory) and owners/sharers respond through the home (4-hop). Requests
// travel on NoC1, home-to-cache grants and probes on NoC2, cache-to-home
// responses and memory traffic on NoC3, so the three-channel mesh cannot
// deadlock.
//
// SMAPPIC's homing change (paper §3.1, stage 1) is implemented here: unlike
// BYOC's Coherence Domain Restriction, the home of a cache line is derived
// from its physical address — the node owning the DRAM region is the home
// node, and the slice within that node is chosen by line interleaving — so
// multi-node coherence works out of the box with no software support.
//
// Functional data lives in the backing store (package mem) and is moved at
// access-completion time; the protocol here carries permissions and timing.
package cache

import (
	"smappic/internal/mem"
	"smappic/internal/noc"
)

// LineBytes is the coherence granule.
const LineBytes = 64

// LineOf masks an address down to its cache line.
func LineOf(addr uint64) uint64 { return addr &^ (LineBytes - 1) }

// GID names a tile globally: node index and tile index within the node.
type GID struct {
	Node int
	Tile int
}

// MsgOp enumerates coherence protocol messages.
type MsgOp int

const (
	// Requests (NoC1), cache -> home.
	GetS MsgOp = iota // read permission
	GetM              // write permission
	PutS              // clean eviction notice
	PutM              // dirty eviction writeback

	// Probes (NoC2), home -> cache.
	Inv       // invalidate your copy
	Downgrade // demote M/E to S, return data

	// Probe responses (NoC3), cache -> home.
	InvAck
	DownAck

	// Grants (NoC2), home -> requester.
	DataS // shared copy
	DataE // exclusive clean copy (no other sharers existed)
	DataM // modify permission
)

// String returns the protocol name of the operation.
func (op MsgOp) String() string {
	switch op {
	case GetS:
		return "GetS"
	case GetM:
		return "GetM"
	case PutS:
		return "PutS"
	case PutM:
		return "PutM"
	case Inv:
		return "Inv"
	case Downgrade:
		return "Downgrade"
	case InvAck:
		return "InvAck"
	case DownAck:
		return "DownAck"
	case DataS:
		return "DataS"
	case DataE:
		return "DataE"
	case DataM:
		return "DataM"
	}
	return "MsgOp?"
}

// Msg is one coherence protocol message.
type Msg struct {
	Op   MsgOp
	Line uint64
	From GID // sender
	Req  GID // original requester (meaningful at the home)
}

// Flits returns the NoC flit count of the message: data-bearing messages
// carry the 64-byte line (1 header + 8 data flits); control messages are
// the OpenPiton 3-flit request format or a single-flit ack.
func (m *Msg) Flits() int {
	switch m.Op {
	case DataS, DataE, DataM, DownAck, PutM:
		return 1 + LineBytes/8
	case InvAck:
		return 1
	default:
		return 3
	}
}

// Class returns the NoC channel the message travels on.
func (m *Msg) Class() noc.Class {
	switch m.Op {
	case GetS, GetM, PutS, PutM:
		return noc.NoC1
	case Inv, Downgrade, DataS, DataE, DataM:
		return noc.NoC2
	default:
		return noc.NoC3
	}
}

// Conn is the transport the platform provides to cache components. It hides
// whether a destination is on the local mesh or behind the inter-node
// bridge.
type Conn interface {
	// SendProto routes a coherence message from one tile to another,
	// possibly across nodes.
	SendProto(from GID, to GID, msg *Msg)
	// SendMem sends a request from a tile to its node's memory controller
	// (home LLC slices and their DRAM channel are always co-located).
	SendMem(from GID, req *mem.Req)
}

// HomeFunc maps a line address to its home LLC slice.
type HomeFunc func(line uint64) GID

// Table 2 timing and associativity, shared by every cache of the system.
const (
	// Ways is the associativity of every L1, BPC and LLC array.
	Ways = 4

	l1Latency  = 1  // cycles for an L1 hit
	bpcLatency = 8  // BPC lookup
	llcLatency = 20 // LLC slice lookup (includes directory)
	maxMSHRs   = 8  // outstanding misses per BPC
)

// Params sets the cache sizes (defaults follow paper Table 2).
type Params struct {
	L1ISizeBytes int
	L1DSizeBytes int
	BPCSizeBytes int
	LLCSliceSize int
}

// DefaultParams returns the Table 2 sizes: L1D 8KB, L1I 16KB, BPC 8KB,
// LLC slice 64KB.
func DefaultParams() Params {
	return Params{
		L1ISizeBytes: 16 << 10,
		L1DSizeBytes: 8 << 10,
		BPCSizeBytes: 8 << 10,
		LLCSliceSize: 64 << 10,
	}
}
