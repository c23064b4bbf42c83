// Package axi models the AXI4 and AXI-Lite interfaces that the AWS F1 Hard
// Shell exposes to Custom Logic. Only the aspects the platform observes are
// modeled: addresses, IDs, 64-byte alignment rules, per-target serialization
// and request/response pairing. Signal-level handshakes (five channels,
// bursts) are abstracted into one request/response exchange per transfer,
// with the channel roles documented where SMAPPIC's bridge packs NoC traffic
// into them.
package axi

// Addr is a 64-bit AXI address.
type Addr = uint64

// ID tags an outstanding AXI4 transaction. The F1 shell supports 16 IDs per
// direction; models allocate from their own ID spaces.
type ID uint16

// BeatBytes is the AXI4 data-bus width on F1 (512-bit).
const BeatBytes = 64

// Align rounds addr down to a 64-byte boundary, as required by the F1 AXI4
// interfaces. The second return is the offset of addr within the beat.
func Align(addr Addr) (aligned Addr, offset int) {
	return addr &^ (BeatBytes - 1), int(addr & (BeatBytes - 1))
}

// WriteReq is one AXI4 write: the aw channel carries Addr and ID, the w
// channel carries Data. Data longer than BeatBytes models a burst.
type WriteReq struct {
	Addr Addr
	ID   ID
	Data []byte
	// User carries model-level payload riding on the write (e.g. the NoC
	// flits the SMAPPIC bridge encodes into the w channel). The physical
	// system would serialize it into Data; carrying it structured avoids
	// a useless encode/decode round trip in simulation while Data keeps
	// the size for timing.
	User any
}

// WriteResp is the b channel: completion acknowledgement for a write.
type WriteResp struct {
	ID ID
	OK bool
}

// ReadReq is the ar channel: a read of Len bytes at Addr.
type ReadReq struct {
	Addr Addr
	ID   ID
	Len  int
}

// ReadResp is the r channel: data returned for a read.
type ReadResp struct {
	ID   ID
	Data []byte
	OK   bool
	User any
}

// Target is anything that accepts AXI4 transactions. Completion callbacks
// fire as simulation events; they may fire synchronously.
type Target interface {
	Write(req *WriteReq, done func(*WriteResp))
	Read(req *ReadReq, done func(*ReadResp))
}

// LiteTarget is an AXI-Lite register file: single 32-bit accesses, no IDs,
// no bursts. The F1 shell provides three AXI-Lite taps for management.
type LiteTarget interface {
	ReadReg(addr Addr) uint32
	WriteReg(addr Addr, v uint32)
}
