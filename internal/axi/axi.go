// Package axi models the AXI4 interfaces that the AWS F1 Hard Shell exposes
// to Custom Logic. Only the aspects the platform observes are modeled:
// addresses, IDs, 64-byte alignment rules, per-target serialization and
// request/response pairing. Signal-level handshakes (five channels,
// bursts) are abstracted into one exchange per transfer: a Txn handed to a
// Target and the Resp that completes it, whichever direction the transfer
// moves data in. The channel roles are documented where SMAPPIC's bridge
// packs NoC traffic into them.
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

// Txn is one AXI4 transfer. A write is the aw channel (Addr, ID) plus the w
// channel (Data; longer than BeatBytes models a burst); a read is the ar
// channel, Len bytes at Addr. The two narrow fields come last so a Txn fits
// a 64-byte allocation.
type Txn struct {
	Addr Addr
	Data []byte // a write's payload
	Len  int    // a read's length
	// User carries model-level payload riding on the transfer (e.g. the NoC
	// flits the SMAPPIC bridge encodes into the w channel). The physical
	// system would serialize it into Data; carrying it structured avoids a
	// useless encode/decode round trip in simulation while Data keeps the
	// size for timing.
	User  any
	ID    ID
	Write bool
}

// Size is the number of bytes the transfer moves: a write's Data, a read's
// Len.
func (t *Txn) Size() int {
	if t.Write {
		return len(t.Data)
	}
	return t.Len
}

// Resp completes a Txn: the b channel's acknowledgement for a write, the r
// channel's Data for a read. User is the model-level counterpart of Txn.User.
type Resp struct {
	Data []byte
	User any
	ID   ID
	OK   bool
}

// Target is anything that accepts AXI4 transfers. Completion callbacks fire
// as simulation events; they may fire synchronously. The Resp travels by
// value, so an acknowledgement costs no allocation.
//
// Ownership: the master may recycle t as soon as done is called, so Do
// reads everything it needs from t before it calls done and never touches t
// afterwards.
type Target interface {
	Do(t *Txn, done func(Resp))
}
