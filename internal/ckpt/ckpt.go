// Package ckpt defines the snapshot format for deterministic
// checkpoint/restore of SMAPPIC prototypes.
//
// A snapshot file is a small binary envelope around one payload:
//
//	magic "SMCK" | version uint32 LE | kind byte | payload len uint64 LE |
//	payload (encoding/gob of Snapshot) | SHA-256 over everything prior
//
// The trailing digest makes truncation and corruption detectable before any
// field is interpreted; the version gate refuses payloads this build cannot
// decode or must not trust (format version 1 carried the same struct as
// JSON; version 2 serial cursors counted executed events and version 3
// cursors counted synchronization windows, cursors no build can replay any
// more; version 4 state captures held one statistics registry per shard,
// which the decoder would silently drop — each is a VersionError, which
// callers treat as "discard, start cold"). The payload
// codec is reflection-driven, so a field added to a state struct needs no
// codec code; the bulk sections are shaped for its fast paths — cache tag
// arrays are columnar (SetAssocState) and memory pages are raw bytes. All
// map-shaped state is serialized as sorted arrays so equal simulation states
// produce byte-identical snapshots.
//
// One snapshot kind exists (see DESIGN.md "Snapshot format"): KindState
// records the full device state at a quiescent workload safepoint (every
// event queue drained, every thread parked or exited at a barrier cut), laid
// out by node. Restore rebuilds the prototype, overlays the state and resumes
// the workload threads at their recorded times — the simulated prefix is
// skipped, which is what campaign crash-resume needs.
// The envelope keeps its kind byte: any other kind, including the replay
// cursors of earlier builds (kind 1), is refused as corrupt.
//
// The package owns only the format: each subsystem writes and checks its
// own rows (sim, cache, noc, pcie, bridge, mem, fault, kernel, workload),
// and core.Prototype.CaptureState/ApplyState assembles them.
package ckpt

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Version is the snapshot format version this build reads and writes.
const Version = 5

// magic identifies a SMAPPIC snapshot file.
var magic = [4]byte{'S', 'M', 'C', 'K'}

// headerLen is the envelope ahead of the payload: magic, version, kind,
// payload length.
const headerLen = len(magic) + 4 + 1 + 8

// Kind names what a snapshot encodes, in the envelope and in the payload.
type Kind uint8

// KindState is a full quiescent-state capture: restore overlays state.
const KindState Kind = 2

// String names the kind for error messages.
func (k Kind) String() string {
	if k == KindState {
		return "state"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// CorruptError reports a snapshot whose envelope or digest is damaged.
type CorruptError struct{ Reason string }

func (e *CorruptError) Error() string { return "ckpt: corrupt snapshot: " + e.Reason }

// TruncatedError reports a snapshot shorter than its envelope promises.
type TruncatedError struct{ Want, Got int64 }

func (e *TruncatedError) Error() string {
	return fmt.Sprintf("ckpt: truncated snapshot: want %d bytes, got %d", e.Want, e.Got)
}

// VersionError reports a snapshot written by an incompatible format version.
type VersionError struct{ Got, Want uint32 }

func (e *VersionError) Error() string {
	return fmt.Sprintf("ckpt: snapshot format version %d; this build reads version %d", e.Got, e.Want)
}

// MismatchError reports a snapshot that is well-formed but does not belong
// to the configuration (or program, or workload) it is being restored into.
type MismatchError struct{ Field, Got, Want string }

func (e *MismatchError) Error() string {
	return fmt.Sprintf("ckpt: snapshot %s mismatch: snapshot has %q, restore target has %q", e.Field, e.Got, e.Want)
}

// IsSnapshotError reports whether err is (or wraps) any of this package's
// typed snapshot errors — the "this snapshot is unusable" class a caller
// handles by discarding the snapshot and starting cold.
func IsSnapshotError(err error) bool {
	var ce *CorruptError
	var te *TruncatedError
	var ve *VersionError
	var me *MismatchError
	return errors.As(err, &ce) || errors.As(err, &te) || errors.As(err, &ve) || errors.As(err, &me)
}

// Snapshot is the decoded payload of a snapshot file.
type Snapshot struct {
	Kind Kind

	// ConfigHash fingerprints the full core.Config the snapshot was taken
	// under; restore refuses a different configuration.
	ConfigHash string

	// Workload tags what was running (the workload's parameters, e.g.
	// ISParams.Tag); a campaign resume refuses a different tag.
	Workload string

	// Now is the engine clock at capture: the drain time of the cut, where
	// the restored run's clock starts.
	Now uint64

	State *State
}

// State is the full quiescent-state section of a snapshot. Every
// subsystem contributes one entry; core assembles and applies them in a
// fixed order. Transient structures (MSHRs, directory queues, bridge send
// queues, PCIe exchange pools, in-flight memory ops) are provably empty at
// a quiescent safepoint and are deliberately absent — see DESIGN.md.
type State struct {
	Mem      MemState
	Nodes    []NodeState
	PCIe     PCIeState
	Fault    *FaultState
	Kernel   *KernelState
	Workload *WorkloadState
}

// MemState is the backing store: every materialized page, sorted by number.
type MemState struct {
	PageBytes int
	Pages     []MemPage
}

// MemPage is one backing page. Data is the raw page contents.
type MemPage struct {
	Page uint64
	Data []byte
}

// NodeState is one node's device state and statistics registry (which also
// holds the instruments of the FPGA whose slot 0 the node is).
type NodeState struct {
	Node   int
	DRAM   DRAMState
	MemCtl MemCtlState
	NoC    NoCState
	Bridge BridgeState
	Tiles  []TileState
	Stats  StatsState
}

// DRAMState is a DRAM channel's timing state.
type DRAMState struct {
	Busy uint64
}

// MemCtlState is a memory controller's monotonic state.
type MemCtlState struct {
	NextID uint64
}

// NoCState is a mesh's link/router timing state.
type NoCState struct {
	NextFree  [][]uint64
	LinkFlits [][]uint64
	LinkBusy  [][]uint64
}

// BridgeState is an inter-node bridge's credit bookkeeping, keyed by
// destination node (sorted), plus the outbound shaper's bandwidth clock
// when the link is shaped.
type BridgeState struct {
	Dsts       []BridgeDstState
	ShaperBusy uint64
}

// BridgeDstState is the per-destination credit state of one bridge: the
// send side's credits and the last freed total it saw from Dst, and the
// receive side's running total of flits freed from Dst.
type BridgeDstState struct {
	Dst        int
	Credits    int
	Returned   uint64
	FreedTotal uint64
	CrFails    int
	Wedged     bool
}

// TileState is one tile's cache state.
type TileState struct {
	Tile int
	L1I  SetAssocState
	L1D  SetAssocState
	BPC  SetAssocState
	LLC  SetAssocState
	Dir  []DirEntry
	// NextTag is the LLC slice's monotonic transaction-tag counter.
	NextTag uint64
}

// SetAssocState is a set-associative array: the LRU tick plus every way of
// every set, one column per way field. Way w of set s is element
// s*(len(Line)/Sets)+w of each column; the four columns have equal length.
type SetAssocState struct {
	Tick  uint64
	Sets  int
	Line  []uint64
	State []uint8
	Dirty []bool
	LRU   []uint64
}

// DirEntry is one LLC directory entry, with sharers in sorted GID order.
type DirEntry struct {
	Line    uint64
	State   uint8
	Owner   GIDState
	Sharers []GIDState
}

// GIDState is a cache.GID in serializable form.
type GIDState struct {
	Node int
	Tile int
}

// PCIeState is the fabric's reliable-transport state: per-endpoint egress
// clocks and the per-(src,dst) send sequence numbers. The replay cache's
// dedup entries are reception history — at quiescence every sequence below
// NextSeq has been delivered and acknowledged, so NextSeq alone is the
// protocol state.
type PCIeState struct {
	Endpoints []PCIeEndpointState
	Seqs      []PCIeSeqState
}

// PCIeEndpointState is one endpoint's egress serialization clock.
type PCIeEndpointState struct {
	ID     int
	Egress uint64
}

// PCIeSeqState is one ordered (src,dst) reliable-channel sequence counter.
// Src/Dst use the fabric's internal indexing (0 = host, 1+fpga = endpoint).
type PCIeSeqState struct {
	Src     int
	Dst     int
	NextSeq uint64
}

// FaultState is the injector's deterministic progress: per-site RNG streams
// and per-rule fire counts, sorted by site name.
type FaultState struct {
	Sites []FaultSiteState
}

// FaultSiteState is one site's state.
type FaultSiteState struct {
	Name       string
	RNG        uint64
	Hung       bool
	StallUntil uint64
	Rules      []FaultRuleState
}

// FaultRuleState is one rule's counters on one site.
type FaultRuleState struct {
	Seen  uint64
	Fired uint64
}

// StatsState is a full-fidelity dump of one stats registry (unlike
// sim.Stats.Snapshot it preserves histogram bins and gauge high-water
// marks, so a restored registry renders byte-identical reports).
type StatsState struct {
	Counters []CounterState
	Gauges   []GaugeState
	Hists    []HistState
}

// CounterState is one counter.
type CounterState struct {
	Name  string
	Value uint64
}

// GaugeState is one gauge with its high-water mark.
type GaugeState struct {
	Name  string
	Value int64
	High  int64
}

// HistState is one histogram including its bins.
type HistState struct {
	Name    string
	Samples uint64
	Sum     uint64
	Min     uint64
	Max     uint64
	Bins    []uint64
}

// KernelState is the mini-OS state: page tables and per-thread context.
type KernelState struct {
	NextVA  uint64
	Pages   []KernelPageState
	Threads []ThreadState
	// BarrierReleased is the futex barrier's released-round watermark.
	BarrierReleased uint64
}

// KernelPageState is one installed page-table entry. Phys is the page's
// direct-mapped frame, which names the node it was placed on.
type KernelPageState struct {
	VPage uint64
	Phys  uint64
}

// ThreadState is one kernel thread's context, captured at a barrier cut.
type ThreadState struct {
	ID         int
	Hart       int
	RNG        uint64
	NextMigr   uint64
	Migrations int
	BarEpoch   uint64
	TLB        []KernelPageState
}

// WorkloadState is the workload's resume cursor. Resume order is the order
// threads exited the cut barrier (the canonical wake order); restoring
// wakes them in exactly this order at their recorded times, which
// reproduces the uninterrupted run's event interleaving bit for bit.
type WorkloadState struct {
	Name   string
	Phase  int    // barriers completed; resume at phase Phase+1
	Start  uint64 // workload start time (cycle measurement base)
	Resume []ResumePoint
}

// ResumePoint is one thread's resume record, in barrier exit order.
type ResumePoint struct {
	Thread   int
	ResumeAt uint64
}

// Write encodes the snapshot into the envelope format: the payload is
// encoded straight behind a reserved header, the length patched in, and the
// whole buffer hashed and written once.
func (s *Snapshot) Write(w io.Writer) error {
	var buf bytes.Buffer
	buf.Write(magic[:])
	var hdr [headerLen - len(magic)]byte
	binary.LittleEndian.PutUint32(hdr[0:4], Version)
	hdr[4] = byte(s.Kind)
	buf.Write(hdr[:])
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		return fmt.Errorf("ckpt: encoding snapshot: %w", err)
	}
	data := buf.Bytes()
	binary.LittleEndian.PutUint64(data[headerLen-8:headerLen], uint64(len(data)-headerLen))
	sum := sha256.Sum256(data)
	buf.Write(sum[:])
	_, err := w.Write(buf.Bytes())
	return err
}

// WriteFile writes the snapshot atomically (temp file + rename), so a crash
// mid-write can never leave a half-written snapshot under the final name.
// The temp file is unique, so writers racing to one path each rename a
// whole snapshot of their own into place.
func (s *Snapshot) WriteFile(path string) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	err = s.Write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// Read decodes and verifies a snapshot: magic, version, length, digest.
// Every failure mode returns a typed error (CorruptError, TruncatedError,
// VersionError); Read never panics on hostile input.
func Read(r io.Reader) (*Snapshot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("ckpt: reading snapshot: %w", err)
	}
	return decode(data)
}

// ReadFile reads and verifies a snapshot file, read in one piece at its
// stat'ed size.
func ReadFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decode(data)
}

// decode verifies the envelope of a whole snapshot file and decodes its
// payload. The length frame is checked against the bytes actually present
// before anything is sized from it.
func decode(data []byte) (*Snapshot, error) {
	if len(data) < headerLen+sha256.Size {
		return nil, &TruncatedError{Want: int64(headerLen + sha256.Size), Got: int64(len(data))}
	}
	if !bytes.Equal(data[:4], magic[:]) {
		return nil, &CorruptError{Reason: "bad magic (not a SMAPPIC snapshot)"}
	}
	version := binary.LittleEndian.Uint32(data[4:8])
	if version != Version {
		return nil, &VersionError{Got: version, Want: Version}
	}
	kind := Kind(data[8])
	plen := binary.LittleEndian.Uint64(data[9:headerLen])
	want := int64(headerLen) + int64(plen) + sha256.Size
	if plen > uint64(len(data)) || int64(len(data)) < want {
		return nil, &TruncatedError{Want: want, Got: int64(len(data))}
	}
	if int64(len(data)) > want {
		return nil, &CorruptError{Reason: fmt.Sprintf("%d trailing bytes after digest", int64(len(data))-want)}
	}
	body := data[:headerLen+int(plen)]
	sum := sha256.Sum256(body)
	if !bytes.Equal(sum[:], data[len(body):]) {
		return nil, &CorruptError{Reason: "SHA-256 digest mismatch"}
	}
	var s Snapshot
	payload := bytes.NewReader(body[headerLen:])
	if err := gob.NewDecoder(payload).Decode(&s); err != nil {
		return nil, &CorruptError{Reason: "payload does not decode: " + err.Error()}
	}
	if payload.Len() != 0 {
		return nil, &CorruptError{Reason: fmt.Sprintf("%d undecoded bytes after the payload value", payload.Len())}
	}
	if s.Kind != kind {
		return nil, &CorruptError{Reason: "payload kind disagrees with envelope kind"}
	}
	if s.Kind != KindState {
		return nil, &CorruptError{Reason: "unknown snapshot kind " + s.Kind.String()}
	}
	if s.State == nil {
		return nil, &CorruptError{Reason: "state snapshot without state section"}
	}
	return &s, nil
}
