// Package mem provides the memory subsystem: the functional backing store
// holding the prototype's physical memory, the DRAM device model, and the
// NoC-AXI4 memory controller from paper §3.2 (Fig. 5).
//
// Functional data lives in the backing store and is read/written at the
// simulation time an access completes; caches (package cache) track only
// coherence state and timing. This split — standard in architecture
// simulators — keeps the coherence protocol race-free functionally while
// the timing model still generates the full message traffic.
package mem

import (
	"fmt"
	"sort"
	"sync"

	"smappic/internal/ckpt"
)

// pageBits is the granularity of on-demand allocation in the backing store:
// the host kernel's 4 KiB page, which is also the kernel model's frame
// (kernel.PageBytes), so a touched frame materialises one page and a
// snapshot carries only the frames a run wrote or read.
const pageBits = 12 // 4 KiB pages

// Backing is a sparse flat physical memory. It allocates 4 KiB pages on
// first touch, so multi-GB address spaces cost only what is actually used.
// The zero value is ready to use.
//
// Under sharded execution several shard goroutines touch the store inside a
// window, so the page map is guarded by a lock. The data bytes themselves
// are not: conflicting same-line accesses from different shards are
// serialized by the coherence protocol, whose permission transfer crosses
// the PCIe fabric and therefore separates the accesses by at least the
// lookahead window — a synchronization barrier (and its happens-before
// edge) always sits between them.
type Backing struct {
	mu    sync.RWMutex
	pages map[uint64][]byte
}

// NewBacking returns an empty backing store.
func NewBacking() *Backing { return &Backing{pages: make(map[uint64][]byte)} }

func (b *Backing) page(addr uint64) []byte {
	key := addr >> pageBits
	b.mu.RLock()
	p, ok := b.pages[key]
	b.mu.RUnlock()
	if ok {
		return p
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.pages == nil {
		b.pages = make(map[uint64][]byte)
	}
	p, ok = b.pages[key]
	if !ok {
		p = make([]byte, 1<<pageBits)
		b.pages[key] = p
	}
	return p
}

// CaptureState copies every materialized page into snapshot form, sorted by
// page number so equal memory images serialize byte-identically.
func (b *Backing) CaptureState() ckpt.MemState {
	b.mu.RLock()
	defer b.mu.RUnlock()
	st := ckpt.MemState{PageBytes: 1 << pageBits}
	for key, p := range b.pages {
		data := make([]byte, len(p))
		copy(data, p)
		st.Pages = append(st.Pages, ckpt.MemPage{Page: key, Data: data})
	}
	sort.Slice(st.Pages, func(i, j int) bool { return st.Pages[i].Page < st.Pages[j].Page })
	return st
}

// RestoreState replaces the store's contents with a captured image.
func (b *Backing) RestoreState(st ckpt.MemState) error {
	if st.PageBytes != 1<<pageBits {
		return &ckpt.MismatchError{Field: "backing page size",
			Got: fmt.Sprint(st.PageBytes), Want: fmt.Sprint(1 << pageBits)}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.pages = make(map[uint64][]byte, len(st.Pages))
	for _, pg := range st.Pages {
		if len(pg.Data) != 1<<pageBits {
			return &ckpt.CorruptError{Reason: fmt.Sprintf("backing page %#x has %d bytes", pg.Page, len(pg.Data))}
		}
		data := make([]byte, len(pg.Data))
		copy(data, pg.Data)
		b.pages[pg.Page] = data
	}
	return nil
}

// ReadBytes copies len(dst) bytes starting at addr into dst.
func (b *Backing) ReadBytes(addr uint64, dst []byte) {
	for len(dst) > 0 {
		p := b.page(addr)
		off := addr & (1<<pageBits - 1)
		n := copy(dst, p[off:])
		dst = dst[n:]
		addr += uint64(n)
	}
}

// WriteBytes copies src into memory starting at addr.
func (b *Backing) WriteBytes(addr uint64, src []byte) {
	for len(src) > 0 {
		p := b.page(addr)
		off := addr & (1<<pageBits - 1)
		n := copy(p[off:], src)
		src = src[n:]
		addr += uint64(n)
	}
}

// ReadU64 reads a little-endian 64-bit word. addr must be 8-byte aligned.
func (b *Backing) ReadU64(addr uint64) uint64 {
	if addr&7 != 0 {
		panic(fmt.Sprintf("mem: unaligned ReadU64 at %#x", addr))
	}
	p := b.page(addr)
	off := addr & (1<<pageBits - 1)
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(p[off+uint64(i)]) << (8 * i)
	}
	return v
}

// WriteU64 writes a little-endian 64-bit word. addr must be 8-byte aligned.
func (b *Backing) WriteU64(addr, v uint64) {
	if addr&7 != 0 {
		panic(fmt.Sprintf("mem: unaligned WriteU64 at %#x", addr))
	}
	p := b.page(addr)
	off := addr & (1<<pageBits - 1)
	for i := 0; i < 8; i++ {
		p[off+uint64(i)] = byte(v >> (8 * i))
	}
}

// ReadU32 reads a little-endian 32-bit word. addr must be 4-byte aligned.
func (b *Backing) ReadU32(addr uint64) uint32 {
	if addr&3 != 0 {
		panic(fmt.Sprintf("mem: unaligned ReadU32 at %#x", addr))
	}
	var buf [4]byte
	b.ReadBytes(addr, buf[:])
	return uint32(buf[0]) | uint32(buf[1])<<8 | uint32(buf[2])<<16 | uint32(buf[3])<<24
}

// WriteU32 writes a little-endian 32-bit word. addr must be 4-byte aligned.
func (b *Backing) WriteU32(addr uint64, v uint32) {
	if addr&3 != 0 {
		panic(fmt.Sprintf("mem: unaligned WriteU32 at %#x", addr))
	}
	b.WriteBytes(addr, []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
}

// ReadU16 reads a little-endian 16-bit halfword.
func (b *Backing) ReadU16(addr uint64) uint16 {
	var buf [2]byte
	b.ReadBytes(addr, buf[:])
	return uint16(buf[0]) | uint16(buf[1])<<8
}

// WriteU16 writes a little-endian 16-bit halfword.
func (b *Backing) WriteU16(addr uint64, v uint16) {
	b.WriteBytes(addr, []byte{byte(v), byte(v >> 8)})
}

// ReadU8 reads one byte.
func (b *Backing) ReadU8(addr uint64) uint8 {
	p := b.page(addr)
	return p[addr&(1<<pageBits-1)]
}

// WriteU8 writes one byte.
func (b *Backing) WriteU8(addr uint64, v uint8) {
	p := b.page(addr)
	p[addr&(1<<pageBits-1)] = v
}
