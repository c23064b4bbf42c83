package core

import (
	"fmt"

	"smappic/internal/cache"
	"smappic/internal/riscv"
	"smappic/internal/sim"
)

// corePort implements riscv.Mem for a tile: a Port plus instruction fetch,
// with accesses to uncacheable addresses routed to the Port's MMIO round
// trips (a hart does not choose the access kind; the address map does).
type corePort struct{ *Port }

var _ riscv.Mem = corePort{}

func (cp corePort) Fetch(p *sim.Process, addr uint64) uint32 {
	cp.tile.Priv.Fetch(addr, p.Suspend())
	p.Park()
	return cp.pr.Backing.ReadU32(addr)
}

func (cp corePort) Load(p *sim.Process, addr uint64, size int) uint64 {
	if cp.pr.Map.IsUncached(addr) {
		return cp.MMIOLoad(p, addr, size)
	}
	return cp.Port.Load(p, addr, size)
}

func (cp corePort) Store(p *sim.Process, addr uint64, size int, v uint64) {
	if cp.pr.Map.IsUncached(addr) {
		cp.MMIOStore(p, addr, size, v)
		return
	}
	cp.Port.Store(p, addr, size, v)
}

func readBacking(pr *Prototype, addr uint64, size int) uint64 {
	switch size {
	case 1:
		return uint64(pr.Backing.ReadU8(addr))
	case 2:
		return uint64(pr.Backing.ReadU16(addr))
	case 4:
		return uint64(pr.Backing.ReadU32(addr))
	case 8:
		return pr.Backing.ReadU64(addr)
	}
	panic(fmt.Sprintf("core: bad access size %d", size))
}

func writeBacking(pr *Prototype, addr uint64, size int, v uint64) {
	switch size {
	case 1:
		pr.Backing.WriteU8(addr, uint8(v))
	case 2:
		pr.Backing.WriteU16(addr, uint16(v))
	case 4:
		pr.Backing.WriteU32(addr, uint32(v))
	case 8:
		pr.Backing.WriteU64(addr, v)
	default:
		panic(fmt.Sprintf("core: bad access size %d", size))
	}
}

// ReadPhys reads simulated memory functionally (host/debug access, no
// simulated time).
func (p *Prototype) ReadPhys(addr uint64, size int) uint64 { return readBacking(p, addr, size) }

// Port is the execution-driven interface for workload threads (the fast
// path for large studies): Go code issues loads and stores that charge real
// memory-system timing and move data in simulated memory, without running
// an ISA-level core.
type Port struct {
	tile *Tile
	pr   *Prototype
	// mmio is the port's one uncacheable access record, reused by every
	// MMIO round trip; wake resumes the process parked on it.
	mmio mmioReq
	wake func()
}

// PortAt returns the workload port of a tile.
func (p *Prototype) PortAt(g cache.GID) *Port { return newPort(p.Tile(g), p) }

func newPort(t *Tile, p *Prototype) *Port {
	pt := &Port{tile: t, pr: p}
	pt.mmio.resp.done = func(uint64) { pt.wake() }
	return pt
}

// Every access uses the Suspend/Park split: the process's pooled completion
// goes straight to the cache stack (or, for MMIO, into the port's record),
// so the per-access path allocates nothing, and functional data moves in
// the backing store at completion time.

// Load reads size bytes at addr through the cache hierarchy.
func (pt *Port) Load(p *sim.Process, addr uint64, size int) uint64 {
	pt.tile.Priv.Load(addr, p.Suspend())
	p.Park()
	return readBacking(pt.pr, addr, size)
}

// Store writes size bytes at addr through the cache hierarchy.
func (pt *Port) Store(p *sim.Process, addr uint64, size int, v uint64) {
	pt.tile.Priv.Store(addr, p.Suspend())
	p.Park()
	writeBacking(pt.pr, addr, size, v)
}

// LoadAsync issues a non-blocking load; done receives the value at
// completion time. Callers (e.g. the MAPLE engine) use it to keep several
// misses in flight, bounded by the BPC's MSHRs.
func (pt *Port) LoadAsync(addr uint64, size int, done func(uint64)) {
	pt.tile.Priv.Load(addr, func() { done(readBacking(pt.pr, addr, size)) })
}

// StoreAsync issues a non-blocking store: the value lands when write
// permission arrives, without stalling the caller (MAPLE's decoupled
// update path).
func (pt *Port) StoreAsync(addr uint64, size int, v uint64) {
	pt.tile.Priv.Store(addr, func() { writeBacking(pt.pr, addr, size, v) })
}

// Amo performs an atomic read-modify-write at addr: op.Apply(old, operand)
// replaces the old value, which it returns.
func (pt *Port) Amo(p *sim.Process, addr uint64, size int, op riscv.AmoOp, operand uint64) uint64 {
	pt.tile.Priv.Amo(addr, p.Suspend())
	p.Park()
	// The line is held in M here; the read-modify-write is atomic in the
	// simulated interleaving.
	old := readBacking(pt.pr, addr, size)
	writeBacking(pt.pr, addr, size, op.Apply(old, operand, size))
	return old
}

// MMIOLoad performs an uncacheable device read (e.g. an accelerator fetch).
func (pt *Port) MMIOLoad(p *sim.Process, addr uint64, size int) uint64 {
	pt.mmioAccess(p, false, addr, size, 0)
	return pt.mmio.resp.val
}

// MMIOStore performs an uncacheable device write.
func (pt *Port) MMIOStore(p *sim.Process, addr uint64, size int, v uint64) {
	pt.mmioAccess(p, true, addr, size, v)
}

// mmioAccess sends one round trip in the port's record and parks p until
// the answer is back in it.
func (pt *Port) mmioAccess(p *sim.Process, write bool, addr uint64, size int, v uint64) {
	pt.mmio = mmioReq{write: write, addr: addr, size: size, val: v, resp: mmioResp{done: pt.mmio.resp.done}}
	pt.wake = p.Suspend()
	pt.pr.sendMMIO(pt.tile, &pt.mmio)
	p.Park()
}
