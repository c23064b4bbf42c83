package workload

import (
	"fmt"

	"smappic/internal/accel"
	"smappic/internal/cache"
	"smappic/internal/kernel"
	"smappic/internal/sim"
)

// IrregularKernel names one of the Fig. 11 benchmarks.
type IrregularKernel string

const (
	SPMV IrregularKernel = "SPMV" // sparse matrix x dense vector
	SPMM IrregularKernel = "SPMM" // sparse matrix x dense matrix
	SDHP IrregularKernel = "SDHP" // sparse-dense Hadamard product
	BFS  IrregularKernel = "BFS"  // breadth-first search
)

// Kernels lists the Fig. 11 benchmarks in paper order.
var Kernels = []IrregularKernel{SPMV, SPMM, SDHP, BFS}

// IrregularMode selects the execution scheme compared in Fig. 11.
type IrregularMode string

const (
	OneThread  IrregularMode = "1 thread"
	WithMAPLE  IrregularMode = "MAPLE"
	TwoThreads IrregularMode = "2 threads"
)

// IrregularParams configure a Fig. 11 run. The paper uses a 1x1x6
// configuration with Ariane in tiles 0,1,4,5 and MAPLE in tiles 2,3.
type IrregularParams struct {
	Rows int
}

const (
	nnzPerRow = 8
	spmmCols  = 16 // SPMM's dense-matrix width
	csrSeed   = 9  // drives the matrix's structure and values
)

// DefaultIrregularParams returns a scaled dataset. The dense operand (16 KiB
// at 2048 rows) exceeds the private caches, so the gather misses the way the
// paper's full datasets do.
func DefaultIrregularParams() IrregularParams {
	return IrregularParams{Rows: 2048}
}

// csr is a synthetic compressed-sparse-row matrix living in simulated
// memory: rowPtr, colIdx, vals plus a dense operand.
type csr struct {
	rows, nnz   int
	rowPtr      uint64 // (rows+1) x 8B
	colIdx      uint64 // nnz x 8B
	vals        uint64 // nnz x 8B
	dense       uint64 // operand: vector (rows x 8B) or matrix
	out         uint64
	denseStride int
}

// buildCSR materializes the dataset through a setup thread so every page is
// touched (and placed) before measurement.
func buildCSR(k *kernel.Kernel, p IrregularParams, denseCols int) *csr {
	m := &csr{
		rows:        p.Rows,
		nnz:         p.Rows * nnzPerRow,
		denseStride: denseCols,
	}
	m.rowPtr = k.Alloc(uint64(p.Rows+1) * 8)
	m.colIdx = k.Alloc(uint64(m.nnz) * 8)
	m.vals = k.Alloc(uint64(m.nnz) * 8)
	m.dense = k.Alloc(uint64(p.Rows*denseCols) * 8)
	m.out = k.Alloc(uint64(p.Rows*denseCols) * 8)

	rng := sim.NewRNG(csrSeed)
	k.Spawn("setup", []int{0}, func(c *kernel.Ctx) {
		pos := 0
		for r := 0; r <= p.Rows; r++ {
			c.Store(m.rowPtr+uint64(r)*8, 8, uint64(pos))
			if r < p.Rows {
				pos += nnzPerRow
			}
		}
		for i := 0; i < m.nnz; i++ {
			c.Store(m.colIdx+uint64(i)*8, 8, uint64(rng.Intn(p.Rows)))
			c.Store(m.vals+uint64(i)*8, 8, uint64(rng.Intn(100)+1))
		}
		for i := 0; i < p.Rows*denseCols; i++ {
			c.Store(m.dense+uint64(i)*8, 8, uint64(rng.Intn(100)))
		}
	})
	k.Join()
	return m
}

// IrregularResult reports one (kernel, mode) cell of Fig. 11.
type IrregularResult struct {
	Kernel   IrregularKernel
	Mode     IrregularMode
	Cycles   sim.Time
	Checksum uint64
}

// RunIrregular executes one kernel in one mode on a 1x1x6-style prototype.
// Execute threads run on tiles 0 (and 1 for two-thread mode); MAPLE engines
// sit on tiles 2 (and 3).
func RunIrregular(k *kernel.Kernel, kind IrregularKernel, mode IrregularMode, p IrregularParams) IrregularResult {
	denseCols := 1
	if kind == SPMM {
		denseCols = spmmCols
	}
	m := buildCSR(k, p, denseCols)
	pr := k.Prototype()

	threads := 1
	if mode == TwoThreads {
		threads = 2
	}
	var engines []*accel.MAPLE
	if mode == WithMAPLE {
		engines = append(engines, accel.NewMAPLE(pr, cache.GID{Node: 0, Tile: 2}))
	}

	bar := k.NewBarrier(threads)
	var checksum uint64
	start := pr.Now()

	for ti := 0; ti < threads; ti++ {
		ti := ti
		lo := ti * m.rows / threads
		hi := (ti + 1) * m.rows / threads
		var eng *accel.MAPLE
		if mode == WithMAPLE {
			eng = engines[0]
			programMAPLE(k, eng, kind, m, lo, hi)
		}
		k.Spawn(fmt.Sprintf("exec%d", ti), []int{ti}, func(c *kernel.Ctx) {
			sum := runRows(c, eng, kind, m, lo, hi)
			bar.Wait(c)
			checksum += sum
		})
	}
	end := k.Join()
	return IrregularResult{Kernel: kind, Mode: mode, Cycles: end - start, Checksum: checksum}
}

// irregularStream enumerates the Access part's address stream — what MAPLE
// is programmed with. Decoupled Access-Execute moves every latency-critical
// load to the engine, so the stream interleaves two fetches per nonzero:
// the operand the kernel needs and the irregular gather. The engine reads
// the column indices itself while generating addresses (its address unit;
// the gather loads it issues are the charged traffic).
func irregularStream(k *kernel.Kernel, kind IrregularKernel, m *csr, lo, hi int) func(i int) (uint64, int, bool) {
	per := nnzOf(m, lo, hi)
	firstNNZ := int(k.Read(m.rowPtr+uint64(lo)*8, 8))
	col := func(j int) uint64 { return k.Read(m.colIdx+uint64(j)*8, 8) }
	return func(i int) (uint64, int, bool) {
		j := firstNNZ + i/2
		if i >= 2*per {
			return 0, 0, false
		}
		second := i%2 == 1
		switch kind {
		case SPMV:
			if !second {
				return k.Translate(m.vals + uint64(j)*8), 8, true
			}
			return k.Translate(m.dense + col(j)*uint64(m.denseStride)*8), 8, true
		case SPMM:
			if !second {
				return k.Translate(m.vals + uint64(j)*8), 8, true
			}
			return k.Translate(m.colIdx + uint64(j)*8), 8, true
		case SDHP:
			if !second {
				return k.Translate(m.vals + uint64(j)*8), 8, true
			}
			return k.Translate(m.dense + col(j)*8), 8, true
		case BFS:
			if !second {
				return k.Translate(m.colIdx + uint64(j)*8), 8, true
			}
			return k.Translate(m.out + col(j)*8), 8, true
		}
		panic("workload: unknown kernel")
	}
}

func programMAPLE(k *kernel.Kernel, eng *accel.MAPLE, kind IrregularKernel, m *csr, lo, hi int) {
	if kind == BFS {
		// BFS's per-visit operands (neighbor id, visited flag) are 32-bit;
		// the engine packs both into one queue entry.
		per := nnzOf(m, lo, hi)
		firstNNZ := int(k.Read(m.rowPtr+uint64(lo)*8, 8))
		eng.ProgramPacked(func(i int) (uint64, uint64, bool) {
			if i >= per {
				return 0, 0, false
			}
			j := firstNNZ + i
			col := k.Read(m.colIdx+uint64(j)*8, 8)
			return k.Translate(m.colIdx + uint64(j)*8), k.Translate(m.out + col*8), true
		})
		return
	}
	eng.Program(irregularStream(k, kind, m, lo, hi))
}

func nnzOf(m *csr, lo, hi int) int {
	return (hi - lo) * (m.nnz / m.rows)
}

// computePer returns the per-element ALU cost that differentiates the
// kernels: SPMM is compute-heavy (a whole dense row per nonzero), the
// others are latency-bound.
func computePer(kind IrregularKernel, denseCols int) sim.Time {
	switch kind {
	case SPMM:
		return sim.Time(4 * denseCols)
	case SPMV:
		return 4
	case SDHP:
		return 3
	case BFS:
		return 6 // frontier bookkeeping
	}
	return 4
}

// runRows executes the Execute part over rows [lo, hi). With MAPLE, every
// latency-critical load is a queue pop (two per nonzero); without it, the
// same values come from demand loads.
func runRows(c *kernel.Ctx, eng *accel.MAPLE, kind IrregularKernel, m *csr, lo, hi int) uint64 {
	var sum uint64
	comp := computePer(kind, m.denseStride)
	pop := func() uint64 {
		v, ok := eng.Fetch(c.P)
		if !ok {
			panic("workload: MAPLE stream ended early")
		}
		return v
	}
	for r := lo; r < hi; r++ {
		p0 := c.Load(m.rowPtr+uint64(r)*8, 8)
		p1 := c.Load(m.rowPtr+uint64(r+1)*8, 8)
		var acc uint64
		for j := p0; j < p1; j++ {
			var v, col, d uint64
			if eng != nil {
				switch kind {
				case SPMV, SDHP:
					v, d = pop(), pop()
				case SPMM:
					v, col = pop(), pop()
					d = c.Load(m.dense+col*uint64(m.denseStride)*8, 8)
				case BFS:
					packed := pop()
					c.Compute(2) // unpack
					col, d = packed&0xFFFFFFFF, packed>>32
				}
			} else {
				switch kind {
				case SPMV:
					col = c.Load(m.colIdx+j*8, 8)
					v = c.Load(m.vals+j*8, 8)
					d = c.Load(m.dense+col*uint64(m.denseStride)*8, 8)
				case SPMM:
					col = c.Load(m.colIdx+j*8, 8)
					v = c.Load(m.vals+j*8, 8)
					d = c.Load(m.dense+col*uint64(m.denseStride)*8, 8)
				case SDHP:
					col = c.Load(m.colIdx+j*8, 8)
					v = c.Load(m.vals+j*8, 8)
					d = c.Load(m.dense+col*8, 8)
				case BFS:
					col = c.Load(m.colIdx+j*8, 8)
					d = c.Load(m.out+col*8, 8)
				}
			}
			switch kind {
			case SPMM:
				// Stream the rest of the dense row (sequential, cheap).
				for e := 1; e < m.denseStride; e++ {
					c.Load(m.dense+(col*uint64(m.denseStride)+uint64(e))*8, 8)
				}
				acc += v * d
			case BFS:
				if d == 0 {
					// Mark visited. With MAPLE the update is decoupled
					// (the engine's store path); standalone cores pay the
					// full write-permission round trip.
					if eng != nil {
						c.StoreAsync(m.out+col*8, 8, 1)
					} else {
						c.Store(m.out+col*8, 8, 1)
					}
					acc++
				}
			default:
				acc += v * d
			}
			c.Compute(comp)
		}
		if kind != BFS {
			c.Store(m.out+uint64(r)*uint64(m.denseStride)*8, 8, acc)
		}
		sum += acc
	}
	return sum
}
