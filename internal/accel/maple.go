package accel

import (
	"smappic/internal/cache"
	"smappic/internal/core"
	"smappic/internal/sim"
)

// MAPLE is the decoupled access/execute engine of Orenes-Vera et al.
// (ISCA'22), re-evaluated in SMAPPIC in paper §4.3. The Execute part runs
// on a general-purpose core; the Access part is offloaded to MAPLE, which
// is programmed before execution to asynchronously fetch data from memory
// and supply it to the Execute core right when needed.
//
// The engine occupies a tile (the paper uses tiles 2 and 3 of a 1x1x6
// configuration): it fetches through that tile's cache port with several
// requests in flight (bounded by its issue window and the BPC's MSHRs) and
// fills a hardware queue; the consumer pops entries with a short queue-read
// latency instead of a full memory round trip. That overlap is the whole
// trick: latency-bound irregular loops become throughput-bound.
type MAPLE struct {
	pr   *core.Prototype
	tile cache.GID
	port *core.Port

	addrs        func(i int) (uint64, int, bool)
	pairs        func(i int) (a, b uint64, ok bool)
	queue        []uint64
	pending      map[int]uint64
	next         int // next index to issue
	deliverNext  int // next index to append to the queue
	inflight     int
	exhausted    bool
	done         bool
	consumerWake func()
}

const (
	// queueDepth is the hardware FIFO size.
	queueDepth = 64
	// window bounds in-flight memory requests.
	window = 8
	// popCost is the consumer-side cost of reading the queue head (a load
	// to the adjacent tile).
	popCost sim.Time = 12
)

// NewMAPLE places an engine on a tile of the prototype.
func NewMAPLE(pr *core.Prototype, tile cache.GID) *MAPLE {
	return &MAPLE{pr: pr, tile: tile, port: pr.PortAt(tile)}
}

// Program arms the engine with an access pattern: addrs(i) returns the i-th
// physical address to fetch (ok=false ends the stream). Fetching starts
// immediately and runs ahead of the consumer up to queueDepth entries.
func (m *MAPLE) Program(addrs func(i int) (addr uint64, size int, ok bool)) {
	m.addrs = addrs
	m.pairs = nil
	m.reset()
}

// ProgramPacked arms the engine with a paired pattern: the i-th queue entry
// packs the 32-bit values at addresses a and b as lo|hi<<32. One consumer
// pop then delivers both operands — the format MAPLE uses for small
// (index, flag) tuples like BFS's neighbor visits.
func (m *MAPLE) ProgramPacked(pairs func(i int) (a, b uint64, ok bool)) {
	m.addrs = nil
	m.pairs = pairs
	m.reset()
}

func (m *MAPLE) reset() {
	m.queue = nil
	m.pending = make(map[int]uint64)
	m.next, m.deliverNext, m.inflight = 0, 0, 0
	m.exhausted, m.done = false, false
	// Kick the pump from an event so Program can be called outside the
	// engine's context.
	m.pr.EngineForNode(m.tile.Node).Schedule(0, m.pump)
}

// pump issues fetches while the window and queue have room.
func (m *MAPLE) pump() {
	for !m.exhausted && m.inflight < window &&
		len(m.queue)+m.inflight+len(m.pending) < queueDepth {
		i := m.next
		if m.pairs != nil {
			a, b, ok := m.pairs(i)
			if !ok {
				m.exhausted = true
				break
			}
			m.next++
			m.inflight += 2
			var lo, hi uint64
			got := 0
			land := func() {
				m.inflight--
				got++
				if got == 2 {
					m.deliver(i, lo|hi<<32)
				}
			}
			m.port.LoadAsync(a, 8, func(v uint64) { lo = v & 0xFFFFFFFF; land() })
			m.port.LoadAsync(b, 8, func(v uint64) { hi = v & 0xFFFFFFFF; land() })
			continue
		}
		addr, size, ok := m.addrs(m.next)
		if !ok {
			m.exhausted = true
			break
		}
		m.next++
		m.inflight++
		m.port.LoadAsync(addr, size, func(v uint64) { m.complete(i, v) })
	}
	if m.exhausted && m.inflight == 0 && len(m.pending) == 0 {
		m.done = true
		m.wakeConsumer()
	}
}

// complete records a finished single fetch and delivers in program order.
func (m *MAPLE) complete(i int, v uint64) {
	m.inflight--
	m.deliver(i, v)
}

// deliver queues a finished entry, preserving program order.
func (m *MAPLE) deliver(i int, v uint64) {
	m.pending[i] = v
	for {
		pv, ok := m.pending[m.deliverNext]
		if !ok {
			break
		}
		delete(m.pending, m.deliverNext)
		m.deliverNext++
		m.queue = append(m.queue, pv)
	}
	m.wakeConsumer()
	m.pump()
}

func (m *MAPLE) wakeConsumer() {
	if m.consumerWake != nil {
		w := m.consumerWake
		m.consumerWake = nil
		w()
	}
}

// Fetch pops the next value for the Execute core, blocking until the engine
// has produced it. The returned ok is false once the stream is exhausted.
func (m *MAPLE) Fetch(p *sim.Process) (v uint64, ok bool) {
	p.Wait(popCost)
	for len(m.queue) == 0 {
		if m.done {
			return 0, false
		}
		if m.consumerWake != nil {
			panic("accel: MAPLE supports a single consumer")
		}
		m.consumerWake = p.Suspend()
		p.Park()
	}
	v = m.queue[0]
	m.queue = m.queue[1:]
	// Space freed: let the engine run further ahead.
	m.pump()
	return v, true
}
