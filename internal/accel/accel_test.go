package accel

import (
	"math"
	"testing"

	"smappic/internal/cache"
	"smappic/internal/core"
	"smappic/internal/sim"
)

func TestTaus88Deterministic(t *testing.T) {
	a, b := newTaus88(7), newTaus88(7)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("same-seed taus88 diverges")
		}
	}
}

func TestTaus88Uniformity(t *testing.T) {
	r := newTaus88(12345)
	buckets := make([]int, 16)
	for i := 0; i < 1_600_00; i++ {
		buckets[r.next()>>28]++
	}
	for i, n := range buckets {
		if n < 8000 || n > 12000 {
			t.Errorf("bucket %d = %d, expected ~10000", i, n)
		}
	}
}

func TestGNGStatisticsAreGaussian(t *testing.T) {
	g := NewGNG(99, &sim.Stats{}, "gng")
	const n = 100_000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := float64(g.Sample()) / 2048 // back to real units
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	std := math.Sqrt(sum2/n - mean*mean)
	if math.Abs(mean) > 0.02 {
		t.Errorf("mean = %f, want ~0", mean)
	}
	if std < 0.97 || std > 1.03 {
		t.Errorf("stddev = %f, want ~1", std)
	}
}

func TestGNGPackedFetches(t *testing.T) {
	// Two generators with the same seed: one fetched 1-at-a-time, one
	// 4-at-a-time; the sample streams must match.
	a := NewGNG(5, &sim.Stats{}, "a")
	b := NewGNG(5, &sim.Stats{}, "b")
	var seq []uint16
	for i := 0; i < 8; i++ {
		seq = append(seq, uint16(a.Read(GNGFetch1, 8)))
	}
	var packed []uint16
	for i := 0; i < 2; i++ {
		v := b.Read(GNGFetch4, 8)
		for k := 0; k < 4; k++ {
			packed = append(packed, uint16(v>>(16*k)))
		}
	}
	for i := range seq {
		if seq[i] != packed[i] {
			t.Fatalf("packed stream diverges at %d: %x vs %x", i, seq[i], packed[i])
		}
	}
}

func TestGNGStatsCount(t *testing.T) {
	var st sim.Stats
	g := NewGNG(1, &st, "gng")
	g.Read(GNGFetch2, 8)
	g.Read(GNGFetch4, 8)
	if st.Get("gng.fetches") != 2 || st.Get("gng.samples") != 6 {
		t.Fatalf("stats = %d fetches / %d samples", st.Get("gng.fetches"), st.Get("gng.samples"))
	}
}

// A fetch resolves no instrument by name: the counters are handles built
// with the device, so a program streaming samples allocates nothing.
func TestGNGReadZeroAlloc(t *testing.T) {
	g := NewGNG(1, &sim.Stats{}, "gng")
	if n := testing.AllocsPerRun(100, func() { g.Read(GNGFetch4, 8) }); n != 0 {
		t.Fatalf("GNG.Read allocates %.1f times per fetch, want 0", n)
	}
}

func TestSoftwareMatchesHardware(t *testing.T) {
	hw := NewGNG(77, &sim.Stats{}, "hw")
	sw := NewSoftwareGNG(77)
	for i := 0; i < 100; i++ {
		if hw.Sample() != sw.Sample() {
			t.Fatal("software and hardware GNG diverge (same algorithm expected)")
		}
	}
}

func mapleProto(t *testing.T) *core.Prototype {
	t.Helper()
	cfg := core.DefaultConfig(1, 1, 6)
	cfg.Core = core.CoreNone
	p, err := core.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestMAPLEDeliversStreamInOrder(t *testing.T) {
	p := mapleProto(t)
	base := p.Map.NodeDRAMBase(0) + 0x10000
	for i := uint64(0); i < 32; i++ {
		p.Backing.WriteU64(base+i*8, 100+i)
	}
	m := NewMAPLE(p, cache.GID{Node: 0, Tile: 2})
	m.Program(func(i int) (uint64, int, bool) {
		if i >= 32 {
			return 0, 0, false
		}
		return base + uint64(i)*8, 8, true
	})
	var got []uint64
	sim.Go(p.Eng, "exec", func(proc *sim.Process) {
		for {
			v, ok := m.Fetch(proc)
			if !ok {
				break
			}
			got = append(got, v)
		}
	})
	p.Run()
	if len(got) != 32 {
		t.Fatalf("fetched %d values, want 32", len(got))
	}
	for i, v := range got {
		if v != 100+uint64(i) {
			t.Fatalf("out of order at %d: %d", i, v)
		}
	}
}

func TestMAPLEHidesMemoryLatency(t *testing.T) {
	// Irregular gather with compute per element: with MAPLE the fetch cost
	// is the queue pop, not the memory round trip.
	p := mapleProto(t)
	base := p.Map.NodeDRAMBase(0) + 0x100000
	rng := sim.NewRNG(3)
	const n = 200
	idx := make([]uint64, n)
	for i := range idx {
		idx[i] = uint64(rng.Intn(1 << 16))
	}

	// Baseline: demand loads from the execute tile, strided to miss.
	direct := func() sim.Time {
		port := p.PortAt(cache.GID{Node: 0, Tile: 0})
		var took sim.Time
		sim.Go(p.Eng, "exec", func(proc *sim.Process) {
			start := proc.Now()
			for _, ix := range idx {
				port.Load(proc, base+ix*64, 8)
				proc.Wait(20) // compute on the element
			}
			took = proc.Now() - start
		})
		p.Run()
		return took
	}()

	p2 := mapleProto(t)
	decoupled := func() sim.Time {
		m := NewMAPLE(p2, cache.GID{Node: 0, Tile: 2})
		m.Program(func(i int) (uint64, int, bool) {
			if i >= n {
				return 0, 0, false
			}
			return base + idx[i]*64, 8, true
		})
		var took sim.Time
		sim.Go(p2.Eng, "exec", func(proc *sim.Process) {
			start := proc.Now()
			for {
				_, ok := m.Fetch(proc)
				if !ok {
					break
				}
				proc.Wait(20)
			}
			took = proc.Now() - start
		})
		p2.Run()
		return took
	}()

	if float64(direct) < float64(decoupled)*1.5 {
		t.Fatalf("MAPLE gave no latency tolerance: direct=%d decoupled=%d", direct, decoupled)
	}
}

func TestMAPLEQueueBoundsProducer(t *testing.T) {
	p := mapleProto(t)
	m := NewMAPLE(p, cache.GID{Node: 0, Tile: 2})
	m.QueueDepth = 4
	base := p.Map.NodeDRAMBase(0) + 0x10000
	m.Program(func(i int) (uint64, int, bool) {
		if i >= 100 {
			return 0, 0, false
		}
		return base + uint64(i)*64, 8, true
	})
	maxDepth := 0
	sim.Go(p.Eng, "exec", func(proc *sim.Process) {
		for {
			if d := len(m.queue); d > maxDepth {
				maxDepth = d
			}
			_, ok := m.Fetch(proc)
			if !ok {
				break
			}
			proc.Wait(500) // slow consumer: producer must throttle
		}
	})
	p.Run()
	if maxDepth > 4 {
		t.Fatalf("queue overflowed its depth: %d > 4", maxDepth)
	}
}
