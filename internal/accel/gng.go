// Package accel provides the two accelerators of the paper's case studies:
// the OpenCores Gaussian Noise Generator (§4.2) and the MAPLE decoupled
// access engine (§4.3). Both integrate as tile devices behind the TRI
// boundary, exactly like the paper's prototypes: the GNG is fetched with
// non-cacheable loads, MAPLE prefetches asynchronously through its own
// cache port and supplies the execute core through a hardware queue.
package accel

import (
	"math"

	"smappic/internal/sim"
)

// GNG register offsets: one non-cacheable load returns 1, 2 or 4 packed
// 16-bit samples (the paper's base and optimized integration schemes).
const (
	GNGFetch1 = 0x00
	GNGFetch2 = 0x08
	GNGFetch4 = 0x10
	GNGStatus = 0x18
)

// taus88 is the three-stage Tausworthe generator the OpenCores GNG uses as
// its uniform source (Tausworthe 1965; L'Ecuyer's taus88 parameters).
type taus88 struct {
	s1, s2, s3 uint32
}

func newTaus88(seed uint32) taus88 {
	if seed < 128 {
		seed += 128 // stages need a few high bits set
	}
	return taus88{s1: seed, s2: seed ^ 0x1234ABCD, s3: seed ^ 0x00F0F0F0}
}

func (t *taus88) next() uint32 {
	b := (t.s1<<13 ^ t.s1) >> 19
	t.s1 = (t.s1&0xFFFFFFFE)<<12 ^ b
	b = (t.s2<<2 ^ t.s2) >> 25
	t.s2 = (t.s2&0xFFFFFFF8)<<4 ^ b
	b = (t.s3<<3 ^ t.s3) >> 11
	t.s3 = (t.s3&0xFFFFFFF0)<<17 ^ b
	return t.s1 ^ t.s2 ^ t.s3
}

// float01 returns a uniform in (0,1).
func (t *taus88) float01() float64 {
	return (float64(t.next()) + 1) / 4294967297.0
}

// BoxMuller converts two uniforms into one Gaussian sample in the GNG's
// fixed-point output format: signed 16-bit with 11 fractional bits (Lee et
// al.'s hardware Box-Muller design).
func BoxMuller(u1, u2 float64) int16 {
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	v := z * 2048 // 4.11 fixed point
	switch {
	case v > math.MaxInt16:
		return math.MaxInt16
	case v < math.MinInt16:
		return math.MinInt16
	}
	return int16(v)
}

// GNG is the Gaussian Noise Generator accelerator as a tile device.
type GNG struct {
	rng              taus88
	fetches, samples sim.LazyCounter
}

// NewGNG creates a generator with the given seed, counting its fetches and
// samples under name.
func NewGNG(seed uint32, stats *sim.Stats, name string) *GNG {
	return &GNG{
		rng:     newTaus88(seed),
		fetches: stats.LazyCounter(name + ".fetches"),
		samples: stats.LazyCounter(name + ".samples"),
	}
}

// Sample produces the next noise value.
func (g *GNG) Sample() int16 {
	return BoxMuller(g.rng.float01(), g.rng.float01())
}

// Read implements core.Accelerator: each load fetches 1, 2 or 4 packed
// samples.
func (g *GNG) Read(off uint64, size int) uint64 {
	n := 0
	switch off {
	case GNGFetch1:
		n = 1
	case GNGFetch2:
		n = 2
	case GNGFetch4:
		n = 4
	case GNGStatus:
		return 1 // always ready: the Tausworthe core outruns the bus
	default:
		return 0
	}
	g.fetches.Inc()
	g.samples.Add(uint64(n))
	var out uint64
	for i := 0; i < n; i++ {
		out |= uint64(uint16(g.Sample())) << (16 * i)
	}
	return out
}

// SoftwareGNG is the software reference implementation executed on the
// Ariane core in the paper's comparison. CyclesPerSample is the modeled
// cost of one Box-Muller evaluation (log, sqrt, cos through libm on the
// in-order core); the benchmark charges it per generated number.
type SoftwareGNG struct {
	rng taus88
}

// SWCyclesPerSample is the calibrated per-sample software cost: two
// Tausworthe draws plus log, sqrt and cos through libm and the fixed-point
// conversion, on the in-order single-issue core.
const SWCyclesPerSample = 500

// NewSoftwareGNG seeds the software generator.
func NewSoftwareGNG(seed uint32) *SoftwareGNG {
	return &SoftwareGNG{rng: newTaus88(seed)}
}

// Sample produces the next noise value (functionally identical to the
// hardware: same Tausworthe source, same Box-Muller).
func (s *SoftwareGNG) Sample() int16 {
	return BoxMuller(s.rng.float01(), s.rng.float01())
}
