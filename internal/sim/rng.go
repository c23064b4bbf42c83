package sim

// RNG is a small, fast, deterministic pseudo-random number generator
// (xorshift64*). Models use it instead of math/rand so that simulations are
// reproducible across Go versions and independent of global state.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed (a zero seed is remapped, since
// xorshift has an all-zero fixed point).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// State exposes the generator's internal state for checkpointing. Together
// with SetState it round-trips the stream exactly: a generator restored to a
// captured state produces the same tail of values the original would have.
func (r *RNG) State() uint64 { return r.state }

// SetState restores a state captured with State. Unlike NewRNG it performs
// no zero remapping: a captured state is never zero (xorshift64* cannot
// reach zero from a nonzero state, and NewRNG never starts at zero).
func (r *RNG) SetState(state uint64) { r.state = state }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: RNG.Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}
