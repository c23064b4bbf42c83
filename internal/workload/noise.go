package workload

import (
	"smappic/internal/accel"
	"smappic/internal/core"
	"smappic/internal/kernel"
	"smappic/internal/sim"
)

// NoiseMode is one bar group of Fig. 10: software generation on the Ariane
// core, or hardware fetches returning 1, 2 or 4 packed 16-bit samples per
// non-cacheable load.
type NoiseMode string

const (
	NoiseSW  NoiseMode = "SW"
	NoiseHW1 NoiseMode = "1"
	NoiseHW2 NoiseMode = "2"
	NoiseHW4 NoiseMode = "4"
)

// NoiseModes lists the Fig. 10 execution modes in paper order.
var NoiseModes = []NoiseMode{NoiseSW, NoiseHW1, NoiseHW2, NoiseHW4}

// NoiseParams configure the GNG benchmarks. The paper generates 64 MB of
// noise (benchmark A) and applies noise to a 32 MB sequence (benchmark B);
// runs here scale the volume down.
type NoiseParams struct {
	Samples  int // benchmark A: 16-bit samples to generate
	ApplyLen int // benchmark B: bytes of input sequence
}

const (
	// unpackCost models the shift/mask instructions per sample when
	// multiple samples arrive packed in one register.
	unpackCost sim.Time = 3
	// loopCost models loop and store overhead per sample.
	loopCost sim.Time = 2
)

// DefaultNoiseParams returns a scaled workload.
func DefaultNoiseParams() NoiseParams {
	return NoiseParams{Samples: 4096, ApplyLen: 2048}
}

// NoiseResult is one bar of Fig. 10.
type NoiseResult struct {
	Mode   NoiseMode
	Cycles sim.Time
}

// gngAddr returns the MMIO address of the GNG fetch register on node 0
// tile 1 (the paper's 1x1x2 configuration: Ariane in tile 0, GNG in tile 1).
func gngAddr(mode NoiseMode) uint64 {
	base := core.DevBase + core.DevAccel + uint64(1)<<16
	switch mode {
	case NoiseHW1:
		return base + accel.GNGFetch1
	case NoiseHW2:
		return base + accel.GNGFetch2
	case NoiseHW4:
		return base + accel.GNGFetch4
	}
	return base
}

func samplesPerFetch(mode NoiseMode) int {
	switch mode {
	case NoiseHW2:
		return 2
	case NoiseHW4:
		return 4
	}
	return 1
}

// RunNoiseGenerator is benchmark A ("Noise generator"): produce p.Samples
// 16-bit noise values into a local buffer and compare the modes.
func RunNoiseGenerator(k *kernel.Kernel, mode NoiseMode, p NoiseParams) NoiseResult {
	out := k.Alloc(uint64(p.Samples) * 2)
	pr := k.Prototype()
	start := pr.Now()
	k.Spawn("noisegen", []int{0}, func(c *kernel.Ctx) {
		generateNoise(c, mode, p, out, p.Samples)
	})
	end := k.Join()
	return NoiseResult{Mode: mode, Cycles: end - start}
}

// generateNoise writes n samples to buf using the selected mode.
func generateNoise(c *kernel.Ctx, mode NoiseMode, p NoiseParams, buf uint64, n int) {
	if mode == NoiseSW {
		sw := accel.NewSoftwareGNG(7)
		for i := 0; i < n; i++ {
			c.Compute(accel.SWCyclesPerSample)
			c.Store(buf+uint64(i)*2, 2, uint64(uint16(sw.Sample())))
			c.Compute(loopCost)
		}
		return
	}
	per := samplesPerFetch(mode)
	addr := gngAddr(mode)
	for i := 0; i < n; i += per {
		v := c.MMIOLoad(addr, 8)
		for s := 0; s < per && i+s < n; s++ {
			if per > 1 {
				c.Compute(unpackCost)
			}
			c.Store(buf+uint64(i+s)*2, 2, v>>(16*s)&0xFFFF)
			c.Compute(loopCost)
		}
	}
}

// RunNoiseApplier is benchmark B ("Noise applier"): convert noise to 8-bit
// integers and apply it to a p.ApplyLen-byte sequence.
func RunNoiseApplier(k *kernel.Kernel, mode NoiseMode, p NoiseParams) NoiseResult {
	in := k.Alloc(uint64(p.ApplyLen))
	out := k.Alloc(uint64(p.ApplyLen))
	pr := k.Prototype()

	// Materialize the input (setup, not measured).
	k.Spawn("setup", []int{0}, func(c *kernel.Ctx) {
		for i := 0; i < p.ApplyLen; i += 8 {
			c.Store(in+uint64(i), 8, uint64(i)*0x0101010101010101)
		}
	})
	k.Join()

	start := pr.Now()
	k.Spawn("apply", []int{0}, func(c *kernel.Ctx) {
		sw := accel.NewSoftwareGNG(7)
		per := samplesPerFetch(mode)
		addr := gngAddr(mode)
		var packed uint64
		have := 0
		for i := 0; i < p.ApplyLen; i++ {
			// Acquire one noise sample.
			var sample uint64
			if mode == NoiseSW {
				c.Compute(accel.SWCyclesPerSample)
				sample = uint64(uint16(sw.Sample()))
			} else {
				if have == 0 {
					packed = c.MMIOLoad(addr, 8)
					have = per
				}
				sample = packed & 0xFFFF
				packed >>= 16
				have--
				if per > 1 {
					c.Compute(unpackCost)
				}
			}
			// Convert to 8-bit and apply to the sequence element.
			b := c.Load(in+uint64(i), 1)
			c.Compute(20) // scale, saturate, add (branchy byte math)
			c.Store(out+uint64(i), 1, (b+sample>>8)&0xFF)
			c.Compute(loopCost)
		}
	})
	end := k.Join()
	return NoiseResult{Mode: mode, Cycles: end - start}
}
