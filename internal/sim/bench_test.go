package sim

import (
	"testing"
	"time"
)

func BenchmarkEngineScheduleAndRun(b *testing.B) {
	e := NewEngine()
	for i := 0; i < b.N; i++ {
		e.Schedule(Time(i%16), func() {})
		if i%1024 == 0 {
			e.Run()
		}
	}
	e.Run()
}

// steadyMix is numa48-serial's measured schedule-delay mix: the share of
// events (in percent, rounded) scheduled within each delay band [lo, hi].
// Fewer than 1 in 100 000 lands 128 cycles or more ahead.
var steadyMix = [...]struct {
	pct    int
	lo, hi Time
}{
	{10, 0, 0}, {34, 1, 1}, {5, 2, 3}, {15, 4, 7}, {7, 8, 15},
	{9, 16, 31}, {15, 32, 63}, {4, 64, 127},
}

// BenchmarkEngineSteadyState is the engine under a real queue: about 70
// events pending, the numa48-serial average, each executed event scheduling
// one successor drawn from steadyMix. ns/op is ns per event, schedule and
// pop included. (BenchmarkEngineScheduleAndRun drains every 1 024 events
// with delays below 16, so it never holds more than a short queue.)
func BenchmarkEngineSteadyState(b *testing.B) {
	const pending = 70
	var delays []Time
	rng := NewRNG(1)
	for _, band := range steadyMix {
		for i := 0; i < band.pct*64; i++ {
			delays = append(delays, band.lo+Time(rng.Uint64()%uint64(band.hi-band.lo+1)))
		}
	}
	for i := len(delays) - 1; i > 0; i-- {
		j := int(rng.Uint64() % uint64(i+1))
		delays[i], delays[j] = delays[j], delays[i]
	}
	e := NewEngine()
	n := 0
	var fn func()
	fn = func() {
		if n < b.N {
			e.Schedule(delays[n%len(delays)], fn)
			n++
		}
	}
	for i := 0; i < pending; i++ {
		fn()
	}
	b.ResetTimer()
	e.Run()
}

// BenchmarkProcessContextSwitch is the self-resume path of the run loop: the
// process that blocks is the next to run, so a resume costs no switch. The
// two benchmarks below keep a number on the other path, a hand-off through
// the Advance caller per resume — but back to back, which flatters any
// hand-off that wakes a goroutine through the scheduler (the peer thread is
// still spinning); BenchmarkProcessHandoffLoaded is the honest one.
func BenchmarkProcessContextSwitch(b *testing.B) { benchProcessResume(b, 1) }

// BenchmarkProcessPingPong alternates two processes: every resume is a
// hand-off to the other one.
func BenchmarkProcessPingPong(b *testing.B) { benchProcessResume(b, 2) }

// BenchmarkProcessRoundRobin48 cycles 48 processes, the numa48-serial
// pattern (one kernel thread per core of the 4x1x12 shape).
func BenchmarkProcessRoundRobin48(b *testing.B) { benchProcessResume(b, 48) }

// benchProcessResume runs b.N Wait(1) resumes spread over procs processes
// that all wake in the same cycle, in spawn order.
func benchProcessResume(b *testing.B, procs int) {
	e := NewEngine()
	for i := 0; i < procs; i++ {
		n := b.N / procs
		if i < b.N%procs {
			n++
		}
		Go(e, "bench", func(p *Process) {
			for ; n > 0; n-- {
				p.Wait(1)
			}
		})
	}
	b.ResetTimer()
	e.Run()
}

var benchSink uint64

// BenchmarkProcessHandoffLoaded is RoundRobin48 with host work between the
// hand-offs, as a workload has: each process walks a private 64 KiB buffer
// (2-3 us) before every Wait(1). That is long enough for an idle P's
// thread to stop spinning and go to sleep, so a hand-off that readies a
// goroutine pays the futex wake a tight loop hides (numa48-serial paid
// ~1.9 us per hand-off while PingPong read 350 ns). Each walk is timed where
// it runs and the total subtracted: handoff-ns/resume is the cost of the
// switch alone (plus one clock read), ns/op the gross.
func BenchmarkProcessHandoffLoaded(b *testing.B) {
	const procs = 48
	var work time.Duration
	e := NewEngine()
	for i := 0; i < procs; i++ {
		n := b.N / procs
		if i < b.N%procs {
			n++
		}
		buf := make([]uint64, 64<<10/8)
		Go(e, "bench", func(p *Process) {
			for ; n > 0; n-- {
				start := time.Now()
				var sum uint64
				for j := 0; j < len(buf); j += 8 { // one word per cache line
					sum += buf[j]
				}
				benchSink += sum
				work += time.Since(start)
				p.Wait(1)
			}
		})
	}
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	b.ReportMetric(float64(work)/float64(b.N), "work-ns/resume")
	b.ReportMetric(float64(b.Elapsed()-work)/float64(b.N), "handoff-ns/resume")
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkStatsCounter(b *testing.B) {
	var s Stats
	c := s.Counter("bench.counter")
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}
