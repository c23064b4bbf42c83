package sim

import "testing"

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

// BenchmarkProcessContextSwitch is the self-resume path of the baton
// protocol: the process that blocks is the next to run, so a resume costs no
// goroutine switch. The two benchmarks below keep a number on the other
// path, one switch per resume.
func BenchmarkProcessContextSwitch(b *testing.B) { benchProcessResume(b, 1) }

// BenchmarkProcessPingPong alternates two processes: every resume hands the
// baton to the other goroutine.
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
