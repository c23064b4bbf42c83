package sim

import (
	"reflect"
	"runtime"
	"testing"
	"time"
)

// The contract of the coroutine primitive, written against newCoro so the
// same cases run on whichever implementation the toolchain compiles
// (iter.Pull, or the channel shim on the go-1.22 CI job).

func TestCoroResumeYieldOrdering(t *testing.T) {
	var log []string
	c := newCoro(func(yield func() bool) {
		log = append(log, "body-1")
		if !yield() {
			t.Error("yield reported stop on a plain resume")
		}
		log = append(log, "body-2")
		yield()
		log = append(log, "body-3")
	})
	if len(log) != 0 {
		t.Fatal("newCoro ran the body")
	}
	for i, want := range []bool{true, true, false, false} {
		log = append(log, "resume")
		if got := c.resume(); got != want {
			t.Fatalf("resume %d = %v, want %v", i+1, got, want)
		}
	}
	want := []string{"resume", "body-1", "resume", "body-2", "resume", "body-3", "resume"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("order %v, want %v", log, want)
	}
	c.stop() // after the body returned: nothing to do
}

// Resumers may change between calls as long as the calls do not overlap.
func TestCoroResumedFromSeveralGoroutines(t *testing.T) {
	n := 0
	c := newCoro(func(yield func() bool) {
		for yield() {
			n++
		}
	})
	c.resume()
	for i := 0; i < 4; i++ {
		done := make(chan struct{})
		go func() {
			defer close(done)
			c.resume()
		}()
		<-done
	}
	c.stop()
	if n != 4 {
		t.Fatalf("body saw %d resumes, want 4", n)
	}
}

func TestCoroNestedResume(t *testing.T) {
	var log []string
	inner := newCoro(func(yield func() bool) {
		log = append(log, "inner-1")
		yield()
		log = append(log, "inner-2")
	})
	outer := newCoro(func(yield func() bool) {
		log = append(log, "outer-1")
		inner.resume()
		log = append(log, "outer-2")
		yield()
		inner.resume()
		log = append(log, "outer-3")
	})
	outer.resume()
	log = append(log, "main")
	outer.resume()
	want := []string{"outer-1", "inner-1", "outer-2", "main", "inner-2", "outer-3"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("order %v, want %v", log, want)
	}
}

func TestCoroForwardsPanics(t *testing.T) {
	type bug struct{ code int }
	catch := func(fn func()) (got any) {
		defer func() { got = recover() }()
		fn()
		return nil
	}
	t.Run("from resume", func(t *testing.T) {
		c := newCoro(func(yield func() bool) {
			yield()
			panic(&bug{7})
		})
		c.resume()
		if b, ok := catch(func() { c.resume() }).(*bug); !ok || b.code != 7 {
			t.Fatalf("resume did not raise the body's panic value")
		}
		if c.resume() {
			t.Fatal("resume after a panic reported a yield")
		}
	})
	t.Run("from stop", func(t *testing.T) {
		c := newCoro(func(yield func() bool) {
			defer func() { panic(&bug{9}) }()
			yield()
		})
		c.resume()
		if b, ok := catch(c.stop).(*bug); !ok || b.code != 9 {
			t.Fatalf("stop did not raise the panic of the unwinding body")
		}
	})
	t.Run("through a nested resume", func(t *testing.T) {
		inner := newCoro(func(yield func() bool) { panic(&bug{11}) })
		outer := newCoro(func(yield func() bool) { inner.resume() })
		if b, ok := catch(func() { outer.resume() }).(*bug); !ok || b.code != 11 {
			t.Fatalf("outer resume did not raise the inner body's panic value")
		}
	})
}

func TestCoroStop(t *testing.T) {
	base := runtime.NumGoroutine()
	t.Run("before start", func(t *testing.T) {
		c := newCoro(func(yield func() bool) { t.Error("stopped body ran") })
		c.stop()
		c.stop()
		if c.resume() {
			t.Fatal("resume after stop reported a yield")
		}
	})
	t.Run("while parked", func(t *testing.T) {
		var log []string
		c := newCoro(func(yield func() bool) {
			defer func() { log = append(log, "deferred") }()
			for yield() {
			}
			log = append(log, "saw-stop")
			if yield() {
				t.Error("yield after stop reported a resume")
			}
		})
		c.resume()
		c.resume()
		c.stop()
		if want := []string{"saw-stop", "deferred"}; !reflect.DeepEqual(log, want) {
			t.Fatalf("stop returned with the body at %v, want %v", log, want)
		}
		if c.resume() {
			t.Fatal("resume after stop reported a yield")
		}
	})
	awaitGoroutines(t, base)
}

// awaitGoroutines fails the test unless the goroutine count falls back to
// base; exiting goroutines are given a moment to be reaped.
func awaitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines before, %d after", base, n)
	}
}
