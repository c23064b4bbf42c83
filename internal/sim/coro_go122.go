//go:build !go1.23

package sim

// coro on toolchains without iter.Pull: the body runs on a goroutine of its
// own and each switch is an unbuffered channel exchange. Same four
// operations, same contract as coro.go (coro_test.go runs against whichever
// is compiled); a portability shim for the module's declared minimum
// toolchain, not a mode — see DESIGN.md, "The Go-version shim".
type coro struct {
	body    func(yield func() bool)
	in      chan bool // resumer -> body: true to run on, false to stop
	out     chan bool // body -> resumer: true when it yields, false when it ends
	fault   any       // panic that ended the body, for the resumer to raise
	started bool
	stopped bool
	done    bool
}

func newCoro(body func(yield func() bool)) *coro {
	return &coro{body: body, in: make(chan bool), out: make(chan bool)}
}

func (c *coro) resume() bool {
	switch {
	case c.done:
		return false
	case !c.started:
		c.started = true
		go c.run()
	default:
		c.in <- true
	}
	return c.await()
}

func (c *coro) stop() {
	switch {
	case c.done:
	case !c.started:
		c.done = true
	default:
		c.stopped = true
		c.in <- false
		c.await()
	}
}

func (c *coro) run() {
	defer func() {
		c.fault = recover()
		c.out <- false
	}()
	c.body(c.yield)
}

func (c *coro) yield() bool {
	if c.stopped {
		return false
	}
	c.out <- true
	return <-c.in
}

// await parks the resumer until the body yields or ends.
func (c *coro) await() bool {
	if <-c.out {
		return true
	}
	c.done = true
	if r := c.fault; r != nil {
		c.fault = nil
		panic(r)
	}
	return false
}
