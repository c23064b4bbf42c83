//go:build go1.23

package sim

import "iter"

// coro is the coroutine a Process body runs in: a function that executes
// only while some goroutine is inside resume, and gives control back to that
// goroutine by calling yield. This file and coro_go122.go hold the two
// implementations of the same four operations and nothing else; the file
// tag, not the module's go line, selects between them (DESIGN.md, "The
// Go-version shim").
//
// Here a switch is runtime.coroswitch: the two goroutines trade places on
// the same M and P without entering the scheduler. Any goroutine may call
// resume or stop as long as calls do not overlap, but never one pinned with
// runtime.LockOSThread.
type coro struct {
	next   func() (struct{}, bool)
	cancel func()
}

// newCoro returns a coroutine that will run body at the first resume.
func newCoro(body func(yield func() bool)) *coro {
	next, cancel := iter.Pull(func(y func(struct{}) bool) {
		body(func() bool { return y(struct{}{}) })
	})
	return &coro{next: next, cancel: cancel}
}

// resume runs the body until it yields (true) or returns (false; also once
// it has returned or been stopped). A panic that escapes the body is raised
// here, with its original value, and ends the coroutine.
func (c *coro) resume() bool {
	_, ok := c.next()
	return ok
}

// stop ends the coroutine: a body that never started never runs, and one
// parked in yield sees it return false and must return; stop returns once it
// has, raising a panic that escapes it exactly as resume does.
func (c *coro) stop() { c.cancel() }
