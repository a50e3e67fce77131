package sched

import (
	"context"
	"sync"
	"sync/atomic"
)

// Flight shares one execution among identical in-flight calls: the first
// caller of a key leads the call and runs it, later callers join it, any of
// them may leave, and the last one to leave before the call finishes
// abandons it, which cancels the call's context. The scheduler runs /run
// jobs and tenant tasks through one Flight; the cluster coordinator shares
// its proxied calls through another.
//
// A Flight is guarded by a lock its owner passes in. Join and Finish are
// called with that lock held, so the owner can make a cache miss and a join,
// or a cache fill and a finish, one critical section; Wait, Leave and
// Waiters take the lock themselves.
type Flight[V any] struct {
	mu       sync.Locker
	abandons *atomic.Uint64
	calls    map[string]*Call[V]
}

// Call is one execution that callers of a Flight share.
type Call[V any] struct {
	key     string
	ctx     context.Context
	cancel  context.CancelFunc
	done    chan struct{} // closed by Finish
	waiters int           // callers that joined and have not left
	val     V
	err     error
}

// NewFlight returns an empty Flight guarded by mu. If abandons is not nil,
// it counts the calls abandoned by their last caller.
func NewFlight[V any](mu sync.Locker, abandons *atomic.Uint64) *Flight[V] {
	return &Flight[V]{mu: mu, abandons: abandons, calls: make(map[string]*Call[V])}
}

// Join adds the caller to the call in flight for key, or starts one and
// makes the caller its leader, which must run the call under its Context
// and Finish it. Every caller, the leader too, then waits with Wait or
// departs with Leave. The caller holds the Flight's lock.
func (f *Flight[V]) Join(key string) (c *Call[V], leader bool) {
	if c, ok := f.calls[key]; ok {
		c.waiters++
		return c, false
	}
	ctx, cancel := context.WithCancel(context.Background())
	c = &Call[V]{key: key, ctx: ctx, cancel: cancel, done: make(chan struct{}), waiters: 1}
	f.calls[key] = c
	return c, true
}

// Context is cancelled when the call is abandoned, and released once it is
// finished.
func (c *Call[V]) Context() context.Context { return c.ctx }

// Wait returns the call's result. If ctx ends first, the caller leaves the
// call and gets ctx's error; a ctx already ended when Wait is called gets
// its error even if the call has finished.
func (f *Flight[V]) Wait(ctx context.Context, c *Call[V]) (V, error) {
	if err := ctx.Err(); err != nil {
		f.Leave(c)
		var zero V
		return zero, err
	}
	select {
	case <-c.done:
		return c.val, c.err
	case <-ctx.Done():
		f.Leave(c)
		var zero V
		return zero, ctx.Err()
	}
}

// Leave departs one caller from c and reports whether that abandoned it:
// whether c was unfinished and nobody else was waiting. An abandoned call
// is unlinked, so the next Join for its key starts a fresh one, and its
// context is cancelled. Leaving a finished call abandons nothing.
func (f *Flight[V]) Leave(c *Call[V]) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	c.waiters--
	select {
	case <-c.done:
		return false
	default:
	}
	if c.waiters > 0 {
		return false
	}
	f.unlink(c)
	c.cancel()
	if f.abandons != nil {
		f.abandons.Add(1)
	}
	return true
}

// Finish settles c with its result, answers every caller waiting on it and
// unlinks it. The caller holds the Flight's lock.
func (f *Flight[V]) Finish(c *Call[V], v V, err error) {
	c.val, c.err = v, err
	f.unlink(c)
	close(c.done)
	c.cancel()
}

// unlink removes c from the map unless an abandonment already did, in which
// case its key may belong to a fresh call by now.
func (f *Flight[V]) unlink(c *Call[V]) {
	if f.calls[c.key] == c {
		delete(f.calls, c.key)
	}
}

// Waiters returns how many callers share the call in flight for key, or 0
// when there is none.
func (f *Flight[V]) Waiters(key string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.calls[key]; ok {
		return c.waiters
	}
	return 0
}
