package serve

import (
	"context"
	"fmt"
	"sync"
)

// flightGroup coalesces concurrent fills of the same cache key (a cube's
// estimation, an exact-query index build) into a single computation (the
// classic singleflight pattern, stdlib-only).
// Followers block until the leader's result is ready and share it.
type flightGroup struct {
	mu    sync.Mutex
	calls map[estimateKey]*flightCall
}

type flightCall struct {
	done chan struct{}
	res  cube
	err  error
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: map[estimateKey]*flightCall{}}
}

// do runs fn for the key, unless a call for the same key is already in
// flight, in which case it waits for that call and returns its result.
// A follower that stops waiting (ctx cancelled) detaches without
// affecting the leader: the computation still completes and lands in the
// cache for the next request. A panic in fn is converted into an error:
// the cleanup must run (and done must close) regardless, or the key would
// wedge forever with every follower blocked on it.
func (f *flightGroup) do(ctx context.Context, k estimateKey, fn func() (cube, error)) (res cube, err error) {
	f.mu.Lock()
	if c, ok := f.calls[k]; ok {
		f.mu.Unlock()
		select {
		case <-c.done:
			return c.res, c.err
		case <-ctx.Done():
			return cube{}, ctx.Err()
		}
	}
	c := &flightCall{done: make(chan struct{})}
	f.calls[k] = c
	f.mu.Unlock()

	defer func() {
		if r := recover(); r != nil {
			c.res, c.err = cube{}, fmt.Errorf("serve: estimation panicked: %v", r)
		}
		f.mu.Lock()
		delete(f.calls, k)
		f.mu.Unlock()
		close(c.done)
		res, err = c.res, c.err
	}()
	c.res, c.err = fn()
	return c.res, c.err
}
