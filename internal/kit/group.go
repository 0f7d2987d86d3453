package kit

import (
	"context"
	"sync"
)

// Group coalesces concurrent calls that share a key into one execution:
// the first caller starts the computation, later callers wait for its
// result. Unlike x/sync/singleflight (which the repo deliberately does
// not depend on), the computation runs under its own context that is
// cancelled only when every waiter has abandoned it, so N identical
// requests cost one run and that run keeps going as long as one caller
// still wants the answer.
//
// A successful result is handed to the caller's keep function before
// its key leaves the group, unless Drop marked the key while the
// computation was in flight; waiters receive the result either way.
// That ordering is what lets a cache invalidate a key without a racing
// computation resurrecting it. The zero value is ready to use.
type Group[V any] struct {
	mu sync.Mutex
	m  map[string]*call[V]
}

// call is one in-flight computation and its waiter refcount.
type call[V any] struct {
	done    chan struct{}
	val     V
	err     error
	waiters int
	cancel  context.CancelFunc
	dropped bool
}

// Do returns the result of fn for key, coalescing concurrent duplicate
// calls. shared reports whether this caller joined an execution started
// by another. If ctx is cancelled while waiting, Do returns ctx.Err()
// at once; the computation is cancelled only once no waiters remain.
//
// When fn succeeds and key was not dropped, keep(val) runs under the
// group's lock before key leaves the group, so keep must not call back
// into the group; a Drop that returns has either marked the call or
// happens after keep.
func (g *Group[V]) Do(ctx context.Context, key string, fn func(ctx context.Context) (V, error), keep func(V)) (val V, err error, shared bool) {
	g.mu.Lock()
	if c, ok := g.m[key]; ok {
		c.waiters++
		g.mu.Unlock()
		val, err = g.wait(ctx, c)
		return val, err, true
	}
	if g.m == nil {
		g.m = make(map[string]*call[V])
	}
	// The compute context is detached from the initiating caller: the
	// computation outlives any single waiter and dies with the last one.
	cctx, cancel := context.WithCancel(context.Background())
	c := &call[V]{done: make(chan struct{}), waiters: 1, cancel: cancel}
	g.m[key] = c
	g.mu.Unlock()

	go func() {
		v, e := fn(cctx)
		g.mu.Lock()
		c.val, c.err = v, e
		if e == nil && !c.dropped {
			keep(v)
		}
		delete(g.m, key)
		g.mu.Unlock()
		cancel()
		close(c.done)
	}()
	val, err = g.wait(ctx, c)
	return val, err, false
}

// wait blocks until the call completes or ctx is cancelled, maintaining
// the waiter refcount.
func (g *Group[V]) wait(ctx context.Context, c *call[V]) (V, error) {
	select {
	case <-c.done:
		return c.val, c.err
	case <-ctx.Done():
		g.mu.Lock()
		c.waiters--
		abandoned := c.waiters == 0
		g.mu.Unlock()
		if abandoned {
			c.cancel()
		}
		var zero V
		return zero, ctx.Err()
	}
}

// Drop marks every in-flight call whose key satisfies match, so its
// result is handed to its waiters but not to keep. It reports how many
// calls it newly marked.
func (g *Group[V]) Drop(match func(key string) bool) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	marked := 0
	for key, c := range g.m {
		if !c.dropped && match(key) {
			c.dropped = true
			marked++
		}
	}
	return marked
}
