// Package sched is the experiment harness's shared work scheduler: a
// single place that fans indexed work items out over a bounded worker
// pool. The Fig 3/4 pipelines flatten their (cuisine × kind × replicate)
// grids into one item list and run it under one Workers budget, instead
// of each layer nesting its own pool; replicate ensembles reuse the same
// primitive. Results are written by index, so output order — and with it
// every downstream aggregate — is identical to a serial run regardless
// of scheduling.
package sched

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// ItemHook intercepts scheduled items before they run. A nil return lets
// the item execute normally; a non-nil return records that error as the
// item's result and skips fn entirely. Hooks are the scheduler's fault-
// injection seam: tests install one with WithItemHook to fail, delay or
// observe specific replicate indices deterministically, without the
// production code knowing chaos exists. Hooks must be safe for
// concurrent invocation on distinct indices.
type ItemHook func(i int) error

// ItemError is how a hook-injected failure surfaces from Run/Collect:
// it wraps the hook's error with the index of the item it killed, so
// callers that know what an index means (a replicate, a cuisine) can
// re-wrap it in their own typed error with errors.As.
type ItemError struct {
	// Item is the scheduled item index the hook failed.
	Item int
	// Err is the hook's error.
	Err error
}

func (e *ItemError) Error() string { return fmt.Sprintf("sched: item %d: %v", e.Item, e.Err) }

// Unwrap exposes the hook's error to errors.Is/As.
func (e *ItemError) Unwrap() error { return e.Err }

// hookKey carries an ItemHook through a context.
type hookKey struct{}

// WithItemHook returns a context that makes every Run/Collect call under
// it consult hook before each item. Passing a nil hook returns ctx
// unchanged.
func WithItemHook(ctx context.Context, hook ItemHook) context.Context {
	if hook == nil {
		return ctx
	}
	return context.WithValue(ctx, hookKey{}, hook)
}

// itemHook extracts the installed ItemHook, if any.
func itemHook(ctx context.Context) ItemHook {
	h, _ := ctx.Value(hookKey{}).(ItemHook)
	return h
}

// Run executes fn(0), …, fn(n-1) under at most workers goroutines
// (workers <= 0 means GOMAXPROCS). Every item runs exactly once even
// when some fail; the returned error is the lowest-indexed item's error,
// so failure reporting is deterministic regardless of schedule. fn must
// be safe for concurrent invocation on distinct indices.
func Run(workers, n int, fn func(i int) error) error {
	return RunCtx(context.Background(), workers, n, fn)
}

// RunCtx is Run with cooperative cancellation: once ctx is cancelled no
// new items are scheduled (items already running finish normally, so fn
// never races with a return) and the call reports ctx.Err(). Items that
// did run keep exactly-once semantics, so a caller that retries after a
// cancellation can safely re-run the whole grid. Cancellation takes
// precedence over item errors: a half-finished grid's failures are an
// artifact of where the axe fell, not a deterministic report.
func RunCtx(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if hook := itemHook(ctx); hook != nil {
		inner := fn
		fn = func(i int) error {
			if err := hook(i); err != nil {
				return &ItemError{Item: i, Err: err}
			}
			return inner(i)
		}
	}
	if workers == 1 {
		var first error
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil && first == nil {
				first = err
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		return first
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	done := ctx.Done()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// CollectCtx runs fn for every index under the worker budget and
// returns the results in index order — the map-shaped fan-out (mine a
// view, score a replicate) the pipelines are built from — with
// cooperative cancellation (see RunCtx).
func CollectCtx[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := RunCtx(ctx, workers, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
