package sched

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestRunCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		const n = 100
		var counts [n]atomic.Int32
		if err := Run(workers, n, func(i int) error {
			counts[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestRunEmptyAndSingle(t *testing.T) {
	if err := Run(4, 0, func(int) error { t.Fatal("called"); return nil }); err != nil {
		t.Fatal(err)
	}
	ran := false
	if err := Run(4, 1, func(i int) error { ran = i == 0; return nil }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("single item not run")
	}
}

func TestRunReturnsLowestIndexedError(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		err := Run(workers, 50, func(i int) error {
			if i%7 == 3 { // fails at 3, 10, 17, ...
				return fmt.Errorf("item %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "item 3" {
			t.Fatalf("workers=%d: want lowest-indexed error 'item 3', got %v", workers, err)
		}
	}
}

func TestRunAllItemsRunDespiteErrors(t *testing.T) {
	var ran atomic.Int32
	boom := errors.New("boom")
	err := Run(4, 40, func(i int) error {
		ran.Add(1)
		if i == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	if ran.Load() != 40 {
		t.Fatalf("only %d of 40 items ran", ran.Load())
	}
}

func TestRunCtxStopsSchedulingAfterCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		const n = 1000
		var ran atomic.Int32
		err := RunCtx(ctx, workers, n, func(i int) error {
			// Cancel early: items already picked up may still finish, but
			// no new items may start afterwards.
			if ran.Add(1) == 5 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: want context.Canceled, got %v", workers, err)
		}
		// Each worker may finish its in-flight item and claim at most one
		// more around the cancellation window; the bulk of the 1000-item
		// grid must never be scheduled.
		if got := ran.Load(); int(got) > 5+2*workers {
			t.Fatalf("workers=%d: %d items ran after cancellation (want <= %d)", workers, got, 5+2*workers)
		}
	}
}

func TestRunCtxPreCancelledRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	err := RunCtx(ctx, 4, 100, func(i int) error { ran.Add(1); return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The multi-worker path may admit at most one item per worker between
	// the Done check and the index claim; in practice a pre-cancelled ctx
	// schedules nothing.
	if got := ran.Load(); got > 4 {
		t.Fatalf("%d items ran under a pre-cancelled context", got)
	}
}

func TestRunCtxCancellationBeatsItemErrors(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	err := RunCtx(ctx, 2, 50, func(i int) error {
		if i == 0 {
			cancel()
			return errors.New("item error")
		}
		return nil
	})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled to take precedence, got %v", err)
	}
}

func TestCollectCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CollectCtx(ctx, 2, 10, func(i int) (int, error) { return i, nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestCollectOrdersResults(t *testing.T) {
	out, err := CollectCtx(context.Background(), 8, 100, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	if _, err := CollectCtx(context.Background(), 2, 3, func(i int) (int, error) {
		if i == 1 {
			return 0, errors.New("nope")
		}
		return i, nil
	}); err == nil {
		t.Fatal("error swallowed")
	}
}
