package kit

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// discard is the keep function of calls whose results go nowhere.
func discard([]byte) {}

// TestFlightCoalescesConcurrentCalls holds the single execution open
// until all 8 callers have joined, then releases it — a deterministic
// proof that concurrent duplicate calls share one execution.
func TestFlightCoalescesConcurrentCalls(t *testing.T) {
	g := &Group[[]byte]{}
	const n = 8
	var executions atomic.Int32
	release := make(chan struct{})

	var wg sync.WaitGroup
	results := make([][]byte, n)
	errs := make([]error, n)
	sharedFlags := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i], sharedFlags[i] = g.Do(context.Background(), "k", func(ctx context.Context) ([]byte, error) {
				executions.Add(1)
				<-release
				return []byte("v"), nil
			}, discard)
		}(i)
	}
	// Wait until every caller is inside Do — counted as a waiter of the
	// one in-flight call — then let the computation finish. (Waiting only
	// for the goroutines to start let a straggler reach Do after the
	// release and start a second execution.)
	for {
		g.mu.Lock()
		c := g.m["k"]
		all := c != nil && c.waiters == n
		g.mu.Unlock()
		if all {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := executions.Load(); got != 1 {
		t.Fatalf("fn executed %d times (want 1)", got)
	}
	leaderCount := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if string(results[i]) != "v" {
			t.Fatalf("caller %d got %q", i, results[i])
		}
		if !sharedFlags[i] {
			leaderCount++
		}
	}
	if leaderCount != 1 {
		t.Fatalf("%d callers report leading the execution (want 1)", leaderCount)
	}
}

// TestFlightCancelPropagatesWhenAllWaitersLeave proves the cancellation
// path: the computation's context must be cancelled exactly when the
// last interested caller gives up.
func TestFlightCancelPropagatesWhenAllWaitersLeave(t *testing.T) {
	g := &Group[[]byte]{}
	computeCancelled := make(chan struct{})
	started := make(chan struct{})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err, _ := g.Do(ctx, "k", func(cctx context.Context) ([]byte, error) {
			close(started)
			<-cctx.Done()
			close(computeCancelled)
			return nil, cctx.Err()
		}, discard)
		done <- err
	}()
	<-started
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("caller error = %v (want context.Canceled)", err)
	}
	select {
	case <-computeCancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("compute context not cancelled after last waiter left")
	}
}

// TestFlightComputationSurvivesOneWaiterLeaving: with two waiters, one
// cancelling must not kill the computation the other still wants.
func TestFlightComputationSurvivesOneWaiterLeaving(t *testing.T) {
	g := &Group[[]byte]{}
	release := make(chan struct{})
	started := make(chan struct{})

	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	doneA := make(chan error, 1)
	go func() {
		_, err, _ := g.Do(ctxA, "k", func(cctx context.Context) ([]byte, error) {
			close(started)
			select {
			case <-release:
				return []byte("v"), nil
			case <-cctx.Done():
				return nil, cctx.Err()
			}
		}, discard)
		doneA <- err
	}()
	<-started

	doneB := make(chan struct{})
	var valB []byte
	var errB error
	go func() {
		valB, errB, _ = g.Do(context.Background(), "k", func(ctx context.Context) ([]byte, error) {
			t.Error("second caller must join, not recompute")
			return nil, nil
		}, discard)
		close(doneB)
	}()
	// Wait until B has actually joined (waiter count 2), then abandon A;
	// B must still get the value.
	for {
		g.mu.Lock()
		waiters := 0
		if c := g.m["k"]; c != nil {
			waiters = c.waiters
		}
		g.mu.Unlock()
		if waiters == 2 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancelA()
	<-doneA
	close(release)
	<-doneB
	if errB != nil || string(valB) != "v" {
		t.Fatalf("surviving waiter got (%q, %v)", valB, errB)
	}
}
