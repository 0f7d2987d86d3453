package itemset

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"cuisinevol/internal/ingredient"
)

func TestIndexKey(t *testing.T) {
	a := IndexKey("fp1", "ITA", false)
	b := IndexKey("fp1", "ITA", true)
	c := IndexKey("fp1", "", false)
	d := IndexKey("fp2", "ITA", false)
	keys := map[string]bool{a: true, b: true, c: true, d: true}
	if len(keys) != 4 {
		t.Fatalf("key collisions across distinct (fp, region, categories) triples: %v", keys)
	}
}

func TestIndexCacheHitAndMiss(t *testing.T) {
	c := NewIndexCache(1 << 20)
	var builds int32
	source := func() ([][]ingredient.ID, error) {
		atomic.AddInt32(&builds, 1)
		return classicTxs(), nil
	}
	first, err := c.Get("k", source)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Get("k", source)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatal("second Get returned a different index pointer")
	}
	if builds != 1 {
		t.Fatalf("source invoked %d times, want 1", builds)
	}
	st := c.Stats()
	if st.Builds != 1 || st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want builds=1 hits=1 misses=1 entries=1", st)
	}
	if st.Bytes != first.Bytes() {
		t.Fatalf("stats bytes = %d, index bytes = %d", st.Bytes, first.Bytes())
	}
}

// TestIndexCacheSingleflight: concurrent Gets for one key share a
// single build and all receive the same *Index.
func TestIndexCacheSingleflight(t *testing.T) {
	c := NewIndexCache(1 << 20)
	var builds int32
	release := make(chan struct{})
	source := func() ([][]ingredient.ID, error) {
		atomic.AddInt32(&builds, 1)
		<-release // hold every waiter in the in-flight window
		return classicTxs(), nil
	}
	const goroutines = 12
	var wg sync.WaitGroup
	got := make([]*Index, goroutines)
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g], errs[g] = c.Get("k", source)
		}(g)
	}
	close(release)
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if got[g] != got[0] {
			t.Fatalf("goroutine %d received a different index", g)
		}
	}
	if builds != 1 {
		t.Fatalf("source invoked %d times under contention, want 1", builds)
	}
}

func TestIndexCacheErrorNotCached(t *testing.T) {
	c := NewIndexCache(1 << 20)
	boom := errors.New("corpus unavailable")
	calls := 0
	if _, err := c.Get("k", func() ([][]ingredient.ID, error) { calls++; return nil, boom }); err != boom {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	// The failure must not poison the key: the next Get rebuilds.
	ix, err := c.Get("k", func() ([][]ingredient.ID, error) { calls++; return classicTxs(), nil })
	if err != nil || ix == nil {
		t.Fatalf("retry after error: ix=%v err=%v", ix, err)
	}
	if calls != 2 {
		t.Fatalf("source calls = %d, want 2", calls)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d, want 1 (error result not cached)", st.Entries)
	}
}

// TestIndexCacheEviction: a byte budget sized for roughly one index
// evicts least-recently-used entries, and evicted indexes stay valid.
func TestIndexCacheEviction(t *testing.T) {
	probe, err := BuildIndex(classicTxs())
	if err != nil {
		t.Fatal(err)
	}
	budget := probe.Bytes() + probe.Bytes()/2 // room for one, not two
	c := NewIndexCache(budget)
	sourceFor := func(shift int) func() ([][]ingredient.ID, error) {
		return func() ([][]ingredient.ID, error) {
			txs := classicTxs()
			for i := range txs {
				shifted := make([]ingredient.ID, len(txs[i]))
				for j, it := range txs[i] {
					shifted[j] = it + ingredient.ID(shift*100)
				}
				txs[i] = shifted
			}
			return txs, nil
		}
	}
	first, err := c.Get("a", sourceFor(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("b", sourceFor(1)); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Evictions == 0 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want one eviction leaving one entry", st)
	}
	if st.Bytes > budget {
		t.Fatalf("retained bytes %d exceed budget %d", st.Bytes, budget)
	}
	// The evicted index is immutable and still mineable.
	res, err := MineIndexed(first, 2.0/9, MineOptions{})
	if err != nil || len(res.Sets) == 0 {
		t.Fatalf("evicted index unusable: res=%v err=%v", res, err)
	}
	// Re-Get of the evicted key is a miss that rebuilds.
	builds := c.Stats().Builds
	if _, err := c.Get("a", sourceFor(0)); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Builds; got != builds+1 {
		t.Fatalf("builds after re-Get = %d, want %d", got, builds+1)
	}
}

// TestIndexCacheLRUOrder: touching an entry protects it; the coldest
// entry goes first.
func TestIndexCacheLRUOrder(t *testing.T) {
	probe, err := BuildIndex(classicTxs())
	if err != nil {
		t.Fatal(err)
	}
	c := NewIndexCache(2*probe.Bytes() + probe.Bytes()/2) // room for two
	source := func() ([][]ingredient.ID, error) { return classicTxs(), nil }
	if _, err := c.Get("a", source); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("b", source); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("a", source); err != nil { // touch a: b is now LRU
		t.Fatal(err)
	}
	if _, err := c.Get("c", source); err != nil { // evicts b
		t.Fatal(err)
	}
	builds := c.Stats().Builds
	if _, err := c.Get("a", source); err != nil { // must still be a hit
		t.Fatal(err)
	}
	if got := c.Stats().Builds; got != builds {
		t.Fatal("touched entry was evicted ahead of the LRU one")
	}
	if _, err := c.Get("b", source); err != nil { // must rebuild
		t.Fatal(err)
	}
	if got := c.Stats().Builds; got != builds+1 {
		t.Fatal("LRU entry survived past a newer insertion")
	}
}

// TestIndexCacheOversized: an index bigger than the whole budget is
// returned to the caller but never retained.
func TestIndexCacheOversized(t *testing.T) {
	c := NewIndexCache(1) // nothing fits
	ix, err := c.Get("k", func() ([][]ingredient.ID, error) { return classicTxs(), nil })
	if err != nil || ix == nil {
		t.Fatalf("oversized build failed: %v", err)
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("oversized index retained: %+v", st)
	}
}

// TestIndexCacheConcurrentMixedKeys hammers the cache from many
// goroutines over a handful of keys under an eviction-inducing budget;
// the race detector owns the locking proof, this owns liveness and the
// returned indexes' integrity.
func TestIndexCacheConcurrentMixedKeys(t *testing.T) {
	probe, err := BuildIndex(classicTxs())
	if err != nil {
		t.Fatal(err)
	}
	c := NewIndexCache(2 * probe.Bytes())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("k%d", (g+i)%4)
				ix, err := c.Get(key, func() ([][]ingredient.ID, error) { return classicTxs(), nil })
				if err != nil {
					t.Error(err)
					return
				}
				if ix.N() != 9 {
					t.Errorf("corrupt index: N = %d", ix.N())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Bytes > 2*probe.Bytes() {
		t.Fatalf("retained bytes %d exceed budget", st.Bytes)
	}
}
