package itemset

import (
	"context"
	"strconv"
	"strings"
	"sync/atomic"

	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/kit"
)

// IndexKey derives the canonical cache key for one corpus slice's
// index: the corpus content fingerprint plus the slice selector. Every
// layer that shares an IndexCache — the server handlers, the experiment
// harness, the facade — keys it this way, so a /v1/mine request, a
// Table I run and a Fig 3 panel over the same cuisine converge on one
// entry. Content addressing is the same discipline as the server's
// result cache: the key identifies the data, so entries never need
// invalidation, only eviction.
func IndexKey(corpusFingerprint, region string, categories bool) string {
	return corpusFingerprint + "|region=" + region + "|categories=" + strconv.FormatBool(categories)
}

// IndexCacheStats is a snapshot of an IndexCache's counters.
type IndexCacheStats struct {
	Builds        uint64 // index builds executed (singleflight-deduplicated)
	Hits          uint64 // Gets served from a cached index
	Misses        uint64 // Gets that had to build (or join an in-flight build)
	Evictions     uint64 // indexes evicted to fit the byte budget
	Invalidations uint64 // entries removed by InvalidateFingerprint
	Bytes         int64  // retained bytes of cached indexes
	Entries       int    // cached indexes

	// Posting-container telemetry, accumulated once per index that
	// passes through the cache (each successful build, each inserted
	// Put): how many items landed in each container format, and the
	// posting bytes the adaptive layout saved over the uniform dense
	// one. Exposed on /metrics as cuisinevol_index_container_*_total
	// and cuisinevol_index_bytes_saved_total.
	ContainerArrays  uint64
	ContainerBitsets uint64
	ContainerRuns    uint64
	BytesSaved       uint64
}

// IndexCache is a byte-budget LRU of immutable corpus indexes with
// singleflight builds: concurrent Gets for the same key share one
// BuildIndex run, and completed indexes are retained until the budget
// forces eviction. Safe for concurrent use.
type IndexCache struct {
	lru    *kit.LRU[*Index] // costed by Index.Bytes
	flight kit.Group[*Index]

	builds, invalidations        atomic.Uint64
	arrays, bitsets, runs, saved atomic.Uint64
}

// NewIndexCache returns a cache bounded at budget bytes of retained
// index memory. budget <= 0 disables retention: every Get builds (still
// singleflight-coalesced with concurrent identical Gets).
func NewIndexCache(budget int64) *IndexCache {
	return &IndexCache{lru: kit.NewLRU[*Index](budget)}
}

// Get returns the index cached under key, building it from source's
// transactions on first use. source is invoked at most once per
// in-flight key no matter how many goroutines ask concurrently; its
// error is propagated to every waiter and nothing is cached. The
// returned Index is immutable and remains valid after eviction.
func (c *IndexCache) Get(key string, source func() ([][]ingredient.ID, error)) (*Index, error) {
	if ix, ok := c.lru.Get(key); ok {
		return ix, nil
	}
	ix, err, _ := c.flight.Do(context.Background(), key, func(context.Context) (*Index, error) {
		// A build that completed between the cache miss and this call's
		// leadership already cached the index.
		if ix, ok := c.lru.Peek(key); ok {
			return ix, nil
		}
		c.builds.Add(1)
		txs, err := source()
		if err != nil {
			return nil, err
		}
		ix, err := BuildIndex(txs)
		if err == nil {
			c.countContainers(ix)
		}
		return ix, err
	}, func(ix *Index) { c.lru.Put(key, ix, ix.Bytes()) })
	return ix, err
}

// Put inserts an externally built index — a LiveIndex snapshot derived
// incrementally, rather than built from a source callback — under key.
// The usual budget and LRU rules apply; an index wider than the whole
// budget is simply not retained. A racing or pre-existing entry for the
// same key is kept (same key means same content fingerprint, so the
// incumbent is equivalent). Container telemetry counts the index only
// when it is actually inserted — repeated Puts of one memoized snapshot
// must not inflate the totals.
func (c *IndexCache) Put(key string, ix *Index) {
	if c.lru.Put(key, ix, ix.Bytes()) {
		c.countContainers(ix)
	}
}

// countContainers accumulates one index's container mix into the cache
// telemetry.
func (c *IndexCache) countContainers(ix *Index) {
	st := ix.ContainerStats()
	c.arrays.Add(uint64(st.Arrays))
	c.bitsets.Add(uint64(st.Bitsets))
	c.runs.Add(uint64(st.Runs))
	c.saved.Add(uint64(st.BytesSaved()))
}

// InvalidateFingerprint removes every cached index derived from the
// given corpus fingerprint (any region/category view) and reports how
// many were dropped. Callers use this when a corpus is deleted so its
// indexes do not sit unreachable-but-resident until LRU pressure.
// Because cached indexes are immutable, invalidation never breaks
// holders: an *Index pinned by an in-flight query stays valid and
// byte-deterministic after removal, exactly as after eviction.
func (c *IndexCache) InvalidateFingerprint(fp string) int {
	prefix := fp + "|"
	match := func(key string) bool { return strings.HasPrefix(key, prefix) }
	// Builds still in flight for this fingerprint must not land in the
	// cache when they complete — without this, a Get racing the
	// invalidation resurrects the deleted corpus's index. Marking them
	// first means any build that lands before the mark is removed below.
	dropped := c.flight.Drop(match)
	removed := c.lru.RemoveFunc(match)
	c.invalidations.Add(uint64(dropped + removed))
	return removed
}

// Stats returns a snapshot of the cache counters.
func (c *IndexCache) Stats() IndexCacheStats {
	st := c.lru.Stats()
	return IndexCacheStats{
		Builds:           c.builds.Load(),
		Hits:             st.Hits,
		Misses:           st.Misses,
		Evictions:        st.Evictions,
		Invalidations:    c.invalidations.Load(),
		Bytes:            st.Bytes,
		Entries:          st.Entries,
		ContainerArrays:  c.arrays.Load(),
		ContainerBitsets: c.bitsets.Load(),
		ContainerRuns:    c.runs.Load(),
		BytesSaved:       c.saved.Load(),
	}
}
