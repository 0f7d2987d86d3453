package server

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"cuisinevol/internal/corpusstore"
	"cuisinevol/internal/itemset"
	"cuisinevol/internal/kit"
)

// latencyBuckets are the histogram upper bounds in seconds. They span
// sub-millisecond cache hits through multi-minute full-scale Fig 4
// ensembles.
var latencyBuckets = [numBuckets]float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60, 300}

const numBuckets = 9

// metrics is a dependency-free Prometheus-style registry covering the
// serving layer: per-endpoint request counts and latency histograms,
// cache traffic, coalescing, and compute-pool occupancy. Exposition is
// deterministic (sorted label sets) so /metrics itself is testable.
type metrics struct {
	mu sync.Mutex
	// requests[endpoint][status] counts completed requests.
	requests map[string]map[int]uint64
	// latency[endpoint] is a cumulative histogram over latencyBuckets.
	latency map[string]*histogram

	coalesced    atomic.Uint64 // requests served by joining another's computation
	computations atomic.Uint64 // underlying pipeline computations executed
	inflight     atomic.Int64  // computations currently holding a compute slot
	waiting      atomic.Int64  // computations queued on the compute semaphore

	// Live-index (incremental append) counters.
	liveAppends    atomic.Uint64 // append operations served through a live head
	liveAppendedTx atomic.Uint64 // transactions appended incrementally (delta sizes)
	liveSeeds      atomic.Uint64 // live heads seeded by a full O(n) build
	liveSnapshots  atomic.Uint64 // epoch snapshots materialized into the index cache

	// Peering (multi-node serving tier) counters.
	peerProxied            atomic.Uint64 // requests relayed to their key's owning node
	peerFallback           atomic.Uint64 // owner-unreachable requests served by bounded local compute
	peerFallbackShed       atomic.Uint64 // owner-unreachable requests shed (fallback budget exhausted)
	peerRingMoves          atomic.Uint64 // keyspace arcs reassigned by membership updates
	peerSnapshotSaves      atomic.Uint64 // cache snapshots written to disk
	peerSnapshotLoads      atomic.Uint64 // cache snapshots restored at startup
	peerSnapshotLoadErrors atomic.Uint64 // snapshot loads rejected by verification (quarantined)
	peerSnapshotEntries    atomic.Uint64 // cache entries restored from snapshots

	shedComputations atomic.Uint64 // computations rejected at admission (queue full)
	deadlineTimeouts atomic.Uint64 // requests that exceeded their deadline budget
	// chaosInjected counts injected faults by Fault kind (all zero when
	// chaos is disabled).
	chaosInjected [FaultItem + 1]atomic.Uint64
}

type histogram struct {
	counts [numBuckets + 1]uint64 // +Inf bucket last
	sum    float64
	total  uint64
}

func newMetrics() *metrics {
	return &metrics{
		requests: make(map[string]map[int]uint64),
		latency:  make(map[string]*histogram),
	}
}

// observe records one completed request.
func (m *metrics) observe(endpoint string, status int, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	byStatus := m.requests[endpoint]
	if byStatus == nil {
		byStatus = make(map[int]uint64)
		m.requests[endpoint] = byStatus
	}
	byStatus[status]++
	h := m.latency[endpoint]
	if h == nil {
		h = &histogram{}
		m.latency[endpoint] = h
	}
	idx := numBuckets
	for i, ub := range latencyBuckets {
		if seconds <= ub {
			idx = i
			break
		}
	}
	h.counts[idx]++
	h.sum += seconds
	h.total++
}

// WriteTo renders the registry in Prometheus text exposition format
// (version 0.0.4). Families and label values are emitted in sorted
// order.
func (m *metrics) WriteTo(w io.Writer, cache *kit.LRU[[]byte], indexes *itemset.IndexCache, registry *corpusstore.Registry, live *kit.LRU[*itemset.LiveIndex]) error {
	m.mu.Lock()
	endpoints := make([]string, 0, len(m.requests))
	for ep := range m.requests {
		endpoints = append(endpoints, ep)
	}
	sort.Strings(endpoints)

	var b []byte
	appendf := func(format string, args ...any) {
		b = append(b, fmt.Sprintf(format, args...)...)
	}

	appendf("# HELP cuisinevol_http_requests_total Completed HTTP requests by endpoint and status code.\n")
	appendf("# TYPE cuisinevol_http_requests_total counter\n")
	for _, ep := range endpoints {
		statuses := make([]int, 0, len(m.requests[ep]))
		for s := range m.requests[ep] {
			statuses = append(statuses, s)
		}
		sort.Ints(statuses)
		for _, s := range statuses {
			appendf("cuisinevol_http_requests_total{endpoint=%q,code=\"%d\"} %d\n", ep, s, m.requests[ep][s])
		}
	}

	appendf("# HELP cuisinevol_http_request_duration_seconds Request latency by endpoint.\n")
	appendf("# TYPE cuisinevol_http_request_duration_seconds histogram\n")
	for _, ep := range endpoints {
		h := m.latency[ep]
		if h == nil {
			continue
		}
		cum := uint64(0)
		for i, ub := range latencyBuckets {
			cum += h.counts[i]
			appendf("cuisinevol_http_request_duration_seconds_bucket{endpoint=%q,le=%q} %d\n",
				ep, strconv.FormatFloat(ub, 'g', -1, 64), cum)
		}
		cum += h.counts[numBuckets]
		appendf("cuisinevol_http_request_duration_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", ep, cum)
		appendf("cuisinevol_http_request_duration_seconds_sum{endpoint=%q} %s\n",
			ep, strconv.FormatFloat(h.sum, 'g', -1, 64))
		appendf("cuisinevol_http_request_duration_seconds_count{endpoint=%q} %d\n", ep, h.total)
	}
	m.mu.Unlock()

	cst := cache.Stats()
	appendf("# HELP cuisinevol_cache_hits_total Result-cache hits.\n")
	appendf("# TYPE cuisinevol_cache_hits_total counter\n")
	appendf("cuisinevol_cache_hits_total %d\n", cst.Hits)
	appendf("# HELP cuisinevol_cache_misses_total Result-cache misses.\n")
	appendf("# TYPE cuisinevol_cache_misses_total counter\n")
	appendf("cuisinevol_cache_misses_total %d\n", cst.Misses)
	appendf("# HELP cuisinevol_cache_evictions_total Entries evicted to fit the byte budget.\n")
	appendf("# TYPE cuisinevol_cache_evictions_total counter\n")
	appendf("cuisinevol_cache_evictions_total %d\n", cst.Evictions)
	appendf("# HELP cuisinevol_cache_bytes Bytes of response bodies currently cached.\n")
	appendf("# TYPE cuisinevol_cache_bytes gauge\n")
	appendf("cuisinevol_cache_bytes %d\n", cst.Bytes)
	appendf("# HELP cuisinevol_cache_entries Entries currently cached.\n")
	appendf("# TYPE cuisinevol_cache_entries gauge\n")
	appendf("cuisinevol_cache_entries %d\n", cst.Entries)

	ist := indexes.Stats()
	appendf("# HELP cuisinevol_index_builds_total Corpus-index builds executed (singleflight-deduplicated).\n")
	appendf("# TYPE cuisinevol_index_builds_total counter\n")
	appendf("cuisinevol_index_builds_total %d\n", ist.Builds)
	appendf("# HELP cuisinevol_index_hits_total Index-cache lookups served from a cached index.\n")
	appendf("# TYPE cuisinevol_index_hits_total counter\n")
	appendf("cuisinevol_index_hits_total %d\n", ist.Hits)
	appendf("# HELP cuisinevol_index_misses_total Index-cache lookups that had to build or join an in-flight build.\n")
	appendf("# TYPE cuisinevol_index_misses_total counter\n")
	appendf("cuisinevol_index_misses_total %d\n", ist.Misses)
	appendf("# HELP cuisinevol_index_evictions_total Indexes evicted to fit the byte budget.\n")
	appendf("# TYPE cuisinevol_index_evictions_total counter\n")
	appendf("cuisinevol_index_evictions_total %d\n", ist.Evictions)
	appendf("# HELP cuisinevol_index_invalidations_total Index entries dropped by fingerprint invalidation (corpus deletes).\n")
	appendf("# TYPE cuisinevol_index_invalidations_total counter\n")
	appendf("cuisinevol_index_invalidations_total %d\n", ist.Invalidations)
	appendf("# HELP cuisinevol_index_bytes Bytes of prebuilt corpus indexes currently retained.\n")
	appendf("# TYPE cuisinevol_index_bytes gauge\n")
	appendf("cuisinevol_index_bytes %d\n", ist.Bytes)
	appendf("# HELP cuisinevol_index_entries Corpus indexes currently cached.\n")
	appendf("# TYPE cuisinevol_index_entries gauge\n")
	appendf("cuisinevol_index_entries %d\n", ist.Entries)
	appendf("# HELP cuisinevol_index_container_array_total Items laid out as sorted-array posting containers, across all indexes cached.\n")
	appendf("# TYPE cuisinevol_index_container_array_total counter\n")
	appendf("cuisinevol_index_container_array_total %d\n", ist.ContainerArrays)
	appendf("# HELP cuisinevol_index_container_bitset_total Items laid out as dense-bitset posting containers, across all indexes cached.\n")
	appendf("# TYPE cuisinevol_index_container_bitset_total counter\n")
	appendf("cuisinevol_index_container_bitset_total %d\n", ist.ContainerBitsets)
	appendf("# HELP cuisinevol_index_container_run_total Items laid out as run-length posting containers, across all indexes cached.\n")
	appendf("# TYPE cuisinevol_index_container_run_total counter\n")
	appendf("cuisinevol_index_container_run_total %d\n", ist.ContainerRuns)
	appendf("# HELP cuisinevol_index_bytes_saved_total Posting bytes the adaptive container layout saved over a uniform dense one, across all indexes cached.\n")
	appendf("# TYPE cuisinevol_index_bytes_saved_total counter\n")
	appendf("cuisinevol_index_bytes_saved_total %d\n", ist.BytesSaved)

	rst := registry.Stats()
	appendf("# HELP cuisinevol_corpus_loads_total Corpus loads from the backing store (singleflight-deduplicated).\n")
	appendf("# TYPE cuisinevol_corpus_loads_total counter\n")
	appendf("cuisinevol_corpus_loads_total %d\n", rst.Loads)
	appendf("# HELP cuisinevol_corpus_load_hits_total Corpus resolutions served from a memoized corpus.\n")
	appendf("# TYPE cuisinevol_corpus_load_hits_total counter\n")
	appendf("cuisinevol_corpus_load_hits_total %d\n", rst.LoadHits)
	appendf("# HELP cuisinevol_corpus_load_misses_total Corpus resolutions that had to load (or join an in-flight load).\n")
	appendf("# TYPE cuisinevol_corpus_load_misses_total counter\n")
	appendf("cuisinevol_corpus_load_misses_total %d\n", rst.LoadMisses)
	appendf("# HELP cuisinevol_corpus_evictions_total Memoized corpora evicted to fit the memo byte budget.\n")
	appendf("# TYPE cuisinevol_corpus_evictions_total counter\n")
	appendf("cuisinevol_corpus_evictions_total %d\n", rst.Evictions)
	appendf("# HELP cuisinevol_corpus_puts_total Corpora registered (distinct content).\n")
	appendf("# TYPE cuisinevol_corpus_puts_total counter\n")
	appendf("cuisinevol_corpus_puts_total %d\n", rst.Puts)
	appendf("# HELP cuisinevol_corpus_deletes_total Corpora deleted from the registry.\n")
	appendf("# TYPE cuisinevol_corpus_deletes_total counter\n")
	appendf("cuisinevol_corpus_deletes_total %d\n", rst.Deletes)
	appendf("# HELP cuisinevol_corpus_loaded_bytes Serialized bytes of corpora currently memoized in memory.\n")
	appendf("# TYPE cuisinevol_corpus_loaded_bytes gauge\n")
	appendf("cuisinevol_corpus_loaded_bytes %d\n", rst.LoadedBytes)
	appendf("# HELP cuisinevol_corpus_loaded_entries Corpora currently memoized in memory.\n")
	appendf("# TYPE cuisinevol_corpus_loaded_entries gauge\n")
	appendf("cuisinevol_corpus_loaded_entries %d\n", rst.LoadedEntries)
	appendf("# HELP cuisinevol_corpus_store_bytes Payload bytes in the backing corpus store.\n")
	appendf("# TYPE cuisinevol_corpus_store_bytes gauge\n")
	appendf("cuisinevol_corpus_store_bytes %d\n", rst.StoreBytes)
	appendf("# HELP cuisinevol_corpus_store_entries Corpora in the backing store.\n")
	appendf("# TYPE cuisinevol_corpus_store_entries gauge\n")
	appendf("cuisinevol_corpus_store_entries %d\n", rst.StoreEntries)

	heads := live.All()
	var liveEpochs uint64
	for _, h := range heads {
		liveEpochs += h.Value.Epoch()
	}
	appendf("# HELP cuisinevol_live_appends_total Corpus appends served through an incremental live-index head.\n")
	appendf("# TYPE cuisinevol_live_appends_total counter\n")
	appendf("cuisinevol_live_appends_total %d\n", m.liveAppends.Load())
	appendf("# HELP cuisinevol_live_appended_tx_total Transactions appended incrementally (delta sizes, O(delta) each).\n")
	appendf("# TYPE cuisinevol_live_appended_tx_total counter\n")
	appendf("cuisinevol_live_appended_tx_total %d\n", m.liveAppendedTx.Load())
	appendf("# HELP cuisinevol_live_seeds_total Live heads seeded by a full corpus build (cold lineage, restart, or head eviction).\n")
	appendf("# TYPE cuisinevol_live_seeds_total counter\n")
	appendf("cuisinevol_live_seeds_total %d\n", m.liveSeeds.Load())
	appendf("# HELP cuisinevol_live_snapshots_total Epoch snapshots materialized into the index cache by appends.\n")
	appendf("# TYPE cuisinevol_live_snapshots_total counter\n")
	appendf("cuisinevol_live_snapshots_total %d\n", m.liveSnapshots.Load())
	appendf("# HELP cuisinevol_live_heads Live-index write heads currently retained.\n")
	appendf("# TYPE cuisinevol_live_heads gauge\n")
	appendf("cuisinevol_live_heads %d\n", len(heads))
	appendf("# HELP cuisinevol_live_epochs Summed mutation epochs across retained live heads.\n")
	appendf("# TYPE cuisinevol_live_epochs gauge\n")
	appendf("cuisinevol_live_epochs %d\n", liveEpochs)

	appendf("# HELP cuisinevol_coalesced_requests_total Requests served by joining an identical in-flight computation.\n")
	appendf("# TYPE cuisinevol_coalesced_requests_total counter\n")
	appendf("cuisinevol_coalesced_requests_total %d\n", m.coalesced.Load())
	appendf("# HELP cuisinevol_computations_total Underlying pipeline computations executed.\n")
	appendf("# TYPE cuisinevol_computations_total counter\n")
	appendf("cuisinevol_computations_total %d\n", m.computations.Load())
	appendf("# HELP cuisinevol_compute_inflight Computations currently holding a compute slot.\n")
	appendf("# TYPE cuisinevol_compute_inflight gauge\n")
	appendf("cuisinevol_compute_inflight %d\n", m.inflight.Load())
	appendf("# HELP cuisinevol_compute_waiting Computations queued for a compute slot.\n")
	appendf("# TYPE cuisinevol_compute_waiting gauge\n")
	appendf("cuisinevol_compute_waiting %d\n", m.waiting.Load())

	appendf("# HELP cuisinevol_peer_proxied_total Requests relayed to the node owning their cache key.\n")
	appendf("# TYPE cuisinevol_peer_proxied_total counter\n")
	appendf("cuisinevol_peer_proxied_total %d\n", m.peerProxied.Load())
	appendf("# HELP cuisinevol_peer_fallback_total Owner-unreachable requests served by bounded local compute.\n")
	appendf("# TYPE cuisinevol_peer_fallback_total counter\n")
	appendf("cuisinevol_peer_fallback_total %d\n", m.peerFallback.Load())
	appendf("# HELP cuisinevol_peer_fallback_shed_total Owner-unreachable requests shed because the fallback budget was exhausted.\n")
	appendf("# TYPE cuisinevol_peer_fallback_shed_total counter\n")
	appendf("cuisinevol_peer_fallback_shed_total %d\n", m.peerFallbackShed.Load())
	appendf("# HELP cuisinevol_peer_ring_moves_total Keyspace arcs reassigned by peer membership updates.\n")
	appendf("# TYPE cuisinevol_peer_ring_moves_total counter\n")
	appendf("cuisinevol_peer_ring_moves_total %d\n", m.peerRingMoves.Load())
	appendf("# HELP cuisinevol_peer_snapshot_saves_total Result-cache snapshots written to disk.\n")
	appendf("# TYPE cuisinevol_peer_snapshot_saves_total counter\n")
	appendf("cuisinevol_peer_snapshot_saves_total %d\n", m.peerSnapshotSaves.Load())
	appendf("# HELP cuisinevol_peer_snapshot_loads_total Result-cache snapshots restored at startup.\n")
	appendf("# TYPE cuisinevol_peer_snapshot_loads_total counter\n")
	appendf("cuisinevol_peer_snapshot_loads_total %d\n", m.peerSnapshotLoads.Load())
	appendf("# HELP cuisinevol_peer_snapshot_load_errors_total Snapshot loads rejected by verification (file quarantined, node started cold).\n")
	appendf("# TYPE cuisinevol_peer_snapshot_load_errors_total counter\n")
	appendf("cuisinevol_peer_snapshot_load_errors_total %d\n", m.peerSnapshotLoadErrors.Load())
	appendf("# HELP cuisinevol_peer_snapshot_entries_total Cache entries restored from snapshots.\n")
	appendf("# TYPE cuisinevol_peer_snapshot_entries_total counter\n")
	appendf("cuisinevol_peer_snapshot_entries_total %d\n", m.peerSnapshotEntries.Load())

	appendf("# HELP cuisinevol_shed_total Computations rejected at admission because the wait queue was full.\n")
	appendf("# TYPE cuisinevol_shed_total counter\n")
	appendf("cuisinevol_shed_total %d\n", m.shedComputations.Load())
	appendf("# HELP cuisinevol_deadline_timeouts_total Requests that exceeded their deadline budget (504).\n")
	appendf("# TYPE cuisinevol_deadline_timeouts_total counter\n")
	appendf("cuisinevol_deadline_timeouts_total %d\n", m.deadlineTimeouts.Load())
	appendf("# HELP cuisinevol_chaos_injected_total Faults injected by the chaos layer, by kind.\n")
	appendf("# TYPE cuisinevol_chaos_injected_total counter\n")
	for f := FaultError; f <= FaultItem; f++ {
		appendf("cuisinevol_chaos_injected_total{fault=%q} %d\n", f.String(), m.chaosInjected[f].Load())
	}

	_, err := w.Write(b)
	return err
}
