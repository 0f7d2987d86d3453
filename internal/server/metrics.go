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

// family is one metric family of the exposition: its name, Prometheus
// type and HELP text, and, for an unlabelled family, its one sample.
type family struct {
	name, kind, help string
	value            uint64
}

// header appends the family's HELP and TYPE lines.
func (f family) header(b []byte) []byte {
	return fmt.Appendf(b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
}

// WriteTo renders the registry in Prometheus text exposition format
// (version 0.0.4). Families are emitted in a fixed order and label
// values in sorted order; each unlabelled family is one row of the
// table below.
func (m *metrics) WriteTo(w io.Writer, cache *kit.LRU[[]byte], indexes *itemset.IndexCache, registry *corpusstore.Registry, live *kit.LRU[*itemset.LiveIndex]) error {
	requests := family{name: "cuisinevol_http_requests_total", kind: "counter", help: "Completed HTTP requests by endpoint and status code."}
	latency := family{name: "cuisinevol_http_request_duration_seconds", kind: "histogram", help: "Request latency by endpoint."}
	chaos := family{name: "cuisinevol_chaos_injected_total", kind: "counter", help: "Faults injected by the chaos layer, by kind."}

	m.mu.Lock()
	endpoints := make([]string, 0, len(m.requests))
	for ep := range m.requests {
		endpoints = append(endpoints, ep)
	}
	sort.Strings(endpoints)
	b := requests.header(nil)
	for _, ep := range endpoints {
		statuses := make([]int, 0, len(m.requests[ep]))
		for s := range m.requests[ep] {
			statuses = append(statuses, s)
		}
		sort.Ints(statuses)
		for _, s := range statuses {
			b = fmt.Appendf(b, "%s{endpoint=%q,code=\"%d\"} %d\n", requests.name, ep, s, m.requests[ep][s])
		}
	}
	b = latency.header(b)
	for _, ep := range endpoints {
		h := m.latency[ep]
		if h == nil {
			continue
		}
		cum := uint64(0)
		for i, ub := range latencyBuckets {
			cum += h.counts[i]
			b = fmt.Appendf(b, "%s_bucket{endpoint=%q,le=%q} %d\n", latency.name, ep, strconv.FormatFloat(ub, 'g', -1, 64), cum)
		}
		cum += h.counts[numBuckets]
		b = fmt.Appendf(b, "%s_bucket{endpoint=%q,le=\"+Inf\"} %d\n", latency.name, ep, cum)
		b = fmt.Appendf(b, "%s_sum{endpoint=%q} %s\n", latency.name, ep, strconv.FormatFloat(h.sum, 'g', -1, 64))
		b = fmt.Appendf(b, "%s_count{endpoint=%q} %d\n", latency.name, ep, h.total)
	}
	m.mu.Unlock()

	cst, ist, rst := cache.Stats(), indexes.Stats(), registry.Stats()
	heads := live.All()
	var liveEpochs uint64
	for _, h := range heads {
		liveEpochs += h.Value.Epoch()
	}
	for _, f := range []family{
		{"cuisinevol_cache_hits_total", "counter", "Result-cache hits.", cst.Hits},
		{"cuisinevol_cache_misses_total", "counter", "Result-cache misses.", cst.Misses},
		{"cuisinevol_cache_evictions_total", "counter", "Entries evicted to fit the byte budget.", cst.Evictions},
		{"cuisinevol_cache_bytes", "gauge", "Bytes of response bodies currently cached.", uint64(cst.Bytes)},
		{"cuisinevol_cache_entries", "gauge", "Entries currently cached.", uint64(cst.Entries)},

		{"cuisinevol_index_builds_total", "counter", "Corpus-index builds executed (singleflight-deduplicated).", ist.Builds},
		{"cuisinevol_index_hits_total", "counter", "Index-cache lookups served from a cached index.", ist.Hits},
		{"cuisinevol_index_misses_total", "counter", "Index-cache lookups that had to build or join an in-flight build.", ist.Misses},
		{"cuisinevol_index_evictions_total", "counter", "Indexes evicted to fit the byte budget.", ist.Evictions},
		{"cuisinevol_index_invalidations_total", "counter", "Index entries dropped by fingerprint invalidation (corpus deletes).", ist.Invalidations},
		{"cuisinevol_index_bytes", "gauge", "Bytes of prebuilt corpus indexes currently retained.", uint64(ist.Bytes)},
		{"cuisinevol_index_entries", "gauge", "Corpus indexes currently cached.", uint64(ist.Entries)},
		{"cuisinevol_index_container_array_total", "counter", "Items laid out as sorted-array posting containers, across all indexes cached.", ist.ContainerArrays},
		{"cuisinevol_index_container_bitset_total", "counter", "Items laid out as dense-bitset posting containers, across all indexes cached.", ist.ContainerBitsets},
		{"cuisinevol_index_container_run_total", "counter", "Items laid out as run-length posting containers, across all indexes cached.", ist.ContainerRuns},
		{"cuisinevol_index_bytes_saved_total", "counter", "Posting bytes the adaptive container layout saved over a uniform dense one, across all indexes cached.", ist.BytesSaved},

		{"cuisinevol_corpus_loads_total", "counter", "Corpus loads from the backing store (singleflight-deduplicated).", rst.Loads},
		{"cuisinevol_corpus_load_hits_total", "counter", "Corpus resolutions served from a memoized corpus.", rst.LoadHits},
		{"cuisinevol_corpus_load_misses_total", "counter", "Corpus resolutions that had to load (or join an in-flight load).", rst.LoadMisses},
		{"cuisinevol_corpus_evictions_total", "counter", "Memoized corpora evicted to fit the memo byte budget.", rst.Evictions},
		{"cuisinevol_corpus_puts_total", "counter", "Corpora registered (distinct content).", rst.Puts},
		{"cuisinevol_corpus_deletes_total", "counter", "Corpora deleted from the registry.", rst.Deletes},
		{"cuisinevol_corpus_loaded_bytes", "gauge", "Serialized bytes of corpora currently memoized in memory.", uint64(rst.LoadedBytes)},
		{"cuisinevol_corpus_loaded_entries", "gauge", "Corpora currently memoized in memory.", uint64(rst.LoadedEntries)},
		{"cuisinevol_corpus_store_bytes", "gauge", "Payload bytes in the backing corpus store.", uint64(rst.StoreBytes)},
		{"cuisinevol_corpus_store_entries", "gauge", "Corpora in the backing store.", uint64(rst.StoreEntries)},

		{"cuisinevol_live_appends_total", "counter", "Corpus appends served through an incremental live-index head.", m.liveAppends.Load()},
		{"cuisinevol_live_appended_tx_total", "counter", "Transactions appended incrementally (delta sizes, O(delta) each).", m.liveAppendedTx.Load()},
		{"cuisinevol_live_seeds_total", "counter", "Live heads seeded by a full corpus build (cold lineage, restart, or head eviction).", m.liveSeeds.Load()},
		{"cuisinevol_live_snapshots_total", "counter", "Epoch snapshots materialized into the index cache by appends.", m.liveSnapshots.Load()},
		{"cuisinevol_live_heads", "gauge", "Live-index write heads currently retained.", uint64(len(heads))},
		{"cuisinevol_live_epochs", "gauge", "Summed mutation epochs across retained live heads.", liveEpochs},

		{"cuisinevol_coalesced_requests_total", "counter", "Requests served by joining an identical in-flight computation.", m.coalesced.Load()},
		{"cuisinevol_computations_total", "counter", "Underlying pipeline computations executed.", m.computations.Load()},
		{"cuisinevol_compute_inflight", "gauge", "Computations currently holding a compute slot.", uint64(m.inflight.Load())},
		{"cuisinevol_compute_waiting", "gauge", "Computations queued for a compute slot.", uint64(m.waiting.Load())},

		{"cuisinevol_peer_proxied_total", "counter", "Requests relayed to the node owning their cache key.", m.peerProxied.Load()},
		{"cuisinevol_peer_fallback_total", "counter", "Owner-unreachable requests served by bounded local compute.", m.peerFallback.Load()},
		{"cuisinevol_peer_fallback_shed_total", "counter", "Owner-unreachable requests shed because the fallback budget was exhausted.", m.peerFallbackShed.Load()},
		{"cuisinevol_peer_ring_moves_total", "counter", "Keyspace arcs reassigned by peer membership updates.", m.peerRingMoves.Load()},
		{"cuisinevol_peer_snapshot_saves_total", "counter", "Result-cache snapshots written to disk.", m.peerSnapshotSaves.Load()},
		{"cuisinevol_peer_snapshot_loads_total", "counter", "Result-cache snapshots restored at startup.", m.peerSnapshotLoads.Load()},
		{"cuisinevol_peer_snapshot_load_errors_total", "counter", "Snapshot loads rejected by verification (file quarantined, node started cold).", m.peerSnapshotLoadErrors.Load()},
		{"cuisinevol_peer_snapshot_entries_total", "counter", "Cache entries restored from snapshots.", m.peerSnapshotEntries.Load()},

		{"cuisinevol_shed_total", "counter", "Computations rejected at admission because the wait queue was full.", m.shedComputations.Load()},
		{"cuisinevol_deadline_timeouts_total", "counter", "Requests that exceeded their deadline budget (504).", m.deadlineTimeouts.Load()},
	} {
		b = fmt.Appendf(f.header(b), "%s %d\n", f.name, f.value)
	}

	b = chaos.header(b)
	for f := FaultError; f <= FaultItem; f++ {
		b = fmt.Appendf(b, "%s{fault=%q} %d\n", chaos.name, f.String(), m.chaosInjected[f].Load())
	}
	_, err := w.Write(b)
	return err
}
