package server

import (
	"bufio"
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// metricLine matches one sample of the Prometheus text exposition
// format: name{labels} value.
var metricLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [-+0-9.eEInf]+$`)

func TestMetricsExpositionParses(t *testing.T) {
	_, ts := newTestServer(t)
	// Generate some traffic first: a computation, a cache hit, a 404.
	get(t, ts, "/v1/overrep?region=ITA&k=3")
	get(t, ts, "/v1/overrep?region=ITA&k=3")
	get(t, ts, "/v1/overrep?region=ZZZ")

	resp, body := get(t, ts, "/metrics")
	if resp.StatusCode != 200 {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}

	types := map[string]string{}
	samples := map[string]float64{}
	scanner := bufio.NewScanner(bytes.NewReader(body))
	for scanner.Scan() {
		line := scanner.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			types[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !metricLine.MatchString(line) {
			t.Fatalf("unparseable sample line: %q", line)
		}
		idx := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[idx+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		samples[line[:idx]] = v
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}

	for family, kind := range map[string]string{
		"cuisinevol_http_requests_total":             "counter",
		"cuisinevol_http_request_duration_seconds":   "histogram",
		"cuisinevol_cache_hits_total":                "counter",
		"cuisinevol_cache_misses_total":              "counter",
		"cuisinevol_cache_bytes":                     "gauge",
		"cuisinevol_coalesced_requests_total":        "counter",
		"cuisinevol_computations_total":              "counter",
		"cuisinevol_compute_inflight":                "gauge",
		"cuisinevol_index_builds_total":              "counter",
		"cuisinevol_index_hits_total":                "counter",
		"cuisinevol_index_misses_total":              "counter",
		"cuisinevol_index_evictions_total":           "counter",
		"cuisinevol_corpus_evictions_total":          "counter",
		"cuisinevol_index_bytes":                     "gauge",
		"cuisinevol_index_entries":                   "gauge",
		"cuisinevol_index_invalidations_total":       "counter",
		"cuisinevol_index_container_array_total":     "counter",
		"cuisinevol_index_container_bitset_total":    "counter",
		"cuisinevol_index_container_run_total":       "counter",
		"cuisinevol_index_bytes_saved_total":         "counter",
		"cuisinevol_live_appends_total":              "counter",
		"cuisinevol_live_appended_tx_total":          "counter",
		"cuisinevol_live_seeds_total":                "counter",
		"cuisinevol_live_snapshots_total":            "counter",
		"cuisinevol_live_heads":                      "gauge",
		"cuisinevol_live_epochs":                     "gauge",
		"cuisinevol_peer_proxied_total":              "counter",
		"cuisinevol_peer_fallback_total":             "counter",
		"cuisinevol_peer_fallback_shed_total":        "counter",
		"cuisinevol_peer_ring_moves_total":           "counter",
		"cuisinevol_peer_snapshot_saves_total":       "counter",
		"cuisinevol_peer_snapshot_loads_total":       "counter",
		"cuisinevol_peer_snapshot_load_errors_total": "counter",
		"cuisinevol_peer_snapshot_entries_total":     "counter",
	} {
		if got := types[family]; got != kind {
			t.Errorf("family %s: TYPE %q (want %q)", family, got, kind)
		}
	}

	if v := samples[`cuisinevol_http_requests_total{endpoint="/v1/overrep",code="200"}`]; v != 2 {
		t.Errorf("overrep 200 count = %v (want 2)", v)
	}
	if v := samples[`cuisinevol_http_requests_total{endpoint="/v1/overrep",code="404"}`]; v != 1 {
		t.Errorf("overrep 404 count = %v (want 1)", v)
	}
	if samples["cuisinevol_cache_hits_total"] < 1 {
		t.Error("no cache hit recorded")
	}
	if samples["cuisinevol_computations_total"] != 1 {
		t.Errorf("computations = %v (want 1)", samples["cuisinevol_computations_total"])
	}
	if total := samples["cuisinevol_index_container_array_total"] +
		samples["cuisinevol_index_container_bitset_total"] +
		samples["cuisinevol_index_container_run_total"]; total < 1 {
		t.Errorf("container totals = %v after index builds (want >= 1)", total)
	}

	// Histogram invariants for the overrep endpoint: buckets cumulative,
	// +Inf equals _count, and the exposition covered all three requests.
	var prev float64
	for _, le := range []string{"0.001", "0.005", "0.025", "0.1", "0.5", "2.5", "10", "60", "300", "+Inf"} {
		key := `cuisinevol_http_request_duration_seconds_bucket{endpoint="/v1/overrep",le="` + le + `"}`
		v, ok := samples[key]
		if !ok {
			t.Fatalf("missing bucket %s", key)
		}
		if v < prev {
			t.Fatalf("bucket le=%s not cumulative: %v < %v", le, v, prev)
		}
		prev = v
	}
	if count := samples[`cuisinevol_http_request_duration_seconds_count{endpoint="/v1/overrep"}`]; count != 3 || prev != count {
		t.Errorf("histogram count = %v, +Inf = %v (want 3, equal)", count, prev)
	}
}

// TestIndexSharedAcrossRequests proves the build-once contract at the
// serving layer: two mines over the same view at different supports are
// distinct result-cache entries but share one prebuilt corpus index, so
// the second request records an index hit and no new build.
func TestIndexSharedAcrossRequests(t *testing.T) {
	srv, ts := newTestServer(t)

	if resp, _ := get(t, ts, "/v1/mine?region=ITA&support=0.3"); resp.StatusCode != 200 {
		t.Fatalf("first mine: %d", resp.StatusCode)
	}
	after1 := srv.indexes.Stats()
	if after1.Builds != 1 {
		t.Fatalf("builds after first mine = %d (want 1)", after1.Builds)
	}

	if resp, _ := get(t, ts, "/v1/mine?region=ITA&support=0.4"); resp.StatusCode != 200 {
		t.Fatalf("second mine: %d", resp.StatusCode)
	}
	after2 := srv.indexes.Stats()
	if after2.Builds != after1.Builds {
		t.Errorf("second support rebuilt the index: builds %d -> %d", after1.Builds, after2.Builds)
	}
	if after2.Hits != after1.Hits+1 {
		t.Errorf("hits %d -> %d (want +1)", after1.Hits, after2.Hits)
	}

	// A different view (the overrep handler touches the aggregate index
	// plus the region's) builds new entries without evicting ITA's.
	if resp, _ := get(t, ts, "/v1/overrep?region=ITA&k=3"); resp.StatusCode != 200 {
		t.Fatalf("overrep: %d", resp.StatusCode)
	}
	after3 := srv.indexes.Stats()
	if after3.Builds <= after2.Builds {
		t.Errorf("overrep built no new index: builds %d -> %d", after2.Builds, after3.Builds)
	}
	if after3.Bytes <= 0 || after3.Entries < 2 {
		t.Errorf("cache stats after traffic: bytes=%d entries=%d", after3.Bytes, after3.Entries)
	}
}
