package server

import (
	"bytes"
	"net/http"
	"testing"
)

// TestMineKernelParam: /v1/mine has no kernel parameter — every mine
// runs the one Eclat kernel — so kernel= is an unknown parameter,
// ignored like any other. A request naming a kernel, known or not, is served from
// the default request's cache entry without a computation.
func TestMineKernelParam(t *testing.T) {
	srv, ts := newTestServer(t)
	resp, body := get(t, ts, "/v1/mine?region=ITA")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("default request: status %d", resp.StatusCode)
	}
	before := srv.Computations()
	for _, path := range []string{
		"/v1/mine?region=ITA&kernel=fpgrowth",
		"/v1/mine?region=ITA&kernel=bad",
	} {
		got, gotBody := get(t, ts, path)
		if got.StatusCode != http.StatusOK || got.Header.Get("X-Cache") != "HIT" {
			t.Fatalf("GET %s: status %d, X-Cache %q; want a 200 cache hit", path, got.StatusCode, got.Header.Get("X-Cache"))
		}
		if got.Header.Get("ETag") != resp.Header.Get("ETag") || !bytes.Equal(gotBody, body) {
			t.Fatalf("GET %s: not the default request's entry", path)
		}
	}
	if srv.Computations() != before {
		t.Fatalf("kernel= requests computed: %d -> %d", before, srv.Computations())
	}
}
