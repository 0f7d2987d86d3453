package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"cuisinevol/internal/peering"
)

// twoNodes builds a two-node in-process cluster over a MemTransport and
// returns both servers (n0, n1). mutate lets a test adjust the shared
// option template before the servers are built.
func twoNodes(t *testing.T, mutate func(id string, opts *Options)) (*Server, *Server, *peering.MemTransport) {
	t.Helper()
	tr := peering.NewMemTransport()
	peers := map[string]string{"n0": "http://n0", "n1": "http://n1"}
	build := func(id string) *Server {
		opts := Options{
			Seed:          42,
			Replicates:    2,
			Compute:       2,
			Corpus:        testCorpus(t),
			NodeID:        id,
			Peers:         peers,
			PeerTransport: tr,
		}
		if mutate != nil {
			mutate(id, &opts)
		}
		srv, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		tr.Register(id, srv.Handler())
		return srv
	}
	return build("n0"), build("n1"), tr
}

// mineProbe returns the /v1/mine path for one top value and the cache
// key the handler derives for it. The key is built by hand, then
// confirmed through the handler itself: a conditional request carrying
// the key's ETag must come back 304, which serveComputed answers before
// any cache, peer or compute step. A hand-built key that drifts from
// handleMine's canonicalisation therefore fails here, instead of
// steering a test onto a node that does not own the request. The probe
// carries an already-cancelled context, so a probe that misses the ETag
// gives up at once rather than computing (or parking on a chaos gate).
func mineProbe(t *testing.T, s *Server, top int) (path, key string) {
	t.Helper()
	path = fmt.Sprintf("/v1/mine?region=ITA&top=%d", top)
	canon := canonicalParams("categories", false, "region", "ITA", "support", s.opts.MinSupport, "top", top)
	key = resultKey(s.fingerprint, "/v1/mine", canon)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodGet, path, nil).WithContext(ctx)
	req.Header.Set("If-None-Match", `"`+key[:32]+`"`)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusNotModified {
		t.Fatalf("probe key for %s differs from the handler's: conditional request got %d, want 304", path, rec.Code)
	}
	return path, key
}

// pathOwnedBy finds a /v1/mine request whose cache key lands on the
// wanted node.
func pathOwnedBy(t *testing.T, s *Server, owner string) string {
	t.Helper()
	for top := 1; top < 200; top++ {
		if path, key := mineProbe(t, s, top); s.peers.owner(key) == owner {
			return path
		}
	}
	t.Fatalf("no probe path owned by %s", owner)
	return ""
}

func doReq(h http.Handler, path string, hdr map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestPeerProxyFillsLocalCache: a request on the non-owner is proxied
// to the owner (which computes it exactly once) and the body fills the
// non-owner's cache, so the repeat is a local hit with zero forwards.
func TestPeerProxyFillsLocalCache(t *testing.T) {
	n0, n1, _ := twoNodes(t, nil)
	path := pathOwnedBy(t, n0, "n1")

	rec := doReq(n0.Handler(), path, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("proxied request: %d %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Peer-Owner"); got != "n1" {
		t.Fatalf("X-Peer-Owner = %q, want n1", got)
	}
	if n0.Computations() != 0 || n1.Computations() != 1 {
		t.Fatalf("computations n0=%d n1=%d, want 0/1", n0.Computations(), n1.Computations())
	}
	if got := n0.metrics.peerProxied.Load(); got != 1 {
		t.Fatalf("proxied counter = %d, want 1", got)
	}

	// Repeat on the non-owner: local HIT, no new forward, no compute.
	rec2 := doReq(n0.Handler(), path, nil)
	if rec2.Code != http.StatusOK || rec2.Header().Get("X-Cache") != "HIT" {
		t.Fatalf("repeat: %d X-Cache=%q", rec2.Code, rec2.Header().Get("X-Cache"))
	}
	if rec2.Body.String() != rec.Body.String() {
		t.Fatal("peer-filled body differs from proxied body")
	}
	if got := n0.metrics.peerProxied.Load(); got != 1 {
		t.Fatalf("repeat forwarded again: proxied = %d", got)
	}

	// Owner serves the same path locally, from its own cache.
	rec3 := doReq(n1.Handler(), path, nil)
	if rec3.Code != http.StatusOK || rec3.Header().Get("X-Cache") != "HIT" {
		t.Fatalf("owner repeat: %d X-Cache=%q", rec3.Code, rec3.Header().Get("X-Cache"))
	}
	if n1.Computations() != 1 {
		t.Fatalf("owner recomputed: %d", n1.Computations())
	}

	// ETag flows through the proxy: a conditional repeat on the
	// non-owner is a 304 without bodies moving anywhere.
	etag := rec.Header().Get("ETag")
	if etag == "" {
		t.Fatal("proxied response missing ETag")
	}
	rec4 := doReq(n0.Handler(), path, map[string]string{"If-None-Match": etag})
	if rec4.Code != http.StatusNotModified {
		t.Fatalf("conditional repeat: %d", rec4.Code)
	}
}

// TestPeerHeaderServedLocally: a forwarded request is always answered
// by the receiving node, so forwarding is single-hop by construction.
func TestPeerHeaderServedLocally(t *testing.T) {
	n0, n1, _ := twoNodes(t, nil)
	path := pathOwnedBy(t, n0, "n0") // owned by n0, sent to n1 as if forwarded
	rec := doReq(n1.Handler(), path, map[string]string{peering.PeerHeader: "n0"})
	if rec.Code != http.StatusOK {
		t.Fatalf("forwarded request: %d %s", rec.Code, rec.Body.String())
	}
	if n1.Computations() != 1 || n0.Computations() != 0 {
		t.Fatalf("forwarded request not served locally: n0=%d n1=%d", n0.Computations(), n1.Computations())
	}
	if n1.metrics.peerProxied.Load() != 0 {
		t.Fatal("forwarded request was re-forwarded")
	}
}

// TestPeerFallbackWhenOwnerUnreachable: with the owner dead, the
// non-owner computes the key itself (counted as a fallback), caches it,
// and keeps the byte-identical answer when the owner returns.
func TestPeerFallbackWhenOwnerUnreachable(t *testing.T) {
	n0, n1, tr := twoNodes(t, nil)
	path := pathOwnedBy(t, n0, "n1")

	// Baseline body from the healthy owner path.
	healthy := doReq(n0.Handler(), path, nil)
	if healthy.Code != http.StatusOK {
		t.Fatalf("healthy: %d", healthy.Code)
	}

	tr.Kill("n1")
	n0b, err := New(Options{
		Seed: 42, Replicates: 2, Compute: 2, Corpus: testCorpus(t),
		NodeID: "n0", Peers: map[string]string{"n0": "http://n0", "n1": "http://n1"},
		PeerTransport: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := doReq(n0b.Handler(), path, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("fallback request: %d %s", rec.Code, rec.Body.String())
	}
	if rec.Body.String() != healthy.Body.String() {
		t.Fatal("fallback body differs from owner-computed body")
	}
	if n0b.Computations() != 1 {
		t.Fatalf("fallback computations = %d, want 1", n0b.Computations())
	}
	if got := n0b.metrics.peerFallback.Load(); got != 1 {
		t.Fatalf("fallback counter = %d, want 1", got)
	}
	_ = n1
}

// TestPeerFallbackBudgetSheds: the fallback path is bounded — with one
// fallback slot parked on a chaos gate, a second owner-unreachable
// distinct key sheds with 503 + Retry-After instead of piling on.
func TestPeerFallbackBudgetSheds(t *testing.T) {
	gate := make(chan struct{})
	var blocked atomic.Int64
	tr := peering.NewMemTransport()
	srv, err := New(Options{
		Seed: 42, Replicates: 2, Compute: 4, Timeout: -1, Corpus: testCorpus(t),
		NodeID: "n0", Peers: map[string]string{"n0": "http://n0", "n1": "http://n1"},
		PeerTransport: tr, PeerFallback: 1,
		Chaos: &ChaosConfig{
			Seed:        7,
			LatencyRate: 1,
			Block: func(ctx context.Context, key string) error {
				blocked.Add(1)
				select {
				case <-gate:
					return nil
				case <-ctx.Done():
					return ctx.Err()
				}
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.Register("n0", srv.Handler())
	tr.Kill("n1") // owner of every remotely-owned key is down

	// Two distinct paths owned by the dead peer.
	pathA := pathOwnedBy(t, srv, "n1")
	var pathB string
	for top := 1; top < 400; top++ {
		if p, key := mineProbe(t, srv, top); p != pathA && srv.peers.owner(key) == "n1" {
			pathB = p
			break
		}
	}
	if pathB == "" {
		t.Fatal("no second probe path owned by n1")
	}

	first := make(chan int, 1)
	go func() {
		rec := doReq(srv.Handler(), pathA, nil)
		first <- rec.Code
	}()
	spinUntil(t, "fallback compute parked at gate", func() bool { return blocked.Load() == 1 })

	rec := doReq(srv.Handler(), pathB, nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("second fallback: %d (want 503), body %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("fallback shed missing Retry-After")
	}
	if !strings.Contains(rec.Body.String(), "fallback budget") {
		t.Fatalf("shed body: %s", rec.Body.String())
	}
	if got := srv.metrics.peerFallbackShed.Load(); got != 1 {
		t.Fatalf("fallback shed counter = %d, want 1", got)
	}

	close(gate)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("gated fallback finished %d", code)
	}
}

// TestUpdatePeersCountsRingMoves: membership changes reassign only the
// departed member's keyspace, and the reassigned arcs land on the
// ring-moves counter.
func TestUpdatePeersCountsRingMoves(t *testing.T) {
	n0, _, _ := twoNodes(t, nil)
	if err := n0.UpdatePeers(map[string]string{"n0": "http://n0"}); err != nil {
		t.Fatal(err)
	}
	if got := n0.metrics.peerRingMoves.Load(); got == 0 {
		t.Fatal("shrinking the ring moved no arcs")
	}
	// Every key is now locally owned: no forwards happen.
	rec := doReq(n0.Handler(), "/v1/mine?region=ITA&top=17", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("post-update request: %d", rec.Code)
	}
	if n0.metrics.peerProxied.Load() != 0 {
		t.Fatal("single-member ring still forwarded")
	}
	// Dropping self is rejected.
	if err := n0.UpdatePeers(map[string]string{"n9": "http://n9"}); err == nil {
		t.Fatal("peer set without self accepted")
	}
}

// TestCacheSnapshotSaveRestore: a node restarted with the snapshot of
// its predecessor serves the same requests from cache — byte-identical,
// zero computations — and the snapshot metrics tell the story.
func TestCacheSnapshotSaveRestore(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "n0.snapshot")
	mk := func() *Server {
		srv, err := New(Options{
			Seed: 42, Replicates: 2, Compute: 2, Corpus: testCorpus(t),
			CacheSnapshotPath: snap,
		})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	first := mk()
	paths := []string{"/v1/mine?region=ITA&top=5", "/v1/overrep?region=KOR&k=4", "/v1/mine?region=FRA&top=3"}
	bodies := make(map[string]string)
	for _, p := range paths {
		rec := doReq(first.Handler(), p, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d", p, rec.Code)
		}
		bodies[p] = rec.Body.String()
	}
	n, err := first.SaveCacheSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if n != len(paths) {
		t.Fatalf("snapshot wrote %d entries, want %d", n, len(paths))
	}
	if got := first.metrics.peerSnapshotSaves.Load(); got != 1 {
		t.Fatalf("snapshot saves = %d", got)
	}

	restarted := mk()
	if got := restarted.metrics.peerSnapshotLoads.Load(); got != 1 {
		t.Fatalf("snapshot loads = %d, want 1", got)
	}
	if got := restarted.metrics.peerSnapshotEntries.Load(); got != uint64(len(paths)) {
		t.Fatalf("snapshot entries restored = %d, want %d", got, len(paths))
	}
	for _, p := range paths {
		rec := doReq(restarted.Handler(), p, nil)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "HIT" {
			t.Fatalf("restarted %s: %d X-Cache=%q", p, rec.Code, rec.Header().Get("X-Cache"))
		}
		if rec.Body.String() != bodies[p] {
			t.Fatalf("restored body for %s drifted", p)
		}
	}
	if restarted.Computations() != 0 {
		t.Fatalf("warm restart recomputed %d keys", restarted.Computations())
	}
}

// TestCacheSnapshotCorruptStartsCold: a corrupt snapshot is quarantined
// and the node starts cold and healthy, with the error counted.
func TestCacheSnapshotCorruptStartsCold(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "n0.snapshot")
	if err := os.WriteFile(snap, []byte("{\"version\":1,\"entries\":2,\"sha256\":\"00\"}\nnot a record\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Options{
		Seed: 42, Replicates: 2, Compute: 2, Corpus: testCorpus(t),
		CacheSnapshotPath: snap,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.metrics.peerSnapshotLoadErrors.Load(); got != 1 {
		t.Fatalf("load errors = %d, want 1", got)
	}
	if _, err := os.Stat(snap + ".corrupt"); err != nil {
		t.Fatalf("corrupt snapshot not quarantined: %v", err)
	}
	rec := doReq(srv.Handler(), "/v1/mine?region=ITA&top=2", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("cold start unhealthy: %d", rec.Code)
	}
	// A fresh save replaces the quarantined file's slot cleanly.
	if _, err := srv.SaveCacheSnapshot(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := peering.ReadSnapshot(snap); err != nil {
		t.Fatalf("fresh snapshot unreadable: %v", err)
	}
}

// TestPeerOptionsValidation pins the topology error paths.
func TestPeerOptionsValidation(t *testing.T) {
	base := Options{Seed: 42, Replicates: 2, Corpus: testCorpus(t)}

	opts := base
	opts.NodeID = "n0"
	if _, err := New(opts); err == nil {
		t.Fatal("NodeID without Peers accepted")
	}

	opts = base
	opts.Peers = map[string]string{"n0": "http://n0"}
	if _, err := New(opts); err == nil {
		t.Fatal("Peers without NodeID accepted")
	}

	opts = base
	opts.NodeID = "nX"
	opts.Peers = map[string]string{"n0": "http://n0"}
	if _, err := New(opts); err == nil {
		t.Fatal("NodeID outside peer set accepted")
	}
}
