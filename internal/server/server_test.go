package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"cuisinevol/internal/recipe"
	"cuisinevol/internal/synth"
)

var (
	corpusOnce   sync.Once
	sharedCorpus *recipe.Corpus
	corpusErr    error
)

// testCorpus generates one scaled-down corpus shared by every test;
// servers are cheap to build on top of it, so each test gets a fresh
// Server (fresh cache, fresh counters) without re-paying generation.
func testCorpus(t testing.TB) *recipe.Corpus {
	t.Helper()
	corpusOnce.Do(func() {
		gen := synth.DefaultConfig(42)
		gen.RecipeScale = 0.05
		sharedCorpus, corpusErr = synth.Generate(gen)
	})
	if corpusErr != nil {
		t.Fatal(corpusErr)
	}
	return sharedCorpus
}

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(Options{
		Seed:       42,
		Replicates: 2,
		Compute:    4,
		Corpus:     testCorpus(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestEndpointsRespond(t *testing.T) {
	_, ts := newTestServer(t)
	paths := []string{
		"/healthz",
		"/v1/cuisines",
		"/v1/table1",
		"/v1/fig1",
		"/v1/fig2",
		"/v1/fig3",
		"/v1/fig4?regions=ITA,KOR&replicates=2",
		"/v1/mine?region=ITA",
		"/v1/overrep?region=ITA&k=5",
		"/v1/evolve?region=ITA&model=NM&replicates=2",
	}
	for _, path := range paths {
		resp, body := get(t, ts, path)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, body %s", path, resp.StatusCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json; charset=utf-8" {
			t.Fatalf("GET %s: content type %q", path, ct)
		}
		var v any
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatalf("GET %s: invalid JSON: %v", path, err)
		}
	}
}

func TestBadParamsAre400(t *testing.T) {
	srv, ts := newTestServer(t)
	paths := []string{
		"/v1/fig3?support=abc",
		"/v1/fig3?support=2",
		"/v1/fig3?support=0",
		"/v1/fig4?replicates=0",
		"/v1/fig4?replicates=xyz",
		"/v1/fig4?categories=maybe",
		"/v1/fig4?regions=,",
		"/v1/mine",                         // missing region
		"/v1/mine?region=ITA&top=0",        // below range
		"/v1/mine?region=ITA&support=1.5",  // above range
		"/v1/overrep?region=ITA&k=100000",  // above range
		"/v1/evolve?region=ITA&model=FOO",  // unknown model
		"/v1/evolve?region=ITA&support=-1", // negative support
		// Non-finite supports. NaN fails every comparison, so the range
		// check must accept values inside it, not reject those outside.
		"/v1/mine?region=ITA&support=NaN",
		"/v1/mine?region=ITA&support=%2BInf",
		"/v1/mine?region=ITA&support=-Inf",
		"/v1/fig3?support=nan",
		"/v1/fig3?support=inf",
		"/v1/evolve?region=ITA&support=NaN",
		"/v1/evolve?region=ITA&support=-inf",
	}
	for _, path := range paths {
		resp, body := get(t, ts, path)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET %s: status %d (want 400), body %s", path, resp.StatusCode, body)
		}
		var e map[string]string
		if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
			t.Fatalf("GET %s: error body %s", path, body)
		}
	}
	if n := srv.Computations(); n != 0 {
		t.Fatalf("%d computations behind invalid parameters", n)
	}
}

func TestUnknownCuisineIs404(t *testing.T) {
	_, ts := newTestServer(t)
	for _, path := range []string{
		"/v1/mine?region=ZZZ",
		"/v1/overrep?region=ZZZ",
		"/v1/evolve?region=ZZZ",
		"/v1/fig4?regions=ITA,ZZZ",
	} {
		resp, body := get(t, ts, path)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: status %d (want 404), body %s", path, resp.StatusCode, body)
		}
	}
}

func TestUnknownPathAndMethod(t *testing.T) {
	_, ts := newTestServer(t)
	resp, _ := get(t, ts, "/v1/nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path: status %d", resp.StatusCode)
	}
	post, err := ts.Client().Post(ts.URL+"/v1/table1", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST: status %d (want 405)", post.StatusCode)
	}
}

func TestSecondRequestServedFromCache(t *testing.T) {
	srv, ts := newTestServer(t)
	const path = "/v1/overrep?region=ITA&k=7"
	resp1, body1 := get(t, ts, path)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first request: %d", resp1.StatusCode)
	}
	if got := resp1.Header.Get("X-Cache"); got != "MISS" {
		t.Fatalf("first request X-Cache = %q", got)
	}
	before := srv.Computations()
	resp2, body2 := get(t, ts, path)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second request: %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Cache"); got != "HIT" {
		t.Fatalf("second request X-Cache = %q", got)
	}
	if srv.Computations() != before {
		t.Fatalf("compute counter advanced on a cached request: %d -> %d", before, srv.Computations())
	}
	if string(body1) != string(body2) {
		t.Fatal("cached body differs from computed body")
	}
}

func TestParameterSpellingsShareCacheEntry(t *testing.T) {
	srv, ts := newTestServer(t)
	// 0.05, 0.050 and 5e-2 canonicalize identically; only the first
	// spelling may compute.
	get(t, ts, "/v1/mine?region=ITA&support=0.05&top=10")
	before := srv.Computations()
	for _, path := range []string{
		"/v1/mine?region=ITA&support=0.050&top=10",
		"/v1/mine?region=ita&top=10&support=5e-2",
	} {
		resp, _ := get(t, ts, path)
		if got := resp.Header.Get("X-Cache"); got != "HIT" {
			t.Fatalf("GET %s: X-Cache = %q (want HIT)", path, got)
		}
	}
	if srv.Computations() != before {
		t.Fatal("equivalent parameter spellings recomputed")
	}
}

// TestFig4DuplicateRegionsShareCacheEntry: a region named twice, in
// any case, is the same request as naming it once — one Fig 4 row, the
// same body and ETag, and no second computation.
func TestFig4DuplicateRegionsShareCacheEntry(t *testing.T) {
	srv, ts := newTestServer(t)
	want, wantBody := get(t, ts, "/v1/fig4?regions=ITA&replicates=2")
	if want.StatusCode != http.StatusOK {
		t.Fatalf("regions=ITA: status %d", want.StatusCode)
	}
	before := srv.Computations()
	for _, path := range []string{
		"/v1/fig4?regions=ITA,ita&replicates=2",
		"/v1/fig4?regions=ita,ITA,Ita&replicates=2",
	} {
		resp, body := get(t, ts, path)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if !bytes.Equal(body, wantBody) {
			t.Fatalf("GET %s: body differs from regions=ITA\n got: %.300s\nwant: %.300s", path, body, wantBody)
		}
		if got, etag := resp.Header.Get("ETag"), want.Header.Get("ETag"); got != etag {
			t.Fatalf("GET %s: ETag %q, regions=ITA has %q", path, got, etag)
		}
	}
	if srv.Computations() != before {
		t.Fatalf("duplicate regions recomputed: %d -> %d", before, srv.Computations())
	}
}

func TestETagConditionalRequest(t *testing.T) {
	_, ts := newTestServer(t)
	resp, _ := get(t, ts, "/v1/cuisines")
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on response")
	}
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/cuisines", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("If-None-Match", etag)
	resp2, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional request: status %d (want 304)", resp2.StatusCode)
	}
}

// TestEightWayCoalescing fires 8 concurrent identical Fig-4 requests at
// a fresh server and asserts exactly one underlying computation ran:
// overlapping requests coalesce onto one execution and stragglers hit
// the cache, so the ensemble is computed once no matter how the eight
// interleave.
func TestEightWayCoalescing(t *testing.T) {
	srv, ts := newTestServer(t)
	const path = "/v1/fig4?regions=ITA&replicates=2"
	const n = 8
	var (
		start  sync.WaitGroup
		finish sync.WaitGroup
		mu     sync.Mutex
		bodies []string
		errs   []error
	)
	start.Add(1)
	for i := 0; i < n; i++ {
		finish.Add(1)
		go func() {
			defer finish.Done()
			start.Wait()
			resp, err := ts.Client().Get(ts.URL + path)
			if err != nil {
				mu.Lock()
				errs = append(errs, err)
				mu.Unlock()
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d: %s", resp.StatusCode, body)
			}
			bodies = append(bodies, string(body))
		}()
	}
	start.Done()
	finish.Wait()
	if len(errs) > 0 {
		t.Fatalf("request errors: %v", errs)
	}
	if got := srv.Computations(); got != 1 {
		t.Fatalf("8 concurrent identical requests cost %d computations (want exactly 1)", got)
	}
	for i := 1; i < len(bodies); i++ {
		if bodies[i] != bodies[0] {
			t.Fatal("coalesced responses differ")
		}
	}
}

func TestHealthz(t *testing.T) {
	srv, ts := newTestServer(t)
	resp, body := get(t, ts, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	var h struct {
		Status  string `json:"status"`
		Corpus  string `json:"corpus"`
		Recipes int    `json:"recipes"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Corpus != srv.Fingerprint() || h.Recipes != srv.corpus.Len() {
		t.Fatalf("healthz body: %s", body)
	}
}
