package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"cuisinevol/internal/cuisine"
	"cuisinevol/internal/ingest"
	"cuisinevol/internal/synth"
)

// discardWriter is a ResponseWriter that keeps headers and drops the
// body, so a benchmark times the handler and nothing downstream of it.
type discardWriter struct {
	header http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }

// BenchmarkServeHit times one served request on the hit path: the
// query read once, the cache key built and hashed, and the cached body
// written. The cache is warmed first, so nothing is computed.
func BenchmarkServeHit(b *testing.B) {
	srv, err := New(Options{Seed: 42, Replicates: 2, Corpus: testCorpus(b)})
	if err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	serve := func(b *testing.B, path string, revalidate bool) {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		w := &discardWriter{header: make(http.Header)}
		h.ServeHTTP(w, req) // warm the cache
		if w.status != http.StatusOK {
			b.Fatalf("%s: warming status %d", path, w.status)
		}
		want := http.StatusOK
		if revalidate {
			req.Header.Set("If-None-Match", w.header.Get("ETag"))
			want = http.StatusNotModified
		}
		computed := srv.Computations()
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			clear(w.header)
			h.ServeHTTP(w, req)
		}
		b.StopTimer()
		if w.status != want || srv.Computations() != computed {
			b.Fatalf("%s: status %d (want %d), computations %d -> %d", path, w.status, want, computed, srv.Computations())
		}
	}
	b.Run("mine", func(b *testing.B) { serve(b, "/v1/mine?region=ITA&top=10", false) })
	b.Run("overrep", func(b *testing.B) { serve(b, "/v1/overrep?region=ITA&k=10", false) })
	b.Run("fig4", func(b *testing.B) { serve(b, "/v1/fig4?regions=ITA,KOR&replicates=2", false) })
	b.Run("not-modified", func(b *testing.B) { serve(b, "/v1/mine?region=ITA&top=10", true) })
}

// appendCycleRounds is how many appends a lineage takes before the
// benchmark starts it again, so a run of any length times lineages of
// the same sizes.
const appendCycleRounds = 300

// regionJSONL generates region's recipes at scale as raw JSONL records,
// one slice per record.
func regionJSONL(b *testing.B, code string, seed uint64, scale float64) [][]byte {
	b.Helper()
	region, err := cuisine.ByCode(code)
	if err != nil {
		b.Fatal(err)
	}
	gen := synth.DefaultConfig(seed)
	gen.RecipeScale, gen.Regions = scale, []cuisine.Region{region}
	corpus, err := synth.Generate(gen)
	if err != nil {
		b.Fatal(err)
	}
	var lines [][]byte
	for _, raw := range ingest.Rawify(corpus, seed) {
		var buf bytes.Buffer
		if err := ingest.WriteRawJSONL(&buf, []ingest.RawRecipe{raw}); err != nil {
			b.Fatal(err)
		}
		lines = append(lines, buf.Bytes())
	}
	return lines
}

// BenchmarkAppendCycle times one cycle of a corpus lineage served
// through Handler: a one-record BN append, then /v1/overrep?k=25 and
// /v1/mine?support=0.002&top=25 on the lineage's JPN recipes (about 580
// of them, Table I's JPN at scale 0.2). Every query misses the result
// cache; builds/op counts the index builds a cycle runs. Every
// appendCycleRounds cycles the lineage starts again on a fresh server,
// with the timer stopped.
func BenchmarkAppendCycle(b *testing.B) {
	upload := bytes.Join(regionJSONL(b, "JPN", 3, 0.2), nil)
	bn, err := cuisine.ByCode("BN")
	if err != nil {
		b.Fatal(err)
	}
	appends := regionJSONL(b, "BN", 4, 1.2*float64(appendCycleRounds+1)/float64(bn.Recipes))
	if len(appends) <= appendCycleRounds {
		b.Fatalf("only %d BN records for %d appends", len(appends), appendCycleRounds+1)
	}
	serve := func(h http.Handler, method, target string, body []byte, status int) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
		if rec.Code != status || (method == http.MethodGet && rec.Header().Get("X-Cache") != "MISS") {
			b.Fatalf("%s %s: status %d, X-Cache %q; want %d, MISS: %s", method, target, rec.Code, rec.Header().Get("X-Cache"), status, rec.Body)
		}
	}
	var (
		srv    *Server
		h      http.Handler
		cycle  int
		builds uint64
	)
	restart := func() {
		if srv != nil {
			builds += srv.indexes.Stats().Builds
		}
		var err error
		if srv, err = New(Options{Seed: 42, Corpus: testCorpus(b)}); err != nil {
			b.Fatal(err)
		}
		h = srv.Handler()
		serve(h, http.MethodPost, "/v1/corpora?name=lineage&format=jsonl", upload, http.StatusCreated)
		// The first append seeds the lineage's live index head.
		serve(h, http.MethodPost, "/v1/corpora/lineage/append?format=jsonl", appends[0], http.StatusCreated)
		builds -= srv.indexes.Stats().Builds
		cycle = 0
	}
	restart()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if cycle == appendCycleRounds {
			b.StopTimer()
			restart()
			b.StartTimer()
		}
		cycle++
		serve(h, http.MethodPost, "/v1/corpora/lineage/append?format=jsonl", appends[cycle], http.StatusCreated)
		serve(h, http.MethodGet, "/v1/overrep?corpus=lineage&region=JPN&k=25", nil, http.StatusOK)
		serve(h, http.MethodGet, "/v1/mine?corpus=lineage&region=JPN&support=0.002&top=25", nil, http.StatusOK)
	}
	b.StopTimer()
	builds += srv.indexes.Stats().Builds
	b.ReportMetric(float64(builds)/float64(b.N), "builds/op")
}
