package server

import (
	"net/http"
	"net/http/httptest"
	"testing"
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
