package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"cuisinevol/internal/corpusstore"
	"cuisinevol/internal/cuisine"
	"cuisinevol/internal/ingest"
	"cuisinevol/internal/server"
	"cuisinevol/internal/synth"
)

// kind separates the latency samples a workload reports on.
type kind int

const (
	kindQuery  kind = iota // analytics GETs: latency_p*_us
	kindAppend             // corpus appends: append_p*_us
	numKinds
)

// client is one closed-loop caller: it sends its next request only
// after the previous one returned. Each client runs on its own
// goroutine and touches only its own fields.
type client struct {
	id    int
	h     http.Handler
	start time.Time
	body  bytes.Buffer // response body buffer, reused across requests

	lat                   [numKinds][]int64 // ns, successful requests only
	attempted, failed, ok int
	queries, hits, misses int
	units                 int  // workload work units (paper_fig4: model replicates)
	last                  mark // at the end of the last complete unit
	problems              []string
	tr                    *clientTrace // nil when untraced
}

// mark is a client's state at the end of a complete unit of work (one
// request, one append-overrep-mine block, one paper_fig4 block). Rates
// and percentiles use only what lies before a client's last mark, so
// every phase weighs the plan's request mix the same.
type mark struct {
	ok, units int
	lat       [numKinds]int
	at        time.Duration
}

// completed is how many successful requests lie before the last mark.
func (c *client) completed() int {
	n := 0
	for _, k := range c.last.lat {
		n += k
	}
	return n
}

func (c *client) checkpoint() {
	c.last = mark{ok: c.ok, units: c.units, at: time.Since(c.start)}
	for k := range c.lat {
		c.last.lat[k] = len(c.lat[k])
	}
}

// serve makes one timed handler call and returns the recorder, the
// call's start and its duration.
func (c *client) serve(req *http.Request) (*httptest.ResponseRecorder, time.Time, time.Duration) {
	c.body.Reset()
	rec := &httptest.ResponseRecorder{HeaderMap: make(http.Header), Body: &c.body, Code: http.StatusOK}
	start := time.Now()
	c.h.ServeHTTP(rec, req)
	return rec, start, time.Since(start)
}

// done records one attempted request; a non-empty problem marks it
// failed.
func (c *client) done(k kind, rec *httptest.ResponseRecorder, d time.Duration, problem string) {
	if k == kindQuery {
		c.queries++
		switch rec.Header().Get("X-Cache") {
		case "HIT":
			c.hits++
		case "MISS":
			c.misses++
		}
	}
	c.attempted++
	if problem != "" {
		c.failed++
		c.note(problem)
		return
	}
	c.ok++
	c.lat[k] = append(c.lat[k], int64(d))
}

func (c *client) note(problem string) {
	if len(c.problems) < maxProblems {
		c.problems = append(c.problems, problem)
	}
}

// layerErr counts a failed layer call of the traced phase as a failure
// and reports whether err was one.
func (c *client) layerErr(err error) bool {
	if err == nil {
		return false
	}
	c.attempted++
	c.failed++
	c.note("layer call: " + err.Error())
	return true
}

// expect returns "" when rec has the wanted status and, if cache is not
// empty, the wanted X-Cache state; otherwise it describes the mismatch.
func expect(rec *httptest.ResponseRecorder, target string, status int, cache string) string {
	if rec.Code != status {
		return fmt.Sprintf("%s: status %d, want %d: %.200s", target, rec.Code, status, rec.Body.String())
	}
	if got := rec.Header().Get("X-Cache"); cache != "" && got != cache {
		return fmt.Sprintf("%s: X-Cache %q, want %q", target, got, cache)
	}
	return ""
}

// cacheTag labels a handler span by how the request was answered.
func cacheTag(rec *httptest.ResponseRecorder) string {
	if rec.Code == http.StatusNotModified {
		return "304"
	}
	return strings.ToLower(rec.Header().Get("X-Cache"))
}

// phase summarizes one timed phase.
type phase struct {
	attempted, failed, ok int
	queries, hits, misses int
	problems              []string
	rps, unitsPerSec      float64
	lat                   [numKinds + 1]quantiles // by kind, then every request
	before, after         counters
	heapLive              float64 // bytes, after a GC at the end of the phase
}

// minSamples is the fewest latency samples a client completes in a
// phase: enough for ten to lie beyond its p90.
const minSamples = 10 * minBeyond

// measure runs w's clients for d, or longer until each has completed
// minSamples requests (a paper_fig4 phase on a slow host), and
// summarizes what they did.
func measure(w workload, d time.Duration, tr *tracer) (*phase, error) {
	h := w.server().Handler()
	before, err := readCounters(w.server())
	if err != nil {
		return nil, err
	}
	cs := make([]*client, w.clients())
	for i := range cs {
		cs[i] = &client{id: i, h: h}
		if tr != nil {
			cs[i].tr = tr.client(i)
		}
	}
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range cs {
		c.start = start
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for (time.Since(c.start) < d || c.completed() < minSamples) && w.next(c) {
			}
		}(c)
	}
	wg.Wait()
	p := summarize(cs)
	p.before = before
	if p.after, err = readCounters(w.server()); err != nil {
		return nil, err
	}
	cs = nil // the latency samples are summarized; do not count them as live heap
	if err := w.settle(); err != nil {
		return nil, err
	}
	p.heapLive = heapLiveBytes()
	return p, nil
}

// summarize adds up the clients' work up to their last complete unit.
func summarize(cs []*client) *phase {
	p := &phase{}
	var pooled [numKinds + 1][]int64
	for _, c := range cs {
		p.attempted += c.attempted
		p.failed += c.failed
		p.queries += c.queries
		p.hits += c.hits
		p.misses += c.misses
		p.problems = append(p.problems, c.problems...)
		last := c.last
		if last.at > 0 {
			p.ok += last.ok
			p.rps += float64(last.ok) / last.at.Seconds()
			p.unitsPerSec += float64(last.units) / last.at.Seconds()
		}
		for k := range c.lat {
			pooled[k] = append(pooled[k], c.lat[k][:last.lat[k]]...)
			pooled[numKinds] = append(pooled[numKinds], c.lat[k][:last.lat[k]]...)
		}
	}
	for k := range pooled {
		p.lat[k] = quantilesOf(pooled[k])
	}
	return p
}

// endToEnd returns the phase's user-visible metrics. latency_* cover
// every request; a workload that also appends reports its queries
// (query_*) and appends (append_*) apart as well.
func (p *phase) endToEnd() metricSet {
	ms := metricSet{}
	ms.set("throughput_rps", p.rps, "1/s", p.ok)
	p.lat[numKinds].report(ms, "latency")
	if p.lat[kindAppend].n > 0 {
		p.lat[kindQuery].report(ms, "query")
		p.lat[kindAppend].report(ms, "append")
	}
	if p.unitsPerSec > 0 {
		ms.set("replicates_per_s", p.unitsPerSec, "1/s", p.ok)
	}
	ms.set("heap_live_mb", p.heapLive/mib, "MiB", 0)
	return ms
}

// medianOver is, for each metric every phase measured, its median over
// the phases; sample counts add up.
func medianOver(phases []metricSet) metricSet {
	out := metricSet{}
	for name, first := range phases[0] {
		var vals []float64
		samples := 0
		for _, ms := range phases {
			if m, ok := ms[name]; ok {
				vals = append(vals, m.Value)
				samples += m.Samples
			}
		}
		if len(vals) == len(phases) {
			out.set(name, median(vals), first.Unit, samples)
		}
	}
	return out
}

// layerCounters reports the per-layer metrics that come from counters
// rather than spans. They are taken from the untraced phase, where the
// benchmark's own layer calls do not add allocations or GC cycles.
func (p *phase) layerCounters(rep *report) {
	b, a := p.before, p.after
	delta := func(family string) float64 { return a.family[family] - b.family[family] }
	rep.set("server.hit_ratio", ratio(float64(p.hits), float64(p.hits+p.misses)), "ratio", p.hits+p.misses)
	rep.set("server.computations_per_req", ratio(a.computations-b.computations, float64(p.queries)), "count", p.queries)
	rep.set("server.alloc_bytes_per_req", ratio(a.allocBytes-b.allocBytes, float64(p.attempted)), "B", p.attempted)
	rep.set("itemset.index_builds_per_req", ratio(delta("cuisinevol_index_builds_total"), float64(p.queries)), "count", p.queries)
	rep.set("runtime.gc_cycles_per_kreq", 1000*ratio(a.gcCycles-b.gcCycles, float64(p.attempted)), "count", p.attempted)
	rep.set("itemset.index_mb", a.family["cuisinevol_index_bytes"]/mib, "MiB", 0)
	rep.set("corpusstore.loaded_mb", a.family["cuisinevol_corpus_loaded_bytes"]/mib, "MiB", 0)
}

// minBeyond is how many samples must lie above a percentile for it to
// be reported.
const minBeyond = 10

// quantiles holds the p50, p90 and p99 of a latency sample in µs, each
// present only when at least minBeyond samples lie beyond it.
type quantiles struct {
	n   int
	pct map[int]float64
}

func quantilesOf(ns []int64) quantiles {
	slices.Sort(ns)
	q := quantiles{n: len(ns), pct: map[int]float64{}}
	for _, p := range []int{50, 90, 99} {
		i := int(math.Ceil(float64(p)/100*float64(len(ns)))) - 1
		if i >= 0 && len(ns)-1-i >= minBeyond {
			q.pct[p] = float64(ns[i]) / 1e3
		}
	}
	return q
}

func (q quantiles) report(ms metricSet, prefix string) {
	for p, v := range q.pct {
		ms.set(fmt.Sprintf("%s_p%d_us", prefix, p), v, "us", q.n)
	}
}

// counters is a snapshot of the process and server counters the
// per-layer metrics are deltas of.
type counters struct {
	computations, allocBytes, gcCycles float64
	family                             map[string]float64 // unlabelled /metrics samples
}

func readCounters(srv *server.Server) (counters, error) {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		return counters{}, fmt.Errorf("GET /metrics: status %d", rec.Code)
	}
	c := counters{computations: float64(srv.Computations()), family: map[string]float64{}}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			c.family[name] = v
		}
	}
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	c.allocBytes, c.gcCycles = float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64())
	return c, nil
}

func heapLiveBytes() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

const mib = 1 << 20

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// regionCodes are the paper's 25 cuisines in Table I order.
var regionCodes = cuisine.Codes()

// rngFor returns the random stream for one (seed, purpose, client)
// triple; every plan draws from such a stream, so inputs are a pure
// function of the seed.
func rngFor(seed uint64, purpose string, client int) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(purpose))
	return rand.New(rand.NewPCG(seed, h.Sum64()^uint64(client)))
}

// do sends one request to h outside any timed phase.
func do(h http.Handler, method, target string, body []byte) *httptest.ResponseRecorder {
	var r io.Reader
	if body != nil {
		r = bytes.NewReader(body)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, r))
	return rec
}

// corpusSeed seeds every corpus the benchmark serves: the default
// synthetic corpus (the one EXPERIMENTS.md reports), the corpus=
// upload of hot_reads and the append_reads lineages. The run's --seed
// draws the requests only, so runs with different seeds send different
// requests to the same data and their costs stay comparable.
const corpusSeed = 42

// newServer builds the benchmarked server: default Options apart from
// the corpus knobs, so every workload measures the shipped
// configuration.
func newServer(cfg config, reg *corpusstore.Registry) (*server.Server, error) {
	return server.New(server.Options{Seed: corpusSeed, RecipeScale: cfg.scale, Registry: reg})
}

// warmSupport is a /v1/mine support no workload plan uses, so warming
// an index view never caches a key a plan later requests.
const warmSupport = "0.95"

// warmViews builds every region × {ingredients, categories} index of
// the default corpus, and through /v1/table1 the whole-corpus one.
func warmViews(h http.Handler) error {
	for _, region := range regionCodes {
		for _, cats := range []bool{false, true} {
			target := fmt.Sprintf("/v1/mine?region=%s&categories=%t&support=%s", region, cats, warmSupport)
			if p := expect(do(h, http.MethodGet, target, nil), target, http.StatusOK, "MISS"); p != "" {
				return errors.New(p)
			}
		}
	}
	if p := expect(do(h, http.MethodGet, "/v1/table1", nil), "/v1/table1", http.StatusOK, "MISS"); p != "" {
		return errors.New(p)
	}
	return nil
}

// sample is a computed response kept for re-checking against a fresh
// server after the timed phases.
type sample struct {
	target  string
	body    []byte
	lineage string // append_reads: the corpus name and version the
	version int    // response was computed against
}

// recheck asks h each sample's target and describes every answer that
// differs from what the benchmarked server returned.
func recheck(h http.Handler, samples []sample) []string {
	var problems []string
	for _, s := range samples {
		rec := do(h, http.MethodGet, s.target, nil)
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), s.body) {
			problems = append(problems, fmt.Sprintf("%s: a fresh server answered %d with a different body", s.target, rec.Code))
		}
	}
	return problems
}

// rawRecords generates a synthetic corpus over the given regions (all
// 25 when empty) and renders it as the noisy raw records an upload
// carries.
func rawRecords(seed uint64, scale float64, regions []string) ([]ingest.RawRecipe, error) {
	gen := synth.DefaultConfig(seed)
	gen.RecipeScale = scale
	if len(regions) > 0 {
		gen.Regions = nil
		for _, code := range regions {
			r, err := cuisine.ByCode(code)
			if err != nil {
				return nil, err
			}
			gen.Regions = append(gen.Regions, r)
		}
	}
	corpus, err := synth.Generate(gen)
	if err != nil {
		return nil, err
	}
	return ingest.Rawify(corpus, seed), nil
}

func encodeJSONL(raws []ingest.RawRecipe) ([]byte, error) {
	var buf bytes.Buffer
	err := ingest.WriteRawJSONL(&buf, raws)
	return buf.Bytes(), err
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
