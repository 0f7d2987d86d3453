package main

import (
	"bufio"
	"encoding/json"
	"math/rand/v2"
	"os"
	"slices"
	"time"

	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/itemset"
	"cuisinevol/internal/recipe"
	"cuisinevol/internal/synth"
)

// span is one timed call. Spans of one request share Req; Parent is the
// index of the causing span within the request, -1 for the request's
// handler call. A layer span times the benchmark's own call into that
// layer's public function on the same input, made right after the
// handler call returned, so it follows the handler span in time rather
// than nesting inside it. Every child counts against its parent's self
// time. Children run one at a time; when the parent
// call spread them over Workers goroutines, its self time subtracts
// their sum divided by Workers.
type span struct {
	Req     int64  `json:"req"`
	ID      int    `json:"span"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Tag     string `json:"tag,omitempty"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	N       int    `json:"n,omitempty"`
	Workers int    `json:"workers,omitempty"`
}

// reservoirSize bounds the requests each client keeps spans for: a
// uniform sample over the phase, so a long hot_reads phase (millions of
// requests) stays in bounded memory.
const reservoirSize = 4096

// tracer owns the traced phase's spans. Nothing creates one in an
// untraced run.
type tracer struct {
	epoch    time.Time
	setup    *clientTrace // the layer calls traceSetup makes (index builds)
	clients  []*clientTrace
	generate time.Duration // synth.Generate of the default corpus
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.setup = t.newClientTrace(-1)
	return t
}

// client returns client id's span recorder; measure calls it before the
// clients start.
func (t *tracer) client(id int) *clientTrace {
	for len(t.clients) <= id {
		t.clients = append(t.clients, t.newClientTrace(len(t.clients)))
	}
	return t.clients[id]
}

func (t *tracer) newClientTrace(id int) *clientTrace {
	return &clientTrace{
		epoch: t.epoch,
		req:   int64(id+1) << 40,
		rng:   rand.New(rand.NewPCG(uint64(id+1), 0x7370616e)),
	}
}

// clientTrace records one client's spans; only its client's goroutine
// touches it.
type clientTrace struct {
	epoch time.Time
	req   int64 // id of the current request
	cur   []span
	kept  [][]span
	seen  int
	rng   *rand.Rand
}

// add records a finished span of the current request and returns its
// index.
func (t *clientTrace) add(name string, parent int, start time.Time, d time.Duration, n int, tag string) int {
	s := int64(start.Sub(t.epoch))
	t.cur = append(t.cur, span{Req: t.req, ID: len(t.cur), Parent: parent, Name: name, Tag: tag, Start: s, End: s + int64(d), N: n})
	return len(t.cur) - 1
}

// call times fn as a span of the current request under parent; fn
// returns the span's count (itemsets mined, records appended) or 0.
func (t *clientTrace) call(name string, parent int, fn func() int) int {
	start := time.Now()
	n := fn()
	return t.add(name, parent, start, time.Since(start), n, "")
}

// end closes the current request, keeping its spans by reservoir
// sampling.
func (t *clientTrace) end() {
	t.seen++
	if len(t.kept) < reservoirSize {
		t.kept = append(t.kept, t.cur)
	} else if j := t.rng.IntN(t.seen); j < reservoirSize {
		t.kept[j] = t.cur
	}
	t.cur = nil
	t.req++
}

// generateCorpus times synth.Generate of the server's default corpus
// (the call server.New makes); the traced layer calls of mine_misses
// and paper_fig4 run on this copy.
func (t *tracer) generateCorpus(cfg config) (*recipe.Corpus, error) {
	gen := synth.DefaultConfig(corpusSeed)
	gen.RecipeScale = cfg.scale
	start := time.Now()
	corpus, err := synth.Generate(gen)
	t.generate = time.Since(start)
	return corpus, err
}

// viewKey names one index view: a region ("" for the whole corpus) and
// whether it holds category transactions.
type viewKey struct {
	region string
	cats   bool
}

// buildViews builds the whole-corpus index and every region ×
// {ingredients, categories} index of corpus, timing each BuildIndex as
// a set-up span.
func (t *tracer) buildViews(corpus *recipe.Corpus) (map[viewKey]*itemset.Index, error) {
	views := map[viewKey]*itemset.Index{}
	build := func(k viewKey, txs [][]ingredient.ID) error {
		var err error
		t.setup.call("itemset.index_build", -1, func() int {
			views[k], err = itemset.BuildIndex(txs)
			return 0
		})
		t.setup.end()
		return err
	}
	if err := build(viewKey{}, corpus.AllView().Transactions()); err != nil {
		return nil, err
	}
	for _, region := range regionCodes {
		view := corpus.Region(region)
		if err := build(viewKey{region, false}, view.Transactions()); err != nil {
			return nil, err
		}
		if err := build(viewKey{region, true}, view.CategoryTransactions()); err != nil {
			return nil, err
		}
	}
	return views, nil
}

// traceQuery records an analytics GET's handler span, tagged with how it
// was answered, and returns its index. The server's own steps inside
// the handler (cache-key derivation, cache lookup, JSON rendering) are
// unexported; the traced run's CPU profile prices them.
func traceQuery(t *clientTrace, start time.Time, d time.Duration, tag string) int {
	return t.add("server.handler", -1, start, d, 0, tag)
}

// spanMetrics maps per-layer metrics to the span durations they are the
// median of. A "/tag" suffix selects handler spans by how the request
// was answered; a "self:" prefix takes the span's self time.
var spanMetrics = []struct{ metric, spans string }{
	{"server.hit_us", "server.handler/hit"},
	{"server.revalidate_us", "server.handler/304"},
	{"server.self_us", "self:server.handler"},
	{"corpusstore.resolve_us", "corpusstore.resolve"},
	{"corpusstore.append_us", "corpusstore.append"},
	{"corpusstore.register_us", "corpusstore.register"},
	{"itemset.mine_indexed_us", "itemset.mine_indexed"},
	{"itemset.index_build_us", "itemset.index_build"},
	{"itemset.live_append_us", "itemset.live_append"},
	{"itemset.live_snapshot_us", "itemset.live_snapshot"},
	{"itemset.replicate_mine_us", "itemset.replicate_mine"},
	{"overrep.topk_us", "overrep.topk"},
	{"evomodel.run_us", "evomodel.run"},
	{"evomodel.ensemble_us", "evomodel.ensemble"},
	{"experiment.fig4_self_us", "self:experiment.fig4"},
}

// layerMetrics reports the span-based per-layer metrics: medians in µs
// (0 when the workload never calls that layer) and the mean itemsets
// per indexed mine.
func (t *tracer) layerMetrics(rep *report) {
	durs := map[string][]int64{}
	var sets []int
	for _, ct := range append([]*clientTrace{t.setup}, t.clients...) {
		for _, spans := range ct.kept {
			sub := make([]int64, len(spans))
			for _, s := range spans {
				if s.Parent >= 0 {
					sub[s.Parent] += s.End - s.Start
				}
			}
			for i, s := range spans {
				d := s.End - s.Start
				durs[s.Name] = append(durs[s.Name], d)
				if s.Tag != "" {
					durs[s.Name+"/"+s.Tag] = append(durs[s.Name+"/"+s.Tag], d)
				}
				if s.Parent < 0 || sub[i] > 0 {
					durs["self:"+s.Name] = append(durs["self:"+s.Name], d-sub[i]/int64(max(1, s.Workers)))
				}
				if s.Name == "itemset.mine_indexed" {
					sets = append(sets, s.N)
				}
			}
		}
	}
	for _, m := range spanMetrics {
		v := durs[m.spans]
		rep.set(m.metric, medianNs(v)/1e3, "us", len(v))
	}
	mean := 0.0
	for _, n := range sets {
		mean += float64(n) / float64(len(sets))
	}
	rep.set("itemset.sets_per_mine", mean, "count", len(sets))
	rep.set("synth.generate_s", t.generate.Seconds(), "s", 1)
}

func medianNs(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return float64(s[n/2-1]+s[n/2]) / 2
	}
	return float64(s[len(s)/2])
}

// write saves every kept span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, ct := range append([]*clientTrace{t.setup}, t.clients...) {
		for _, spans := range ct.kept {
			for _, s := range spans {
				if err := enc.Encode(s); err != nil {
					f.Close()
					return err
				}
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
