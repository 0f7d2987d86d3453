package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"cuisinevol/internal/itemset"
	"cuisinevol/internal/overrep"
	"cuisinevol/internal/recipe"
	"cuisinevol/internal/server"
)

// mineMisses is the all-miss analytics workload: every request is a
// distinct /v1/mine or /v1/overrep key, drawn without replacement, with
// every index view warm. Nothing is shared, so time goes to mining,
// ranking, deterministic JSON and the cache insert.
type mineMisses struct {
	cfg   config
	plans [][]uint32 // per client: a seeded permutation of its key space

	srv     *server.Server
	cursor  []int
	samples [][]sample
	corpus  *recipe.Corpus // traced phase
	views   map[viewKey]*itemset.Index
}

const (
	missClients = 2
	// Client c owns the tops and ks of parity c, so the two clients'
	// key spaces are disjoint.
	missTops             = 50  // per client, of top 1..100
	missKs               = 150 // per client, of k 1..300
	missSampleEvery      = 53
	missSamplesPerClient = 12
)

// missSupports is the /v1/mine support grid; warmSupport lies outside it.
// It is narrow and low, so that mines take a millisecond or so and the
// overrep keys are under a quarter of the plan: the latency median then
// lies among the mines, in requests long enough that the host's
// per-wake-up costs do not dominate them.
var missSupports = []float64{0.03, 0.035, 0.04, 0.045, 0.05}

type missReq struct {
	target  string
	overrep bool
	region  string
	cats    bool
	support float64
	k       int
}

func missKeyCount() int {
	return len(regionCodes)*2*len(missSupports)*missTops + len(regionCodes)*missKs
}

// missKey decodes index i of client c's key space: every mine key
// first, then every overrep key.
func missKey(c, i int) missReq {
	nr := len(regionCodes)
	if mineN := nr * 2 * len(missSupports) * missTops; i >= mineN {
		i -= mineN
		region, k := regionCodes[i%nr], 2*(i/nr)+1+c
		return missReq{
			target:  fmt.Sprintf("/v1/overrep?region=%s&k=%d", region, k),
			overrep: true, region: region, k: k,
		}
	}
	region := regionCodes[i%nr]
	i /= nr
	cats := i%2 == 1
	i /= 2
	support := missSupports[i%len(missSupports)]
	top := 2*(i/len(missSupports)) + 1 + c
	return missReq{
		target: fmt.Sprintf("/v1/mine?region=%s&categories=%t&support=%s&top=%d", region, cats, fmtFloat(support), top),
		region: region, cats: cats, support: support,
	}
}

func (w *mineMisses) prepare(cfg config) error {
	w.cfg = cfg
	w.plans = make([][]uint32, missClients)
	for c := range w.plans {
		perm := rngFor(cfg.seed, "mine_misses/plan", c).Perm(missKeyCount())
		w.plans[c] = make([]uint32, len(perm))
		for i, v := range perm {
			w.plans[c][i] = uint32(v)
		}
	}
	return nil
}

func (w *mineMisses) setup() error {
	w.srv = nil
	srv, err := newServer(w.cfg, nil)
	if err != nil {
		return err
	}
	if err := warmViews(srv.Handler()); err != nil {
		return err
	}
	w.srv, w.cursor, w.samples = srv, make([]int, missClients), make([][]sample, missClients)
	return nil
}

func (w *mineMisses) server() *server.Server { return w.srv }
func (w *mineMisses) clients() int           { return missClients }

func (w *mineMisses) next(c *client) bool {
	pos := w.cursor[c.id]
	if pos >= len(w.plans[c.id]) {
		return false
	}
	w.cursor[c.id]++
	r := missKey(c.id, int(w.plans[c.id][pos]))
	rec, start, d := c.serve(httptest.NewRequest(http.MethodGet, r.target, nil))
	problem := expect(rec, r.target, http.StatusOK, "MISS")
	c.done(kindQuery, rec, d, problem)
	if problem == "" && pos%missSampleEvery == 0 && len(w.samples[c.id]) < missSamplesPerClient {
		w.samples[c.id] = append(w.samples[c.id], sample{target: r.target, body: bytes.Clone(rec.Body.Bytes())})
	}
	if c.tr != nil {
		w.trace(c, r, rec, start, d)
	}
	c.checkpoint()
	return true
}

// trace repeats the request's layer calls on the benchmark's own corpus
// and indexes.
func (w *mineMisses) trace(c *client, r missReq, rec *httptest.ResponseRecorder, start time.Time, d time.Duration) {
	root := traceQuery(c.tr, start, d, cacheTag(rec))
	if r.overrep {
		c.tr.call("overrep.topk", root, func() int {
			_, err := overrep.NewFromIndex(w.corpus, w.views[viewKey{}]).TopKFromIndex(r.region, w.views[viewKey{r.region, false}], r.k)
			c.layerErr(err)
			return 0
		})
	} else {
		c.tr.call("itemset.mine_indexed", root, func() int {
			res, err := itemset.MineIndexed(w.views[viewKey{r.region, r.cats}], r.support, itemset.MineOptions{Workers: runtime.GOMAXPROCS(0)})
			if c.layerErr(err) {
				return 0
			}
			return len(res.Sets)
		})
	}
	c.tr.end()
}

func (w *mineMisses) settle() error { return nil }

func (w *mineMisses) traceSetup(tr *tracer) error {
	corpus, err := tr.generateCorpus(w.cfg)
	if err != nil {
		return err
	}
	w.views, err = tr.buildViews(corpus)
	w.corpus = corpus
	return err
}

func (w *mineMisses) verify() (int, []string, error) {
	fresh, err := newServer(w.cfg, nil)
	if err != nil {
		return 0, nil, err
	}
	var all []sample
	for _, s := range w.samples {
		all = append(all, s...)
	}
	return len(all), recheck(fresh.Handler(), all), nil
}

func (w *mineMisses) plan(n int) [][]string {
	out := make([][]string, len(w.plans))
	for c, p := range w.plans {
		for _, i := range p[:n] {
			out[c] = append(out[c], missKey(c, int(i)).target)
		}
	}
	return out
}
