package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"sort"
	"sync"

	"cuisinevol/internal/corpusstore"
	"cuisinevol/internal/server"
)

// hotReads is the all-hit workload: Zipf-skewed GETs over a fixed key
// space that set-up warms in full, about a quarter of them through
// corpus= on an uploaded corpus and a quarter revalidating with
// If-None-Match. Every request is a hit, so it isolates the server
// layer's per-request cost; it is the bypass workload for compute-layer
// changes.
type hotReads struct {
	cfg     config
	keys    []hotKey
	plans   [][]uint32 // per client: key index, variant in the top two bits
	sideRaw []byte     // JSONL upload of the corpus= corpus

	srv    *server.Server
	reqs   [][][numVariants]*http.Request // per client, per key, per variant
	cursor []int
	shadow *corpusstore.Registry // traced phase: resolves the side corpus
}

type hotKey struct {
	target string
	side   bool // through corpus=side
	body   []byte
	etag   string
}

const (
	variantPlain      = iota
	variantRevalidate // If-None-Match with the key's ETag: must be 304
	variantStale      // If-None-Match with another ETag: must be a 200 hit
	numVariants
)

const (
	hotClients   = 1
	hotWarmers   = 2       // set-up goroutines warming the key space
	hotPlanLen   = 1 << 18 // requests per client plan; longer runs wrap around
	hotKeyMask   = 1<<30 - 1
	hotSideName  = "side"
	hotSideScale = 0.05 // side corpus size relative to --scale
	staleETag    = `"00000000000000000000000000000000"`
)

// hotClassShares is each key class's fixed share of requests, in the
// order hotKeySpace adds the classes. The side-corpus classes carry a
// quarter of the requests.
var hotClassShares = []float64{
	0.04, 0.04, 0.01, 0.06, 0.25, 0.35, // cuisines, table1, fig3, fig4, overrep, mine
	0.02, 0.02, 0.08, 0.13, // corpus=side: cuisines, table1, overrep, mine
}

// hotKeySpace lists the warm key space, grouped into the classes of
// hotClassShares.
func hotKeySpace() ([]hotKey, [][]int) {
	var keys []hotKey
	classes := make([][]int, len(hotClassShares))
	class := -1
	add := func(side bool, endpoint string, query url.Values) {
		if side {
			query.Set("corpus", hotSideName)
		}
		target := endpoint
		if len(query) > 0 {
			target += "?" + query.Encode()
		}
		classes[class] = append(classes[class], len(keys))
		keys = append(keys, hotKey{target: target, side: side})
	}
	overrep := func(side bool, ks []int) {
		for _, region := range regionCodes {
			for _, k := range ks {
				add(side, "/v1/overrep", url.Values{"region": {region}, "k": {fmt.Sprint(k)}})
			}
		}
	}
	mine := func(side bool, supports []float64, tops []int) {
		for _, region := range regionCodes {
			for _, cats := range []bool{false, true} {
				for _, s := range supports {
					for _, top := range tops {
						q := url.Values{"region": {region}, "categories": {fmt.Sprint(cats)}, "support": {fmtFloat(s)}, "top": {fmt.Sprint(top)}}
						add(side, "/v1/mine", q)
					}
				}
			}
		}
	}
	for _, side := range []bool{false, true} {
		class++
		add(side, "/v1/cuisines", url.Values{})
		class++
		add(side, "/v1/table1", url.Values{})
		if !side {
			class++
			for _, s := range []float64{0.05, 0.06} {
				add(side, "/v1/fig3", url.Values{"support": {fmtFloat(s)}})
			}
			class++
			for _, region := range []string{"BN", "CAM", "KOR", "SEA"} {
				for _, cats := range []bool{false, true} {
					q := url.Values{"regions": {region}, "replicates": {"2"}, "categories": {fmt.Sprint(cats)}}
					add(side, "/v1/fig4", q)
				}
			}
			class++
			overrep(side, []int{5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 55, 60, 65, 70, 75, 80, 85, 90, 95, 100})
			class++
			mine(side, []float64{0.05, 0.06, 0.08, 0.1, 0.12}, []int{5, 10, 25, 50})
			continue
		}
		class++
		overrep(side, []int{5, 10, 20, 40, 80})
		class++
		mine(side, []float64{0.05, 0.08, 0.12}, []int{10, 25})
	}
	return keys, classes
}

// hotPlans draws each client's request plan: a class by its share, a
// key within the class by Zipf(1), and a quarter of requests as
// revalidations (one in eight of those with a stale ETag). The keys'
// popularity order within a class is a fixed shuffle, the same for
// every seed, so every run sends the same mix of body sizes.
func hotPlans(seed uint64, classes [][]int) [][]uint32 {
	type classDraw struct {
		keys []int
		cdf  []float64
	}
	order := rngFor(corpusSeed, "hot_reads/order", 0)
	draws := make([]classDraw, len(classes))
	for i, ks := range classes {
		d := classDraw{keys: slices.Clone(ks), cdf: make([]float64, len(ks))}
		order.Shuffle(len(d.keys), func(a, b int) { d.keys[a], d.keys[b] = d.keys[b], d.keys[a] })
		sum := 0.0
		for r := range d.cdf {
			sum += 1 / float64(r+1)
			d.cdf[r] = sum
		}
		for r := range d.cdf {
			d.cdf[r] /= sum
		}
		draws[i] = d
	}
	classCDF := make([]float64, len(hotClassShares))
	sum := 0.0
	for i, s := range hotClassShares {
		sum += s
		classCDF[i] = sum
	}
	plans := make([][]uint32, hotClients)
	for c := range plans {
		rng := rngFor(seed, "hot_reads/plan", c)
		plan := make([]uint32, hotPlanLen)
		for i := range plan {
			d := draws[pick(classCDF, rng.Float64()*sum)]
			key := d.keys[pick(d.cdf, rng.Float64())]
			variant := variantPlain
			if rng.Float64() < 0.25 {
				variant = variantRevalidate
				if rng.IntN(8) == 0 {
					variant = variantStale
				}
			}
			plan[i] = uint32(key) | uint32(variant)<<30
		}
		plans[c] = plan
	}
	return plans
}

// pick returns the first index whose cumulative weight reaches u.
func pick(cdf []float64, u float64) int {
	return min(sort.SearchFloat64s(cdf, u), len(cdf)-1)
}

func (w *hotReads) prepare(cfg config) error {
	w.cfg = cfg
	var classes [][]int
	w.keys, classes = hotKeySpace()
	w.plans = hotPlans(cfg.seed, classes)
	raws, err := rawRecords(rngFor(corpusSeed, "hot_reads/side", 0).Uint64(), cfg.scale*hotSideScale, nil)
	if err != nil {
		return err
	}
	w.sideRaw, err = encodeJSONL(raws)
	return err
}

// setup builds the server, uploads the side corpus and warms every key
// from hotWarmers goroutines.
func (w *hotReads) setup() error {
	w.srv, w.reqs = nil, nil
	srv, err := newServer(w.cfg, nil)
	if err != nil {
		return err
	}
	h := srv.Handler()
	rec := do(h, http.MethodPost, "/v1/corpora?name="+hotSideName+"&format=jsonl", w.sideRaw)
	if p := expect(rec, "upload "+hotSideName, http.StatusCreated, ""); p != "" {
		return errors.New(p)
	}
	errs := make([]error, hotWarmers)
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(w.keys); i += hotWarmers {
				k := &w.keys[i]
				rec := do(h, http.MethodGet, k.target, nil)
				if p := expect(rec, k.target, http.StatusOK, "MISS"); p != "" {
					errs[g] = errors.New(p)
					return
				}
				k.body, k.etag = bytes.Clone(rec.Body.Bytes()), rec.Header().Get("ETag")
			}
		}(g)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	w.reqs = make([][][numVariants]*http.Request, hotClients)
	for c := range w.reqs {
		w.reqs[c] = make([][numVariants]*http.Request, len(w.keys))
		for i, k := range w.keys {
			for v := range w.reqs[c][i] {
				r := httptest.NewRequest(http.MethodGet, k.target, nil)
				switch v {
				case variantRevalidate:
					r.Header.Set("If-None-Match", k.etag)
				case variantStale:
					r.Header.Set("If-None-Match", staleETag)
				}
				w.reqs[c][i][v] = r
			}
		}
	}
	w.srv, w.cursor = srv, make([]int, hotClients)
	return nil
}

func (w *hotReads) server() *server.Server { return w.srv }
func (w *hotReads) clients() int           { return hotClients }

func (w *hotReads) next(c *client) bool {
	plan := w.plans[c.id]
	op := plan[w.cursor[c.id]%len(plan)]
	w.cursor[c.id]++
	i, variant := int(op&hotKeyMask), int(op>>30)
	k := &w.keys[i]
	rec, start, d := c.serve(w.reqs[c.id][i][variant])
	c.done(kindQuery, rec, d, k.check(rec, variant))
	if c.tr != nil {
		root := traceQuery(c.tr, start, d, cacheTag(rec))
		if k.side {
			c.tr.call("corpusstore.resolve", root, func() int {
				_, _, err := w.shadow.Resolve(hotSideName)
				c.layerErr(err)
				return 0
			})
		}
		c.tr.end()
	}
	c.checkpoint()
	return true
}

// check compares a response with the key's warm-up response: a 304 only
// for the matching ETag, otherwise a hit with the same ETag and bytes.
func (k *hotKey) check(rec *httptest.ResponseRecorder, variant int) string {
	if variant == variantRevalidate {
		if rec.Code != http.StatusNotModified || rec.Body.Len() != 0 {
			return fmt.Sprintf("%s: revalidation answered %d with %d body bytes, want 304 and none", k.target, rec.Code, rec.Body.Len())
		}
		return ""
	}
	if p := expect(rec, k.target, http.StatusOK, "HIT"); p != "" {
		return p
	}
	if rec.Header().Get("ETag") != k.etag || !bytes.Equal(rec.Body.Bytes(), k.body) {
		return fmt.Sprintf("%s: hit differs from the warm-up response", k.target)
	}
	return ""
}

// settle drops the warm-up bodies and the prebuilt requests, the
// benchmark's own largest holdings, so that heap_live_mb is the
// server's; setup rebuilds both.
func (w *hotReads) settle() error {
	for i := range w.keys {
		w.keys[i].body = nil
	}
	w.reqs = nil
	return nil
}

func (w *hotReads) traceSetup(tr *tracer) error {
	if _, err := tr.generateCorpus(w.cfg); err != nil {
		return err
	}
	reg, err := corpusstore.NewRegistry(corpusstore.NewMemStore(0), nil)
	if err != nil {
		return err
	}
	res, err := corpusstore.Import(bytes.NewReader(w.sideRaw), corpusstore.ImportOptions{Format: corpusstore.FormatJSONL})
	if err != nil {
		return err
	}
	if _, err := reg.Register(hotSideName, res.Corpus); err != nil {
		return err
	}
	w.shadow = reg
	return nil
}

// verify has nothing left to do: every hit was compared with its
// warm-up response as it arrived.
func (w *hotReads) verify() (int, []string, error) { return 0, nil, nil }

func (w *hotReads) plan(n int) [][]string {
	out := make([][]string, len(w.plans))
	for c, p := range w.plans {
		for _, op := range p[:n] {
			out[c] = append(out[c], fmt.Sprintf("%s variant=%d", w.keys[op&hotKeyMask].target, op>>30))
		}
	}
	return out
}
