package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"cuisinevol/internal/corpusstore"
	"cuisinevol/internal/cuisine"
	"cuisinevol/internal/ingest"
	"cuisinevol/internal/itemset"
	"cuisinevol/internal/overrep"
	"cuisinevol/internal/recipe"
	"cuisinevol/internal/server"
)

// appendReads is the write-beside-read workload: each client owns a
// corpus lineage and alternates one small JSONL append with one
// /v1/overrep and one /v1/mine query against the lineage's newest
// version. One client only: with two, their lineages' requests fell in
// and out of step and a phase's throughput jumped between two levels
// (about 150 and 200 requests/s). Every append mints a new fingerprint, so the queries miss
// both caches and build region indexes; the registry keeps every
// version, so its growth shows in heap_live_mb.
type appendReads struct {
	cfg      config
	lineages []lineage

	reg     *corpusstore.Registry
	srv     *server.Server
	state   []lineageState
	samples [][]sample
	shadows []*shadowLineage // traced phase
}

type lineage struct {
	name    string
	queried string   // the region every query of the lineage asks about
	upload  []byte   // JSONL of the initial corpus
	batches [][]byte // JSONL append bodies, in order; set-up sends the first
	queries []appendQuery
}

// appendQuery is the pair of queries one cycle sends after its append.
type appendQuery struct {
	k       int
	support float64
	top     int
}

type lineageState struct {
	cycle, step int
	version     int // the lineage's newest version
}

type shadowLineage struct {
	reg  *corpusstore.Registry
	cur  *recipe.Corpus
	live *itemset.LiveIndex
	snap *itemset.Index
}

const (
	appendClients          = 1
	appendRecords          = 1  // records per append
	appendSampleEvery      = 37 // cycles between re-checked query pairs
	appendSamplesPerClient = 8
	// appendMaxCycles is each client's plan for one phase, more cycles
	// than a 7.5-second phase completes at paper scale. After the phase,
	// settle appends the rest of the plan untimed, so heap_live_mb is
	// always read with every lineage at the same version, whatever the
	// phase's throughput.
	appendMaxCycles = 300
)

// A lineage starts as one region, about 560 recipes at Table I's sizes
// times lineageScale, that every query asks about, and every append
// adds a record of a second region. So the view the queries index and
// mine never changes and every cycle costs the same; only the
// whole-corpus view overrep reads grows. lineageScale does not follow
// --scale, since the mines below need a region of this size to cost
// more than the append. Their supports mean two or three recipes per
// mined set: the lowest that stays clear of the every-subset blow-up of
// one.
var (
	lineageRegions = [appendClients][2]string{{"JPN", "BN"}} // queried, appended
	lineageScale   = 0.2
	appendSupports = []float64{0.002, 0.0025, 0.003, 0.0045}
	// appendBlock is the cycles in which a client's queries use each
	// support once, in a seeded order; rates and percentiles count whole
	// blocks only.
	appendBlock = len(appendSupports)
)

func (w *appendReads) prepare(cfg config) error {
	w.cfg = cfg
	w.lineages = make([]lineage, appendClients)
	for c := range w.lineages {
		regions := lineageRegions[c]
		l := &w.lineages[c]
		l.name, l.queried = fmt.Sprintf("lineage-%d", c), regions[0]
		base, err := rawRecords(rngFor(corpusSeed, "append_reads/base", c).Uint64(), lineageScale, regions[:1])
		if err != nil {
			return err
		}
		if l.upload, err = encodeJSONL(base); err != nil {
			return err
		}
		appended, err := cuisine.ByCode(regions[1])
		if err != nil {
			return err
		}
		poolScale := 1.1 * float64((appendMaxCycles+1)*appendRecords) / float64(appended.Recipes)
		pool, err := rawRecords(rngFor(corpusSeed, "append_reads/pool", c).Uint64(), poolScale, regions[1:])
		if err != nil {
			return err
		}
		for i := 0; i+appendRecords <= len(pool) && len(l.batches) <= appendMaxCycles; i += appendRecords {
			b, err := encodeJSONL(pool[i : i+appendRecords])
			if err != nil {
				return err
			}
			l.batches = append(l.batches, b)
		}
		if len(l.batches) <= appendMaxCycles {
			return fmt.Errorf("append_reads: only %d append bodies for %s", len(l.batches), l.name)
		}
		rng := rngFor(cfg.seed, "append_reads/queries", c)
		for len(l.queries) < appendMaxCycles {
			block := make([]appendQuery, len(appendSupports))
			for i, support := range appendSupports {
				block[i] = appendQuery{k: 1 + rng.IntN(50), support: support, top: 1 + rng.IntN(50)}
			}
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
			l.queries = append(l.queries, block...)
		}
	}
	return nil
}

func appendTarget(name string) string { return "/v1/corpora/" + name + "/append?format=jsonl" }

// setup builds the server over an explicit in-memory registry (what
// server.New builds when Options.Registry is nil), so verify can
// resolve the versions the queries saw; it uploads each lineage and
// appends its first batch, which seeds the lineage's live index head.
func (w *appendReads) setup() error {
	w.srv, w.reg = nil, nil
	reg, err := corpusstore.NewRegistry(corpusstore.NewMemStore(0), nil)
	if err != nil {
		return err
	}
	srv, err := newServer(w.cfg, reg)
	if err != nil {
		return err
	}
	h := srv.Handler()
	for _, l := range w.lineages {
		rec := do(h, http.MethodPost, "/v1/corpora?name="+l.name+"&format=jsonl", l.upload)
		if p := expect(rec, "upload "+l.name, http.StatusCreated, ""); p != "" {
			return errors.New(p)
		}
		if p := checkAppend(do(h, http.MethodPost, appendTarget(l.name), l.batches[0]), l.name, 2, false); p != "" {
			return errors.New(p)
		}
	}
	w.srv, w.reg = srv, reg
	w.state = make([]lineageState, appendClients)
	for c := range w.state {
		w.state[c].version = 2
	}
	w.samples = make([][]sample, appendClients)
	return nil
}

// checkAppend checks an append response: 201, the expected new version,
// every record accepted, and whether the index was derived
// incrementally.
func checkAppend(rec *httptest.ResponseRecorder, name string, version int, incremental bool) string {
	if p := expect(rec, "append to "+name, http.StatusCreated, ""); p != "" {
		return p
	}
	var doc struct {
		Corpus struct {
			Version int `json:"version"`
		} `json:"corpus"`
		Stats struct {
			Accepted int `json:"accepted"`
		} `json:"stats"`
		Index struct {
			Incremental bool `json:"incremental"`
		} `json:"index"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		return fmt.Sprintf("append to %s: %v", name, err)
	}
	if doc.Corpus.Version != version || doc.Stats.Accepted != appendRecords || doc.Index.Incremental != incremental {
		return fmt.Sprintf("append to %s: version %d, %d accepted, incremental %t; want %d, %d, %t",
			name, doc.Corpus.Version, doc.Stats.Accepted, doc.Index.Incremental, version, appendRecords, incremental)
	}
	return ""
}

func (w *appendReads) server() *server.Server { return w.srv }
func (w *appendReads) clients() int           { return appendClients }

// next sends the client's next request: an append, then an overrep
// query, then a mine query, which completes the cycle.
func (w *appendReads) next(c *client) bool {
	st, l := &w.state[c.id], &w.lineages[c.id]
	if st.step == 0 && st.cycle == appendMaxCycles {
		return false
	}
	q := l.queries[st.cycle]
	switch st.step {
	case 0:
		body := l.batches[1+st.cycle]
		rec, start, d := c.serve(httptest.NewRequest(http.MethodPost, appendTarget(l.name), bytes.NewReader(body)))
		problem := checkAppend(rec, l.name, st.version+1, true)
		c.done(kindAppend, rec, d, problem)
		if problem == "" {
			st.version++
		}
		if c.tr != nil {
			w.traceAppend(c, body, start, d)
		}
	case 1:
		w.query(c, q, true)
	case 2:
		w.query(c, q, false)
		if (st.cycle+1)%appendBlock == 0 {
			c.checkpoint()
		}
	}
	if st.step = (st.step + 1) % 3; st.step == 0 {
		st.cycle++
	}
	return true
}

func (w *appendReads) query(c *client, q appendQuery, isOverrep bool) {
	st, l := &w.state[c.id], &w.lineages[c.id]
	endpoint := "/v1/overrep"
	query := fmt.Sprintf("region=%s&k=%d", l.queried, q.k)
	if !isOverrep {
		endpoint = "/v1/mine"
		query = fmt.Sprintf("region=%s&support=%s&top=%d", l.queried, fmtFloat(q.support), q.top)
	}
	target := endpoint + "?corpus=" + l.name + "&" + query
	rec, start, d := c.serve(httptest.NewRequest(http.MethodGet, target, nil))
	problem := expect(rec, target, http.StatusOK, "MISS")
	c.done(kindQuery, rec, d, problem)
	if problem == "" && st.cycle%appendSampleEvery == 0 && len(w.samples[c.id]) < appendSamplesPerClient {
		w.samples[c.id] = append(w.samples[c.id], sample{
			target: endpoint + "?" + query, body: bytes.Clone(rec.Body.Bytes()), lineage: l.name, version: st.version,
		})
	}
	if c.tr != nil {
		w.traceQuery(c, q, isOverrep, rec, start, d)
	}
}

// settle appends the rest of each client's plan untimed, so every
// lineage ends the phase at the same version.
func (w *appendReads) settle() error {
	h := w.srv.Handler()
	for c, l := range w.lineages {
		st := &w.state[c]
		if st.step != 0 { // the cycle's append is done
			st.cycle, st.step = st.cycle+1, 0
		}
		for ; st.cycle < appendMaxCycles; st.cycle++ {
			if p := checkAppend(do(h, http.MethodPost, appendTarget(l.name), l.batches[1+st.cycle]), l.name, st.version+1, true); p != "" {
				return errors.New(p)
			}
			st.version++
		}
	}
	return nil
}

// traceAppend repeats the append handler's layer calls on the client's
// shadow lineage.
func (w *appendReads) traceAppend(c *client, body []byte, start time.Time, d time.Duration) {
	t, sh, name := c.tr, w.shadows[c.id], w.lineages[c.id].name
	root := t.add("server.handler", -1, start, d, 0, "append")
	var res *corpusstore.Result
	t.call("corpusstore.append", root, func() int {
		var err error
		res, err = corpusstore.Append(sh.cur, bytes.NewReader(body), corpusstore.ImportOptions{
			Format: corpusstore.FormatJSONL,
			Ingest: ingest.Options{Lexicon: sh.reg.Lexicon()},
		})
		if c.layerErr(err) {
			return 0
		}
		return res.Stats.Accepted
	})
	if res != nil {
		var info corpusstore.Info
		t.call("corpusstore.register", root, func() int {
			var err error
			info, err = sh.reg.Register(name, res.Corpus)
			c.layerErr(err)
			return 0
		})
		// Only the benchmarked server's registry keeps every version.
		if info.Version > 1 {
			_, err := sh.reg.Delete(fmt.Sprintf("%s@%d", name, info.Version-1))
			c.layerErr(err)
		}
		delta := res.Corpus.TailView(sh.cur.Len()).Transactions()
		t.call("itemset.live_append", root, func() int {
			_, err := sh.live.Append(delta)
			c.layerErr(err)
			return len(delta)
		})
		t.call("itemset.live_snapshot", root, func() int {
			sh.snap = sh.live.Snapshot()
			return 0
		})
		sh.cur = res.Corpus
	}
	t.end()
}

// traceQuery repeats a query's layer calls on the client's shadow
// lineage: resolve the newest version, build the region index, then
// rank or mine.
func (w *appendReads) traceQuery(c *client, q appendQuery, isOverrep bool, rec *httptest.ResponseRecorder, start time.Time, d time.Duration) {
	t, sh, name := c.tr, w.shadows[c.id], w.lineages[c.id].name
	root := traceQuery(t, start, d, cacheTag(rec))
	var corpus *recipe.Corpus
	t.call("corpusstore.resolve", root, func() int {
		var err error
		corpus, _, err = sh.reg.Resolve(name)
		c.layerErr(err)
		return 0
	})
	region := w.lineages[c.id].queried
	if corpus != nil {
		txs := corpus.Region(region).Transactions()
		var ix *itemset.Index
		t.call("itemset.index_build", root, func() int {
			var err error
			ix, err = itemset.BuildIndex(txs)
			c.layerErr(err)
			return 0
		})
		switch {
		case ix == nil:
		case isOverrep:
			t.call("overrep.topk", root, func() int {
				_, err := overrep.NewFromIndex(corpus, sh.snap).TopKFromIndex(region, ix, q.k)
				c.layerErr(err)
				return 0
			})
		default:
			t.call("itemset.mine_indexed", root, func() int {
				res, err := itemset.MineIndexed(ix, q.support, itemset.MineOptions{Workers: runtime.GOMAXPROCS(0)})
				if c.layerErr(err) {
					return 0
				}
				return len(res.Sets)
			})
		}
	}
	t.end()
}

// traceSetup starts each shadow lineage from the lineage's newest
// version after set-up, with its own registry and live index.
func (w *appendReads) traceSetup(tr *tracer) error {
	if _, err := tr.generateCorpus(w.cfg); err != nil {
		return err
	}
	w.shadows = make([]*shadowLineage, appendClients)
	for c, l := range w.lineages {
		corpus, _, err := w.reg.Resolve(l.name)
		if err != nil {
			return err
		}
		reg, err := corpusstore.NewRegistry(corpusstore.NewMemStore(0), nil)
		if err != nil {
			return err
		}
		if _, err := reg.Register(l.name, corpus); err != nil {
			return err
		}
		live := itemset.NewLiveIndex()
		if _, err := live.Append(corpus.AllView().Transactions()); err != nil {
			return err
		}
		w.shadows[c] = &shadowLineage{reg: reg, cur: corpus, live: live, snap: live.Snapshot()}
	}
	return nil
}

// verify asks, for each sampled query, a fresh server whose default
// corpus is the lineage version the query was answered on.
func (w *appendReads) verify() (int, []string, error) {
	fresh := map[string]*server.Server{}
	var problems []string
	checked := 0
	for _, ss := range w.samples {
		for _, s := range ss {
			ref := fmt.Sprintf("%s@%d", s.lineage, s.version)
			srv, ok := fresh[ref]
			if !ok {
				corpus, _, err := w.reg.Resolve(ref)
				if err != nil {
					return checked, problems, err
				}
				if srv, err = server.New(server.Options{Seed: corpusSeed, RecipeScale: w.cfg.scale, Corpus: corpus}); err != nil {
					return checked, problems, err
				}
				fresh[ref] = srv
			}
			problems = append(problems, recheck(srv.Handler(), []sample{s})...)
			checked++
		}
	}
	return checked, problems, nil
}

func (w *appendReads) plan(n int) [][]string {
	out := make([][]string, len(w.lineages))
	for c, l := range w.lineages {
		for i := 0; len(out[c]) < n; i++ {
			q := l.queries[i]
			out[c] = append(out[c],
				fmt.Sprintf("append %s %x", l.name, l.batches[1+i]),
				fmt.Sprintf("overrep %s %d", l.queried, q.k),
				fmt.Sprintf("mine %s %g %d", l.queried, q.support, q.top))
		}
		out[c] = out[c][:n]
	}
	return out
}
