package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"time"

	"cuisinevol/internal/evomodel"
	"cuisinevol/internal/experiment"
	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/itemset"
	"cuisinevol/internal/recipe"
	"cuisinevol/internal/server"
)

// paperFig4 is the paper's dominant cost: distinct /v1/fig4 requests,
// each Algorithm 1's copy-mutate ensembles plus the per-replicate mines,
// cycling through all 25 regions × {ingredients, categories}. One client
// only, because each request already fans out over internal/sched.
type paperFig4 struct {
	cfg config

	srv     *server.Server
	gen     *fig4Plan
	pending []fig4Req // the current block's requests not yet sent
	samples []sample
	corpus  *recipe.Corpus // traced phase
	views   map[viewKey]*itemset.Index
	indexes *itemset.IndexCache
}

const (
	fig4Replicates = 1  // model replicates per (region, model) in every request
	fig4MaxBlocks  = 24 // blocks in a plan
	fig4Samples    = 4  // requests re-checked against a fresh server
	fig4Support    = 0.05
)

type fig4Req struct {
	regions     []string // sorted
	cats, dists bool
}

func (r fig4Req) target() string {
	return fmt.Sprintf("/v1/fig4?regions=%s&replicates=%d&categories=%t&dists=%t",
		strings.Join(r.regions, ","), fig4Replicates, r.cats, r.dists)
}

// fig4Plan deals the regions into blocks. A block asks for every region
// once with categories=false and once with categories=true, each time
// as one triple and eleven pairs, one half with dists=false and the
// other with dists=true, which half alternating per block; so every
// complete block costs the same. No (regions, categories, dists)
// combination repeats, so every request is a cache miss.
type fig4Plan struct {
	rng    *rand.Rand
	used   map[string]bool
	blocks int
}

func newFig4Plan(seed uint64) *fig4Plan {
	return &fig4Plan{rng: rngFor(seed, "paper_fig4/plan", 0), used: map[string]bool{}}
}

// nextBlock returns the next block in a seeded order, or nil once the
// plan is used up.
func (p *fig4Plan) nextBlock() ([]fig4Req, error) {
	if p.blocks == fig4MaxBlocks {
		return nil, nil
	}
	var block []fig4Req
	for _, cats := range []bool{false, true} {
		dists := cats != (p.blocks%2 == 1)
		groups, err := p.partition(cats, dists)
		if err != nil {
			return nil, err
		}
		for _, g := range groups {
			block = append(block, fig4Req{regions: g, cats: cats, dists: dists})
		}
	}
	p.rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
	p.blocks++
	return block, nil
}

// partition splits the regions into one triple and pairs, none of which
// the plan has requested before with the same flags.
func (p *fig4Plan) partition(cats, dists bool) ([][]string, error) {
	key := func(g []string) string { return fmt.Sprintf("%s|%t|%t", strings.Join(g, ","), cats, dists) }
	group := func(idx ...int) []string {
		g := make([]string, len(idx))
		for i, j := range idx {
			g[i] = regionCodes[j]
		}
		sort.Strings(g)
		return g
	}
	for try := 0; try < 1000; try++ {
		perm := p.rng.Perm(len(regionCodes))
		groups := [][]string{group(perm[:3]...)}
		rest := perm[3:]
		for len(rest) > 0 {
			j := 1
			for j < len(rest) && p.used[key(group(rest[0], rest[j]))] {
				j++
			}
			if j == len(rest) {
				break
			}
			groups = append(groups, group(rest[0], rest[j]))
			rest = append(append([]int(nil), rest[1:j]...), rest[j+1:]...)
		}
		if len(rest) > 0 || p.used[key(groups[0])] {
			continue
		}
		for _, g := range groups {
			p.used[key(g)] = true
		}
		return groups, nil
	}
	return nil, errors.New("paper_fig4: no unused region partition left")
}

func (w *paperFig4) prepare(cfg config) error {
	w.cfg = cfg
	return nil
}

func (w *paperFig4) setup() error {
	w.srv = nil
	srv, err := newServer(w.cfg, nil)
	if err != nil {
		return err
	}
	if err := warmViews(srv.Handler()); err != nil {
		return err
	}
	w.srv, w.gen, w.pending, w.samples = srv, newFig4Plan(w.cfg.seed), nil, nil
	return nil
}

func (w *paperFig4) server() *server.Server { return w.srv }
func (w *paperFig4) clients() int           { return 1 }

func (w *paperFig4) next(c *client) bool {
	first := len(w.pending) == 0
	if first {
		block, err := w.gen.nextBlock()
		if err != nil {
			c.layerErr(err)
			return false
		}
		if block == nil {
			return false
		}
		w.pending = block
	}
	r := w.pending[0]
	w.pending = w.pending[1:]
	target := r.target()
	rec, start, d := c.serve(httptest.NewRequest(http.MethodGet, target, nil))
	problem := expect(rec, target, http.StatusOK, "MISS")
	if problem == "" {
		problem = checkFig4(rec.Body.Bytes(), r)
	}
	c.done(kindQuery, rec, d, problem)
	if problem == "" {
		c.units += len(r.regions) * len(evomodel.Kinds()) * fig4Replicates
		if first && len(w.samples) < fig4Samples {
			w.samples = append(w.samples, sample{target: target, body: bytes.Clone(rec.Body.Bytes())})
		}
	}
	if c.tr != nil {
		w.trace(c, r, rec, start, d)
	}
	if len(w.pending) == 0 {
		c.checkpoint()
	}
	return true
}

// checkFig4 checks that a body answers the request: one row per region
// at the requested replicate count.
func checkFig4(body []byte, r fig4Req) string {
	var doc struct {
		Replicates int `json:"replicates"`
		Rows       []struct {
			Region string `json:"region"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Sprintf("%s: %v", r.target(), err)
	}
	if doc.Replicates != fig4Replicates || len(doc.Rows) != len(r.regions) {
		return fmt.Sprintf("%s: %d rows at %d replicates, want %d at %d", r.target(), len(doc.Rows), doc.Replicates, len(r.regions), fig4Replicates)
	}
	return ""
}

// trace repeats the request on the benchmark's own corpus: the whole
// RunFig4Ctx, then its parts — each region's empirical mine, each
// (region, model) ensemble, and each replicate's simulation and mine —
// as children, so experiment.fig4_self_us is what RunFig4Ctx adds
// around them.
func (w *paperFig4) trace(c *client, r fig4Req, rec *httptest.ResponseRecorder, start time.Time, d time.Duration) {
	t := c.tr
	ctx := context.Background()
	root := traceQuery(t, start, d, cacheTag(rec))
	fig4 := t.call("experiment.fig4", root, func() int {
		cfg := &experiment.Config{Seed: corpusSeed, RecipeScale: w.cfg.scale, MinSupport: fig4Support, Replicates: fig4Replicates}
		cfg.SetCorpus(w.corpus)
		cfg.SetIndexes(w.indexes)
		_, err := experiment.RunFig4Ctx(ctx, cfg, experiment.Fig4Options{Categories: r.cats, Regions: r.regions})
		c.layerErr(err)
		return 0
	})
	t.cur[fig4].Workers = runtime.GOMAXPROCS(0) // RunFig4Ctx's default fan-out
	lex := w.corpus.Lexicon()
	for _, region := range r.regions {
		t.call("itemset.mine_indexed", fig4, func() int {
			res, err := itemset.MineIndexed(w.views[viewKey{region, r.cats}], fig4Support, itemset.MineOptions{})
			if c.layerErr(err) {
				return 0
			}
			return len(res.Sets)
		})
		view := w.corpus.Region(region)
		for _, kind := range evomodel.Kinds() {
			params := evomodel.ParamsForView(view, kind, corpusSeed)
			ens := t.call("evomodel.ensemble", fig4, func() int {
				_, err := evomodel.RunEnsembleCtx(ctx, evomodel.EnsembleConfig{
					Params: params, Replicates: fig4Replicates, MinSupport: fig4Support, Categories: r.cats,
				}, lex)
				c.layerErr(err)
				return fig4Replicates
			})
			for rep := 0; rep < fig4Replicates; rep++ {
				p := params
				p.Seed = replicateSeed(corpusSeed, rep)
				var txs [][]ingredient.ID
				t.call("evomodel.run", ens, func() int {
					var err error
					txs, err = evomodel.Run(p, lex)
					c.layerErr(err)
					return len(txs)
				})
				if r.cats {
					txs = categoryTransactions(txs, lex)
				}
				t.call("itemset.replicate_mine", ens, func() int {
					res, err := itemset.Mine(txs, fig4Support, itemset.MineOptions{})
					if c.layerErr(err) {
						return 0
					}
					return len(res.Sets)
				})
			}
		}
	}
	t.end()
}

// replicateSeed mirrors evomodel's per-replicate seed derivation, so the
// traced replicates simulate the recipes the server's replicates do.
func replicateSeed(base uint64, rep int) uint64 {
	z := base + uint64(rep+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// categoryTransactions maps ingredient transactions to their sorted
// distinct categories, the transactions a categories=true replicate
// mines.
func categoryTransactions(txs [][]ingredient.ID, lex *ingredient.Lexicon) [][]ingredient.ID {
	out := make([][]ingredient.ID, len(txs))
	for i, tx := range txs {
		var present [ingredient.NumCategories]bool
		for _, id := range tx {
			present[lex.CategoryOf(id)] = true
		}
		for cat, ok := range present {
			if ok {
				out[i] = append(out[i], ingredient.ID(cat))
			}
		}
	}
	return out
}

func (w *paperFig4) settle() error { return nil }

func (w *paperFig4) traceSetup(tr *tracer) error {
	corpus, err := tr.generateCorpus(w.cfg)
	if err != nil {
		return err
	}
	views, err := tr.buildViews(corpus)
	if err != nil {
		return err
	}
	w.indexes = itemset.NewIndexCache(64 << 20) // the server's default budget
	for k, ix := range views {
		w.indexes.Put(itemset.IndexKey(corpus.Fingerprint(), k.region, k.cats), ix)
	}
	w.corpus, w.views = corpus, views
	return nil
}

func (w *paperFig4) verify() (int, []string, error) {
	fresh, err := newServer(w.cfg, nil)
	if err != nil {
		return 0, nil, err
	}
	return len(w.samples), recheck(fresh.Handler(), w.samples), nil
}

func (w *paperFig4) plan(n int) [][]string {
	gen := newFig4Plan(w.cfg.seed)
	var out []string
	for len(out) < n {
		block, err := gen.nextBlock()
		if err != nil || block == nil {
			break
		}
		for _, r := range block {
			out = append(out, r.target())
		}
	}
	return [][]string{out[:min(n, len(out))]}
}
