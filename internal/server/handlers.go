package server

import (
	"context"
	"net/http"
	"net/url"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"

	"cuisinevol/internal/cuisine"
	"cuisinevol/internal/evomodel"
	"cuisinevol/internal/experiment"
	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/itemset"
	"cuisinevol/internal/overrep"
)

// routes registers every endpoint. The analytics endpoints are GET-only
// and flow through serveComputed (cache → coalesce → compute); /healthz
// and /metrics are served directly; /v1/corpora (corpora.go) carries
// the corpus-management verbs.
func (s *Server) routes() {
	s.mux = http.NewServeMux()
	register := func(path string, h http.HandlerFunc) {
		s.mux.Handle("GET "+path, s.instrument(path, h))
	}
	register("/healthz", s.handleHealthz)
	register("/metrics", s.handleMetrics)
	register("/v1/cuisines", s.handleCuisines)
	register("/v1/table1", s.handleTable1)
	register("/v1/fig1", s.handleFig1)
	register("/v1/fig2", s.handleFig2)
	register("/v1/fig3", s.handleFig3)
	register("/v1/fig4", s.handleFig4)
	register("/v1/mine", s.handleMine)
	register("/v1/overrep", s.handleOverrep)
	register("/v1/evolve", s.handleEvolve)
	s.mux.Handle("POST /v1/corpora", s.instrument("/v1/corpora", s.handleCorpusUpload))
	s.mux.Handle("GET /v1/corpora", s.instrument("/v1/corpora", s.handleCorpusList))
	s.mux.Handle("DELETE /v1/corpora/{id}", s.instrument("/v1/corpora/{id}", s.handleCorpusDelete))
	s.mux.Handle("POST /v1/corpora/{id}/append", s.instrument("/v1/corpora/{id}/append", s.handleCorpusAppend))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	doc := map[string]any{
		"status":  "ok",
		"corpus":  s.fingerprint,
		"recipes": s.corpus.Len(),
		"corpora": s.registry.Stats().StoreEntries,
	}
	if s.peers != nil {
		state := s.peers.state.Load()
		doc["node"] = s.peers.self
		doc["peers"] = state.ring.Members()
	}
	body, _ := marshalDeterministic(doc)
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Write(body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WriteTo(w, s.cache, s.indexes, s.registry, s.live)
}

// cuisineInfo is one row of /v1/cuisines.
type cuisineInfo struct {
	Code              string `json:"code"`
	Name              string `json:"name"`
	Recipes           int    `json:"recipes"`
	UniqueIngredients int    `json:"unique_ingredients"`
}

func (s *Server) handleCuisines(w http.ResponseWriter, r *http.Request) {
	q := newQuery(r)
	sel := s.selectCorpus(q)
	s.serveComputed(w, r, q, sel.fingerprint, "/v1/cuisines", "", func(ctx context.Context) (any, error) {
		// Paper cuisines come first in Table I order (all 25 for the
		// default corpus, the non-empty ones for an uploaded corpus);
		// region codes outside the paper's set follow, sorted, with the
		// code standing in for the display name.
		out := make([]cuisineInfo, 0, cuisine.Count)
		known := make(map[string]bool, cuisine.Count)
		for _, region := range cuisine.All() {
			known[region.Code] = true
			view := sel.corpus.Region(region.Code)
			if view.Len() == 0 && !sel.def {
				continue
			}
			out = append(out, cuisineInfo{
				Code:              region.Code,
				Name:              region.Name,
				Recipes:           view.Len(),
				UniqueIngredients: view.UniqueIngredients(),
			})
		}
		var extra []string
		for _, code := range sel.corpus.Regions() {
			if !known[code] {
				extra = append(extra, code)
			}
		}
		sort.Strings(extra)
		for _, code := range extra {
			view := sel.corpus.Region(code)
			out = append(out, cuisineInfo{
				Code:              code,
				Name:              code,
				Recipes:           view.Len(),
				UniqueIngredients: view.UniqueIngredients(),
			})
		}
		return map[string]any{"cuisines": out}, nil
	})
}

// table1Row is one row of /v1/table1.
type table1Row struct {
	Code               string   `json:"code"`
	Name               string   `json:"name"`
	Recipes            int      `json:"recipes"`
	UniqueIngredients  int      `json:"unique_ingredients"`
	TopOverrepresented []string `json:"top_overrepresented"`
	PaperTop           []string `json:"paper_top"`
	Matches            int      `json:"matches"`
}

func (s *Server) handleTable1(w http.ResponseWriter, r *http.Request) {
	q := newQuery(r)
	sel := s.selectCorpus(q)
	s.serveComputed(w, r, q, sel.fingerprint, "/v1/table1", "", func(ctx context.Context) (any, error) {
		res, err := experiment.RunTableI(s.config(sel, s.opts.Replicates))
		if err != nil {
			return nil, err
		}
		rows := make([]table1Row, len(res.Rows))
		for i, row := range res.Rows {
			rows[i] = table1Row{
				Code:               row.Code,
				Name:               row.Name,
				Recipes:            row.Recipes,
				UniqueIngredients:  row.UniqueIngredients,
				TopOverrepresented: row.TopOverrepresented,
				PaperTop:           row.PaperTop,
				Matches:            row.Matches,
			}
		}
		return map[string]any{
			"rows":            rows,
			"total_recipes":   res.TotalRecipes,
			"avg_recipes":     res.AvgRecipes,
			"avg_ingredients": res.AvgIngredients,
		}, nil
	})
}

func (s *Server) handleFig1(w http.ResponseWriter, r *http.Request) {
	q := newQuery(r)
	sel := s.selectCorpus(q)
	s.serveComputed(w, r, q, sel.fingerprint, "/v1/fig1", "", func(ctx context.Context) (any, error) {
		return experiment.RunFig1(s.config(sel, s.opts.Replicates))
	})
}

func (s *Server) handleFig2(w http.ResponseWriter, r *http.Request) {
	q := newQuery(r)
	sel := s.selectCorpus(q)
	s.serveComputed(w, r, q, sel.fingerprint, "/v1/fig2", "", func(ctx context.Context) (any, error) {
		res, err := experiment.RunFig2(s.config(sel, s.opts.Replicates))
		if err != nil {
			return nil, err
		}
		leading := make([]string, len(res.Leading))
		for i, c := range res.Leading {
			leading[i] = c.String()
		}
		boxes := make(map[string]any, ingredient.NumCategories)
		for c, b := range res.Boxes {
			boxes[ingredient.Category(c).String()] = map[string]float64{
				"whisker_low": b.WhiskLo, "q1": b.Q1, "median": b.Med, "q3": b.Q3, "whisker_high": b.WhiskHi,
			}
		}
		return map[string]any{"means": res.Means, "boxes": boxes, "leading": leading}, nil
	})
}

// figPanel is the serialized form of one Fig 3 panel.
type figPanel struct {
	MeanMAE      float64              `json:"mean_mae"`
	MostDistinct []string             `json:"most_distinct"`
	Dists        map[string][]float64 `json:"dists"`
}

func toPanel(p experiment.Fig3Panel) figPanel {
	out := figPanel{MeanMAE: p.MeanMAE, MostDistinct: p.MostDistinct, Dists: make(map[string][]float64, len(p.Dists))}
	for _, d := range p.Dists {
		out.Dists[d.Label] = d.Freqs
	}
	return out
}

func (s *Server) handleFig3(w http.ResponseWriter, r *http.Request) {
	q := newQuery(r)
	sel := s.selectCorpus(q)
	support := q.float("support", s.opts.MinSupport, 0, 1)
	canon := canonicalParams("support", support)
	s.serveComputed(w, r, q, sel.fingerprint, "/v1/fig3", canon, func(ctx context.Context) (any, error) {
		cfg := s.config(sel, s.opts.Replicates)
		cfg.MinSupport = support
		res, err := experiment.RunFig3Ctx(ctx, cfg)
		if err != nil {
			return nil, err
		}
		return map[string]figPanel{
			"ingredients": toPanel(res.Ingredients),
			"categories":  toPanel(res.Categories),
		}, nil
	})
}

// fig4Row is one cuisine's model comparison in /v1/fig4.
type fig4Row struct {
	Region string             `json:"region"`
	MAE    map[string]float64 `json:"mae"`
	Best   string             `json:"best"`
}

func (s *Server) handleFig4(w http.ResponseWriter, r *http.Request) {
	q := newQuery(r)
	sel := s.selectCorpus(q)
	replicates := q.int("replicates", s.opts.Replicates, 1, 10000)
	categories := q.bool("categories", false)
	regions := q.regions(sel)
	dists := q.bool("dists", false)
	canon := canonicalParams(
		"categories", categories,
		"dists", dists,
		"regions", strings.Join(regions, ","),
		"replicates", replicates,
	)
	s.serveComputed(w, r, q, sel.fingerprint, "/v1/fig4", canon, func(ctx context.Context) (any, error) {
		cfg := s.config(sel, replicates)
		res, err := experiment.RunFig4Ctx(ctx, cfg, experiment.Fig4Options{
			Categories: categories,
			Regions:    regions,
		})
		if err != nil {
			return nil, err
		}
		rows := make([]fig4Row, len(res.Rows))
		for i, row := range res.Rows {
			mae := make(map[string]float64, len(row.MAE))
			for kind, v := range row.MAE {
				mae[kind.String()] = v
			}
			rows[i] = fig4Row{Region: row.Region, MAE: mae, Best: row.Best.String()}
		}
		best := make(map[string]int, len(res.BestCounts))
		for kind, n := range res.BestCounts {
			best[kind.String()] = n
		}
		out := map[string]any{
			"categories":            res.Categories,
			"rows":                  rows,
			"best_counts":           best,
			"null_worst_everywhere": res.NullWorstEverywhere,
			"replicates":            replicates,
		}
		if dists {
			empirical := make(map[string][]float64, len(res.Empirical))
			for code, d := range res.Empirical {
				empirical[code] = d.Freqs
			}
			models := make(map[string]map[string][]float64, len(res.Models))
			for code, byKind := range res.Models {
				m := make(map[string][]float64, len(byKind))
				for kind, d := range byKind {
					m[kind.String()] = d.Freqs
				}
				models[code] = m
			}
			out["empirical"] = empirical
			out["models"] = models
		}
		return out, nil
	})
}

// minedSet is one frequent combination in /v1/mine.
type minedSet struct {
	Items   []string `json:"items"`
	Count   int      `json:"count"`
	Support float64  `json:"support"`
}

func (s *Server) handleMine(w http.ResponseWriter, r *http.Request) {
	q := newQuery(r)
	sel := s.selectCorpus(q)
	region := q.region(sel)
	support := q.float("support", s.opts.MinSupport, 0, 1)
	top := q.int("top", 25, 1, 100000)
	categories := q.bool("categories", false)
	canon := canonicalParams("categories", categories, "region", region, "support", support, "top", top)
	s.serveComputed(w, r, q, sel.fingerprint, "/v1/mine", canon, func(ctx context.Context) (any, error) {
		ix, err := experiment.ViewIndex(s.indexes, sel.corpus, region, categories)
		if err != nil {
			return nil, err
		}
		// MineTop builds only the first top sets; total counts them all.
		res, total, err := itemset.MineTop(ix, support, top, itemset.MineOptions{Workers: s.mineWorkers()})
		if err != nil {
			return nil, err
		}
		lex := sel.corpus.Lexicon()
		sets := make([]minedSet, 0, len(res.Sets))
		for _, set := range res.Sets {
			names := make([]string, len(set.Items))
			for j, id := range set.Items {
				if categories {
					names[j] = ingredient.Category(id).String()
				} else {
					names[j] = lex.Name(id)
				}
			}
			sets = append(sets, minedSet{Items: names, Count: set.Count, Support: set.Support(res.N)})
		}
		return map[string]any{"region": region, "total": total, "sets": sets}, nil
	})
}

// overrepRow is one ranked ingredient in /v1/overrep.
type overrepRow struct {
	Ingredient string  `json:"ingredient"`
	Category   string  `json:"category"`
	Score      float64 `json:"score"`
}

func (s *Server) handleOverrep(w http.ResponseWriter, r *http.Request) {
	q := newQuery(r)
	sel := s.selectCorpus(q)
	region := q.region(sel)
	k := q.int("k", 10, 1, 1000)
	canon := canonicalParams("k", k, "region", region)
	s.serveComputed(w, r, q, sel.fingerprint, "/v1/overrep", canon, func(ctx context.Context) (any, error) {
		// Both document-frequency tables come off shared indexes: the
		// whole-corpus one carries Eq 1's global counts, the region one
		// its numerator — no per-request corpus rescan.
		allIx, err := experiment.ViewIndex(s.indexes, sel.corpus, "", false)
		if err != nil {
			return nil, err
		}
		regionIx, err := experiment.ViewIndex(s.indexes, sel.corpus, region, false)
		if err != nil {
			return nil, err
		}
		topK, err := overrep.NewFromIndex(sel.corpus, allIx).TopKFromIndex(region, regionIx, k)
		if err != nil {
			return nil, err
		}
		lex := sel.corpus.Lexicon()
		rows := make([]overrepRow, len(topK))
		for i, res := range topK {
			rows[i] = overrepRow{
				Ingredient: lex.Name(res.ID),
				Category:   lex.CategoryOf(res.ID).String(),
				Score:      res.Score,
			}
		}
		return map[string]any{"region": region, "ingredients": rows}, nil
	})
}

func (s *Server) handleEvolve(w http.ResponseWriter, r *http.Request) {
	q := newQuery(r)
	sel := s.selectCorpus(q)
	region := q.region(sel)
	kind := q.model()
	replicates := q.int("replicates", s.opts.Replicates, 1, 10000)
	support := q.float("support", s.opts.MinSupport, 0, 1)
	canon := canonicalParams("model", kind.String(), "region", region, "replicates", replicates, "support", support)
	s.serveComputed(w, r, q, sel.fingerprint, "/v1/evolve", canon, func(ctx context.Context) (any, error) {
		cfg := s.config(sel, replicates)
		cfg.MinSupport = support
		res, err := experiment.RunEvolve(ctx, cfg, region, kind)
		if err != nil {
			return nil, err
		}
		return map[string]any{
			"region":     region,
			"model":      kind.String(),
			"replicates": replicates,
			"mae":        res.MAE,
			"empirical":  res.Empirical.Freqs,
			"modeled":    res.Model.Freqs,
		}, nil
	})
}

// --- parameter parsing -------------------------------------------------

// query is one request's parameters, parsed once. Its readers take
// parameters in the order a handler calls them and keep the first
// failure in err; after a failure every reader returns its default, so
// a handler reads all its parameters and serveComputed answers with
// err before it builds anything from them.
type query struct {
	vals url.Values
	err  error
}

// newQuery parses the request's query string. A malformed pair, such as
// one containing ';', is dropped and the parse error ignored.
func newQuery(r *http.Request) *query { return &query{vals: r.URL.Query()} }

// get returns the first value of name, or "" when it is absent or an
// earlier parameter failed.
func (q *query) get(name string) string {
	if vs := q.vals[name]; q.err == nil && len(vs) > 0 {
		return vs[0]
	}
	return ""
}

// fail records err unless an earlier parameter already failed.
func (q *query) fail(err error) {
	if q.err == nil {
		q.err = err
	}
}

// float reads a number in (lo, hi]. NaN fails the range check, since
// every comparison with it is false.
func (q *query) float(name string, def, lo, hi float64) float64 {
	raw := q.get(name)
	if raw == "" {
		return def
	}
	v, err := strconv.ParseFloat(raw, 64)
	switch {
	case err != nil:
		q.fail(badRequest("invalid %s %q: %v", name, raw, err))
	case !(v > lo && v <= hi):
		q.fail(badRequest("%s must be in (%g, %g], got %g", name, lo, hi, v))
	}
	return v
}

// int reads an integer in [lo, hi].
func (q *query) int(name string, def, lo, hi int) int {
	raw := q.get(name)
	if raw == "" {
		return def
	}
	v, err := strconv.Atoi(raw)
	switch {
	case err != nil:
		q.fail(badRequest("invalid %s %q: %v", name, raw, err))
	case v < lo || v > hi:
		q.fail(badRequest("%s must be in [%d, %d], got %d", name, lo, hi, v))
	}
	return v
}

func (q *query) bool(name string, def bool) bool {
	raw := q.get(name)
	if raw == "" {
		return def
	}
	v, err := strconv.ParseBool(raw)
	if err != nil {
		q.fail(badRequest("invalid %s %q: %v", name, raw, err))
	}
	return v
}

// region reads and validates the region parameter against the selected
// corpus; a missing region is a 400, an unknown cuisine a 404 — the
// resource (that cuisine's recipes) does not exist.
func (q *query) region(sel corpusSel) string {
	code := strings.ToUpper(strings.TrimSpace(q.get("region")))
	switch {
	case code == "":
		q.fail(badRequest("missing required parameter region"))
	case sel.corpus.RegionLen(code) == 0:
		q.fail(notFound("unknown cuisine %q", code))
	}
	return code
}

// mineWorkers resolves the worker budget a single /v1/mine computation
// may fan its Eclat prefix partitions over (the Workers option, or
// GOMAXPROCS when unset — the same resolution internal/sched applies).
func (s *Server) mineWorkers() int {
	if s.opts.Workers > 0 {
		return s.opts.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// model maps the model parameter to its evomodel.Kind; the default is
// CM-R.
func (q *query) model() evomodel.Kind {
	name := q.get("model")
	if name == "" {
		return evomodel.CMRandom
	}
	switch strings.ToUpper(strings.TrimSpace(name)) {
	case "CM-R", "CMR", "RANDOM":
		return evomodel.CMRandom
	case "CM-C", "CMC", "CATEGORY":
		return evomodel.CMCategory
	case "CM-M", "CMM", "MIXTURE":
		return evomodel.CMMixture
	case "NM", "NULL":
		return evomodel.NullModel
	}
	q.fail(badRequest("unknown model %q (use CM-R, CM-C, CM-M or NM)", name))
	return 0
}

// regions reads the comma-separated regions parameter, defaulting to
// every cuisine in the paper's Table I order, validating each code
// against the corpus. Codes are upper-cased, sorted and deduplicated,
// so every spelling of one region set shares one cache entry.
func (q *query) regions(sel corpusSel) []string {
	raw := q.get("regions")
	if raw == "" {
		return nil // RunFig4 defaults to all 25
	}
	parts := strings.Split(raw, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		code := strings.ToUpper(strings.TrimSpace(p))
		if code == "" {
			continue
		}
		if sel.corpus.RegionLen(code) == 0 {
			q.fail(notFound("unknown cuisine %q", code))
			return nil
		}
		out = append(out, code)
	}
	if len(out) == 0 {
		q.fail(badRequest("regions parameter is empty"))
		return nil
	}
	sort.Strings(out)
	return slices.Compact(out)
}
