package server

import (
	"context"
	"net/http"
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
	"cuisinevol/internal/rankfreq"
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
	sel, err := s.selectCorpus(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.serveComputed(w, r, sel.fingerprint, "/v1/cuisines", "", func(ctx context.Context) (any, error) {
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
	sel, err := s.selectCorpus(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.serveComputed(w, r, sel.fingerprint, "/v1/table1", "", func(ctx context.Context) (any, error) {
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
	sel, err := s.selectCorpus(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.serveComputed(w, r, sel.fingerprint, "/v1/fig1", "", func(ctx context.Context) (any, error) {
		return experiment.RunFig1(s.config(sel, s.opts.Replicates))
	})
}

func (s *Server) handleFig2(w http.ResponseWriter, r *http.Request) {
	sel, err := s.selectCorpus(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.serveComputed(w, r, sel.fingerprint, "/v1/fig2", "", func(ctx context.Context) (any, error) {
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
	sel, err := s.selectCorpus(r)
	support, serr := parseFloat(r, "support", s.opts.MinSupport, 0, 1)
	if err = firstErr(err, serr); err != nil {
		s.writeError(w, err)
		return
	}
	canon := canonicalParams("support", support)
	s.serveComputed(w, r, sel.fingerprint, "/v1/fig3", canon, func(ctx context.Context) (any, error) {
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
	sel, err := s.selectCorpus(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	replicates, err := parseInt(r, "replicates", s.opts.Replicates, 1, 10000)
	categories, cerr := parseBool(r, "categories", false)
	regions, rerr := parseRegions(r, sel.corpus.Regions())
	dists, derr := parseBool(r, "dists", false)
	if err = firstErr(err, cerr, rerr, derr); err != nil {
		s.writeError(w, err)
		return
	}
	canon := canonicalParams(
		"categories", categories,
		"dists", dists,
		"regions", strings.Join(regions, ","),
		"replicates", replicates,
	)
	s.serveComputed(w, r, sel.fingerprint, "/v1/fig4", canon, func(ctx context.Context) (any, error) {
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
	sel, err := s.selectCorpus(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	region, err := parseRegion(r, sel)
	support, serr := parseFloat(r, "support", s.opts.MinSupport, 0, 1)
	top, terr := parseInt(r, "top", 25, 1, 100000)
	categories, cerr := parseBool(r, "categories", false)
	kernel, kerr := parseKernel(r)
	if err = firstErr(err, serr, terr, cerr, kerr); err != nil {
		s.writeError(w, err)
		return
	}
	// The kernel is part of the cache key even though every kernel
	// returns byte-identical bodies: the key addresses the computation
	// that was requested, and collapsing kernels in the key would make
	// an explicit kernel=eclat request silently serve an fpgrowth
	// entry — correct bytes, wrong observable (and vice versa). The
	// handler tests pin both properties: identical bodies, distinct
	// keys.
	canon := canonicalParams("categories", categories, "kernel", kernel.String(), "region", region, "support", support, "top", top)
	s.serveComputed(w, r, sel.fingerprint, "/v1/mine", canon, func(ctx context.Context) (any, error) {
		ix, err := s.viewIndex(sel, region, categories)
		if err != nil {
			return nil, err
		}
		// MineTop builds only the first top sets; total counts them all.
		res, total, err := itemset.MineTop(ix, support, top, itemset.MineOptions{Kernel: kernel, Workers: s.mineWorkers()})
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
	sel, err := s.selectCorpus(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	region, err := parseRegion(r, sel)
	k, kerr := parseInt(r, "k", 10, 1, 1000)
	if err = firstErr(err, kerr); err != nil {
		s.writeError(w, err)
		return
	}
	canon := canonicalParams("k", k, "region", region)
	s.serveComputed(w, r, sel.fingerprint, "/v1/overrep", canon, func(ctx context.Context) (any, error) {
		// Both document-frequency tables come off shared indexes: the
		// whole-corpus one carries Eq 1's global counts, the region one
		// its numerator — no per-request corpus rescan.
		allIx, err := s.viewIndex(sel, "", false)
		if err != nil {
			return nil, err
		}
		regionIx, err := s.viewIndex(sel, region, false)
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
	sel, err := s.selectCorpus(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	region, err := parseRegion(r, sel)
	model := r.URL.Query().Get("model")
	if model == "" {
		model = "CM-R"
	}
	kind, merr := parseModelKind(model)
	replicates, rerr := parseInt(r, "replicates", s.opts.Replicates, 1, 10000)
	support, serr := parseFloat(r, "support", s.opts.MinSupport, 0, 1)
	if err = firstErr(err, merr, rerr, serr); err != nil {
		s.writeError(w, err)
		return
	}
	canon := canonicalParams("model", kind.String(), "region", region, "replicates", replicates, "support", support)
	s.serveComputed(w, r, sel.fingerprint, "/v1/evolve", canon, func(ctx context.Context) (any, error) {
		view := sel.corpus.Region(region)
		ix, err := s.viewIndex(sel, region, false)
		if err != nil {
			return nil, err
		}
		empirical, err := itemset.MineSpectrum(ix, support, itemset.MineOptions{})
		if err != nil {
			return nil, err
		}
		emp := rankfreq.FromSpectrum(region, empirical)
		dist, err := evomodel.RunEnsembleCtx(ctx, evomodel.EnsembleConfig{
			Params:     evomodel.ParamsForView(view, kind, s.opts.Seed),
			Replicates: replicates,
			MinSupport: support,
			Workers:    s.opts.Workers,
		}, sel.corpus.Lexicon())
		if err != nil {
			return nil, err
		}
		mae, err := rankfreq.PaperMAE(emp, dist)
		if err != nil {
			return nil, err
		}
		return map[string]any{
			"region":     region,
			"model":      kind.String(),
			"replicates": replicates,
			"mae":        mae,
			"empirical":  emp.Freqs,
			"modeled":    dist.Freqs,
		}, nil
	})
}

// --- parameter parsing -------------------------------------------------

// firstErr returns the first non-nil error.
func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func parseFloat(r *http.Request, name string, def, lo, hi float64) (float64, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, badRequest("invalid %s %q: %v", name, raw, err)
	}
	if v <= lo || v > hi {
		return 0, badRequest("%s must be in (%g, %g], got %g", name, lo, hi, v)
	}
	return v, nil
}

func parseInt(r *http.Request, name string, def, lo, hi int) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, badRequest("invalid %s %q: %v", name, raw, err)
	}
	if v < lo || v > hi {
		return 0, badRequest("%s must be in [%d, %d], got %d", name, lo, hi, v)
	}
	return v, nil
}

func parseBool(r *http.Request, name string, def bool) (bool, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.ParseBool(raw)
	if err != nil {
		return false, badRequest("invalid %s %q: %v", name, raw, err)
	}
	return v, nil
}

// parseRegion reads and validates the region parameter against the
// selected corpus; a missing region is a 400, an unknown cuisine a 404
// — the resource (that cuisine's recipes) does not exist.
func parseRegion(r *http.Request, sel corpusSel) (string, error) {
	code := strings.ToUpper(strings.TrimSpace(r.URL.Query().Get("region")))
	if code == "" {
		return "", badRequest("missing required parameter region")
	}
	if sel.corpus.Region(code).Len() == 0 {
		return "", notFound("unknown cuisine %q", code)
	}
	return code, nil
}

// parseKernel reads the mining-kernel parameter; the default is
// adaptive selection.
func parseKernel(r *http.Request) (itemset.Kernel, error) {
	raw := r.URL.Query().Get("kernel")
	k, err := itemset.ParseKernel(raw)
	if err != nil {
		return 0, badRequest("invalid kernel %q (use auto, fpgrowth, eclat or apriori)", raw)
	}
	return k, nil
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

// parseModelKind maps a model name to its evomodel.Kind.
func parseModelKind(s string) (evomodel.Kind, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "CM-R", "CMR", "RANDOM":
		return evomodel.CMRandom, nil
	case "CM-C", "CMC", "CATEGORY":
		return evomodel.CMCategory, nil
	case "CM-M", "CMM", "MIXTURE":
		return evomodel.CMMixture, nil
	case "NM", "NULL":
		return evomodel.NullModel, nil
	}
	return 0, badRequest("unknown model %q (use CM-R, CM-C, CM-M or NM)", s)
}

// parseRegions reads the comma-separated regions parameter, defaulting
// to every cuisine in the paper's Table I order, validating each code
// against the corpus. Codes are upper-cased, sorted and deduplicated,
// so every spelling of one region set shares one cache entry.
func parseRegions(r *http.Request, known []string) ([]string, error) {
	raw := r.URL.Query().Get("regions")
	if raw == "" {
		return nil, nil // RunFig4 defaults to all 25
	}
	knownSet := make(map[string]bool, len(known))
	for _, code := range known {
		knownSet[code] = true
	}
	parts := strings.Split(raw, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		code := strings.ToUpper(strings.TrimSpace(p))
		if code == "" {
			continue
		}
		if !knownSet[code] {
			return nil, notFound("unknown cuisine %q", code)
		}
		out = append(out, code)
	}
	if len(out) == 0 {
		return nil, badRequest("regions parameter is empty")
	}
	sort.Strings(out)
	return slices.Compact(out), nil
}
