// Package experiment is the reproduction harness: one runner per table or
// figure of the paper's evaluation, and per extension experiment, each
// consuming the corpus and emitting the same rows/series the paper
// reports, optionally as text/CSV/SVG artifacts on disk. Each experiment
// has its one implementation here: the CLI only parses flags and prints
// the results, and the facade's CompareModels and the server's handlers
// call the same runners.
//
// Experiment index (see DESIGN.md §4):
//
//	RunTableI          — Table I: recipes, unique ingredients, top-5 overrepresented
//	RunFig1            — recipe size distributions per cuisine + aggregate
//	RunFig2            — category usage boxplots
//	RunFig3Ctx         — rank-frequency of ingredient (3a) and category (3b)
//	                     combinations + pairwise MAE matrices
//	RunFig4Ctx         — evolution-model comparison per cuisine (and the §VI
//	                     category-combination control)
//	RunEvolve          — one model's ensemble against one cuisine, scored with Eq 2
//	RunPairing         — food-pairing index per cuisine
//	RunHorizontalSweep — §VII migration sweep: usage homogenization
//	RunDiversity       — cuisines clustered by ingredient-usage profile
package experiment

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/itemset"
	"cuisinevol/internal/recipe"
	"cuisinevol/internal/synth"
)

// Config carries the shared knobs of all experiments.
type Config struct {
	// Seed drives corpus generation and the evolution models.
	Seed uint64
	// RecipeScale scales the corpus (1.0 = the paper's 158k recipes).
	RecipeScale float64
	// MinSupport is the frequent-combination threshold (paper: 0.05).
	MinSupport float64
	// Replicates is the evolution-model ensemble size (paper: 100).
	Replicates int
	// Workers bounds model parallelism (0 = GOMAXPROCS).
	Workers int
	// OutDir, when non-empty, receives artifacts (tables, CSV, SVG).
	OutDir string

	// corpus is generated lazily and shared across experiments.
	corpus *recipe.Corpus
	// indexes caches prebuilt corpus indexes across experiments (and,
	// when installed by the server, across requests). Created lazily.
	indexes *itemset.IndexCache
}

// DefaultConfig returns the paper's parameters at full scale.
func DefaultConfig(seed uint64) *Config {
	return &Config{
		Seed:        seed,
		RecipeScale: 1.0,
		MinSupport:  0.05,
		Replicates:  100,
	}
}

// minSupport is MinSupport, or the paper's 0.05 when it is unset.
func (c *Config) minSupport() float64 {
	if c.MinSupport == 0 {
		return 0.05
	}
	return c.MinSupport
}

// replicates is Replicates, or the paper's 100 when it is unset.
func (c *Config) replicates() int {
	if c.Replicates == 0 {
		return 100
	}
	return c.Replicates
}

// Corpus returns the shared synthetic corpus, generating it on first use.
func (c *Config) Corpus() (*recipe.Corpus, error) {
	if c.corpus != nil {
		return c.corpus, nil
	}
	scale := c.RecipeScale
	if scale == 0 {
		scale = 1.0
	}
	gen := synth.DefaultConfig(c.Seed)
	gen.RecipeScale = scale
	corpus, err := synth.Generate(gen)
	if err != nil {
		return nil, fmt.Errorf("experiment: generating corpus: %w", err)
	}
	c.corpus = corpus
	return corpus, nil
}

// SetCorpus installs a pre-built corpus (e.g. loaded from disk),
// bypassing synthetic generation.
func (c *Config) SetCorpus(corpus *recipe.Corpus) { c.corpus = corpus }

// defaultIndexBudget bounds the retained bytes of prebuilt corpus
// indexes when no shared cache was installed with SetIndexes.
const defaultIndexBudget = 64 << 20

// Indexes returns the config's corpus-index cache, creating a private
// one on first use. Pipelines reach it through ViewIndex, so a cache
// shared via SetIndexes converges with every other layer indexing the
// same corpus.
func (c *Config) Indexes() *itemset.IndexCache {
	if c.indexes == nil {
		c.indexes = itemset.NewIndexCache(defaultIndexBudget)
	}
	return c.indexes
}

// SetIndexes installs a shared corpus-index cache (e.g. the serving
// layer's), so pipeline runs reuse indexes built by request handlers
// and vice versa.
func (c *Config) SetIndexes(indexes *itemset.IndexCache) { c.indexes = indexes }

// ViewIndex returns the index of one corpus view from indexes, building
// and caching it on first use: region "" is the whole corpus, and
// categories selects the view's category transactions. It is the one
// rule from a view to its cache entry, keyed by itemset.IndexKey over
// the corpus fingerprint. The server, the CLI, the facade and the
// pipelines all go through it, so a /v1/mine request, a Table I run and
// a Fig 3 panel over the same view share one build. The view itself is
// only built on a miss, and a warm hit allocates only its key.
//
// A region view that an append left untouched is carried, not rebuilt:
// a corpus cloned from fingerprint F after n recipes, none of whose
// recipes past n is in the region, has exactly F's view of the region,
// so on a miss the index cached for F's view is cached under this
// corpus's key too (carryOrigin). The whole-corpus view is never
// carried; the server derives it from its live head instead.
func ViewIndex(indexes *itemset.IndexCache, corpus *recipe.Corpus, region string, categories bool) (*itemset.Index, error) {
	key := itemset.IndexKey(corpus.Fingerprint(), region, categories)
	if ix, ok := indexes.Lookup(key, carryOrigin(corpus, region)); ok {
		return ix, nil
	}
	return indexes.Get(key, func() ([][]ingredient.ID, error) {
		view := corpus.Region(region)
		if region == "" {
			view = corpus.AllView()
		}
		if categories {
			return view.CategoryTransactions(), nil
		}
		return view.Transactions(), nil
	})
}

// carryOrigin returns the fingerprint of the corpus this one was cloned
// from when its view of region is the same in both, or "". Recipe IDs
// are corpus positions and a region lists its recipes in order, so the
// check is O(1): the region's last recipe lies before the clone point.
func carryOrigin(corpus *recipe.Corpus, region string) string {
	origin, n := corpus.ClonedFrom()
	if origin == "" || region == "" || n >= corpus.Len() {
		return ""
	}
	if view := corpus.Region(region); view.Len() > 0 && view.At(view.Len()-1).ID >= n {
		return ""
	}
	return origin
}

// artifact opens an artifact file under OutDir; the caller must close it.
// It returns (nil, nil) when OutDir is empty (artifacts disabled).
func (c *Config) artifact(name string) (*os.File, error) {
	if c.OutDir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(c.OutDir, 0o755); err != nil {
		return nil, fmt.Errorf("experiment: creating %s: %w", c.OutDir, err)
	}
	f, err := os.Create(filepath.Join(c.OutDir, name))
	if err != nil {
		return nil, fmt.Errorf("experiment: creating artifact %s: %w", name, err)
	}
	return f, nil
}

// writeArtifact writes an artifact through the given render function when
// OutDir is set; it is a no-op otherwise.
func (c *Config) writeArtifact(name string, render func(io.Writer) error) error {
	f, err := c.artifact(name)
	if err != nil {
		return err
	}
	if f == nil {
		return nil
	}
	defer f.Close()
	if err := render(f); err != nil {
		return fmt.Errorf("experiment: writing %s: %w", name, err)
	}
	return f.Close()
}
