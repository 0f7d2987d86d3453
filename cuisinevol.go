// Package cuisinevol reproduces "Computational models for the evolution
// of world cuisines" (Tuwani, Sahoo, Singh & Bagler, ICDE 2019) as a Go
// library: a 25-cuisine recipe corpus substrate, the paper's statistical
// analyses (ingredient overrepresentation, recipe size distributions,
// category profiles, frequent-combination rank-frequency invariance), and
// the culinary evolution models (CM-R, CM-C, CM-M and the null model)
// with their evaluation harness.
//
// The package is a facade over the subsystem packages:
//
//	internal/ingredient — 721-entity lexicon, 21 categories
//	internal/textnorm   — free-text mention resolution (aliasing protocol)
//	internal/cuisine    — the 25 regions and Table I calibration targets
//	internal/recipe     — corpus store, views, serialization
//	internal/synth      — calibrated synthetic corpus generator
//	internal/overrep    — Eq 1 overrepresentation metric
//	internal/itemset    — Apriori and FP-Growth frequent-itemset mining
//	internal/rankfreq   — rank-frequency distributions and Eq 2
//	internal/catprofile — Fig 2 category composition
//	internal/evomodel   — Algorithm 1 and the model ensemble runner
//	internal/experiment — per-table/figure reproduction harness
//
// Quick start:
//
//	corpus, err := cuisinevol.GenerateCorpus(42, 1.0)
//	top, err := cuisinevol.Overrepresented(corpus, "ITA", 5)
//	cmp, err := cuisinevol.CompareModels(corpus, "ITA", cuisinevol.CompareOptions{})
package cuisinevol

import (
	"fmt"
	"io"
	"sync"

	"cuisinevol/internal/catprofile"
	"cuisinevol/internal/cuisine"
	"cuisinevol/internal/evomodel"
	"cuisinevol/internal/experiment"
	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/itemset"
	"cuisinevol/internal/overrep"
	"cuisinevol/internal/rankfreq"
	"cuisinevol/internal/recipe"
	"cuisinevol/internal/synth"
	"cuisinevol/internal/textnorm"
)

// Re-exported core types. These aliases make the internal subsystem types
// usable through the public API.
type (
	// Corpus is an indexed recipe collection (see internal/recipe).
	Corpus = recipe.Corpus
	// Recipe is a single recipe record.
	Recipe = recipe.Recipe
	// View is a read-only per-cuisine subset of a corpus.
	View = recipe.View
	// Lexicon is the canonical ingredient entity space.
	Lexicon = ingredient.Lexicon
	// Ingredient is one lexicon entity.
	Ingredient = ingredient.Ingredient
	// IngredientID identifies a lexicon entity.
	IngredientID = ingredient.ID
	// Category is one of the paper's 21 ingredient categories.
	Category = ingredient.Category
	// Region describes one of the 25 geo-cultural regions.
	Region = cuisine.Region
	// ModelKind selects an evolution model variant.
	ModelKind = evomodel.Kind
	// ModelParams parameterizes one evolution-model run.
	ModelParams = evomodel.Params
	// Distribution is a rank-frequency series.
	Distribution = rankfreq.Distribution
	// MiningResult holds frequent itemsets.
	MiningResult = itemset.Result
	// ExperimentConfig configures the reproduction harness.
	ExperimentConfig = experiment.Config
)

// Evolution model kinds (paper §V).
const (
	CMRandom   = evomodel.CMRandom
	CMCategory = evomodel.CMCategory
	CMMixture  = evomodel.CMMixture
	NullModel  = evomodel.NullModel
)

// BuiltinLexicon returns the built-in 721-entity ingredient lexicon with
// the paper's 21 categories and 96 compound ingredients.
func BuiltinLexicon() *Lexicon { return ingredient.Builtin() }

// Regions returns the paper's 25 geo-cultural regions with their Table I
// calibration targets.
func Regions() []Region { return cuisine.All() }

// RegionByCode resolves a region code such as "ITA" (case-insensitive).
func RegionByCode(code string) (Region, error) { return cuisine.ByCode(code) }

// GenerateCorpus builds the synthetic corpus substituting for the paper's
// 158,544 scraped recipes. scale 1.0 reproduces the full Table I recipe
// counts; smaller values generate proportionally fewer recipes.
func GenerateCorpus(seed uint64, scale float64) (*Corpus, error) {
	cfg := synth.DefaultConfig(seed)
	cfg.RecipeScale = scale
	return synth.Generate(cfg)
}

// ReadCorpusJSONL loads a corpus previously written with
// WriteCorpusJSONL.
func ReadCorpusJSONL(r io.Reader) (*Corpus, error) {
	return recipe.ReadJSONL(r, ingredient.Builtin())
}

// WriteCorpusJSONL streams the corpus as JSON Lines.
func WriteCorpusJSONL(c *Corpus, w io.Writer) error { return c.WriteJSONL(w) }

// ResolveMention maps a free-text ingredient mention ("2 cups chopped
// fresh basil") to a lexicon entity via the aliasing protocol.
func ResolveMention(mention string) (IngredientID, bool) {
	return defaultNormalizer().Resolve(mention)
}

// ResolveMentions resolves a list of mentions into a duplicate-free
// ingredient set, returning the number of unresolvable mentions.
func ResolveMentions(mentions []string) ([]IngredientID, int) {
	return defaultNormalizer().ResolveAll(mentions)
}

var (
	normalizerOnce sync.Once
	normalizer     *textnorm.Normalizer
)

func defaultNormalizer() *textnorm.Normalizer {
	normalizerOnce.Do(func() {
		normalizer = textnorm.NewNormalizer(ingredient.Builtin())
	})
	return normalizer
}

// sharedIndexes caches prebuilt corpus indexes across all facade calls.
// Entries are keyed by corpus fingerprint, so mining two different
// corpora (or the same corpus loaded twice) never aliases; mining the
// same region of the same corpus twice pays the index build only once.
var sharedIndexes = itemset.NewIndexCache(64 << 20)

// viewIndex returns the prebuilt index for one corpus view, building
// and caching it on first use. The key matches the serving layer's and
// the experiment harness's, so any layer's build serves the others.
func viewIndex(c *Corpus, region string, categories bool) (*itemset.Index, error) {
	key := itemset.IndexKey(c.Fingerprint(), region, categories)
	return sharedIndexes.Get(key, func() ([][]ingredient.ID, error) {
		view := c.Region(region)
		if region == "" {
			view = c.AllView()
		}
		if categories {
			return view.CategoryTransactions(), nil
		}
		return view.Transactions(), nil
	})
}

// RankedIngredient pairs an ingredient name with its Eq 1 score.
type RankedIngredient struct {
	Name  string
	Score float64
}

// Overrepresented returns the region's top-k overrepresented ingredients
// under the paper's Eq 1 metric. Document frequencies come off the
// shared corpus indexes, so repeated calls rescan nothing.
func Overrepresented(c *Corpus, region string, k int) ([]RankedIngredient, error) {
	allIx, err := viewIndex(c, "", false)
	if err != nil {
		return nil, err
	}
	regionIx, err := viewIndex(c, region, false)
	if err != nil {
		return nil, err
	}
	analysis := overrep.NewFromIndex(c, allIx)
	top, err := analysis.TopKFromIndex(region, regionIx, k)
	if err != nil {
		return nil, err
	}
	out := make([]RankedIngredient, len(top))
	for i, r := range top {
		out[i] = RankedIngredient{Name: c.Lexicon().Name(r.ID), Score: r.Score}
	}
	return out, nil
}

// MineCombinations mines the frequent ingredient combinations (size >= 1,
// support >= minSupport) of a cuisine, per the paper's §IV. The view's
// prebuilt index is cached across calls, so re-mining the same cuisine
// at another threshold skips straight to the query phase; the mining
// kernel is selected adaptively from the index's stats
// (itemset.Index.ChooseKernel). For explicit kernel control, call
// itemset.MineIndexed with MineOptions.Kernel set.
func MineCombinations(c *Corpus, region string, minSupport float64) (*MiningResult, error) {
	ix, err := viewIndex(c, region, false)
	if err != nil {
		return nil, err
	}
	return itemset.MineIndexed(ix, minSupport, itemset.MineOptions{})
}

// MineCategoryCombinations mines frequent combinations of ingredient
// categories (Fig 3b), through the same shared index cache as
// MineCombinations.
func MineCategoryCombinations(c *Corpus, region string, minSupport float64) (*MiningResult, error) {
	ix, err := viewIndex(c, region, true)
	if err != nil {
		return nil, err
	}
	return itemset.MineIndexed(ix, minSupport, itemset.MineOptions{})
}

// RankFrequency converts a mining result into the normalized
// rank-frequency distribution of Fig 3.
func RankFrequency(label string, res *MiningResult) Distribution {
	return rankfreq.FromResult(label, res)
}

// DistributionDistance computes the paper's Eq 2 between two
// rank-frequency distributions (a mean of squared errors over shared
// ranks, called MAE in the paper).
func DistributionDistance(a, b Distribution) (float64, error) {
	return rankfreq.PaperMAE(a, b)
}

// CategoryUsage returns the average number of ingredients per recipe from
// each category for the region (one Fig 2 column).
func CategoryUsage(c *Corpus, region string) ([ingredient.NumCategories]float64, error) {
	p, err := catprofile.New(c.Region(region))
	if err != nil {
		return [ingredient.NumCategories]float64{}, err
	}
	return p.Means(), nil
}

// RunModel executes one evolution-model run with the paper's per-cuisine
// parameters derived from the corpus, returning the evolved recipes as
// sorted ingredient-ID transactions.
func RunModel(c *Corpus, region string, kind ModelKind, seed uint64) ([][]IngredientID, error) {
	view := c.Region(region)
	if view.Len() == 0 {
		return nil, fmt.Errorf("cuisinevol: region %q has no recipes", region)
	}
	return evomodel.Run(evomodel.ParamsForView(view, kind, seed), c.Lexicon())
}

// CompareOptions configures CompareModels.
type CompareOptions struct {
	// Kinds to compare; default all four models.
	Kinds []ModelKind
	// Replicates per model (paper: 100; default 100).
	Replicates int
	// MinSupport for combination mining (default 0.05).
	MinSupport float64
	// Categories switches to category combinations (§VI control).
	Categories bool
	// Seed for the model ensembles (default 1).
	Seed uint64
	// Workers bounds parallelism (0 = GOMAXPROCS).
	Workers int
}

// ModelComparison is the outcome of CompareModels for one cuisine.
type ModelComparison struct {
	Region    string
	Empirical Distribution
	Models    map[ModelKind]Distribution
	MAE       map[ModelKind]float64
	Best      ModelKind
}

// CompareModels reproduces one cuisine's slice of Fig 4: empirical
// rank-frequency distribution vs each model's replicate-aggregated one,
// scored with Eq 2.
func CompareModels(c *Corpus, region string, opts CompareOptions) (*ModelComparison, error) {
	view := c.Region(region)
	if view.Len() == 0 {
		return nil, fmt.Errorf("cuisinevol: region %q has no recipes", region)
	}
	kinds := opts.Kinds
	if len(kinds) == 0 {
		kinds = evomodel.Kinds()
	}
	replicates := opts.Replicates
	if replicates == 0 {
		replicates = 100
	}
	minSupport := opts.MinSupport
	if minSupport == 0 {
		minSupport = 0.05
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}

	ix, err := viewIndex(c, region, opts.Categories)
	if err != nil {
		return nil, err
	}
	mined, err := itemset.MineSpectrum(ix, minSupport, itemset.MineOptions{Workers: opts.Workers})
	if err != nil {
		return nil, err
	}
	cmp := &ModelComparison{
		Region:    region,
		Empirical: rankfreq.FromSpectrum(region, mined),
		Models:    make(map[ModelKind]Distribution, len(kinds)),
		MAE:       make(map[ModelKind]float64, len(kinds)),
	}
	best := -1.0
	base := evomodel.ParamsForView(view, kinds[0], seed)
	for _, kind := range kinds {
		params := base
		params.Kind = kind
		dist, err := evomodel.RunEnsemble(evomodel.EnsembleConfig{
			Params:     params,
			Replicates: replicates,
			MinSupport: minSupport,
			Categories: opts.Categories,
			Workers:    opts.Workers,
		}, c.Lexicon())
		if err != nil {
			return nil, fmt.Errorf("cuisinevol: %s/%v: %w", region, kind, err)
		}
		mae, err := rankfreq.PaperMAE(cmp.Empirical, dist)
		if err != nil {
			return nil, fmt.Errorf("cuisinevol: %s/%v: %w", region, kind, err)
		}
		cmp.Models[kind] = dist
		cmp.MAE[kind] = mae
		if best < 0 || mae < best {
			best = mae
			cmp.Best = kind
		}
	}
	return cmp, nil
}
