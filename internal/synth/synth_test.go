package synth

import (
	"math"
	"reflect"
	"testing"

	"cuisinevol/internal/cuisine"
	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/itemset"
	"cuisinevol/internal/overrep"
	"cuisinevol/internal/randx"
	"cuisinevol/internal/recipe"
)

// smallConfig generates a fast, scaled-down corpus for unit tests.
func smallConfig(seed uint64) Config {
	cfg := DefaultConfig(seed)
	cfg.RecipeScale = 0.1
	return cfg
}

func mustGenerate(t *testing.T, cfg Config) *recipe.Corpus {
	t.Helper()
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGenerateDeterministic(t *testing.T) {
	a := mustGenerate(t, smallConfig(7))
	b := mustGenerate(t, smallConfig(7))
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if !reflect.DeepEqual(a.Get(i), b.Get(i)) {
			t.Fatalf("recipe %d differs between identically seeded runs", i)
		}
	}
}

func TestGenerateSeedSensitivity(t *testing.T) {
	a := mustGenerate(t, smallConfig(1))
	b := mustGenerate(t, smallConfig(2))
	same := 0
	n := a.Len()
	if b.Len() < n {
		n = b.Len()
	}
	for i := 0; i < n; i++ {
		if reflect.DeepEqual(a.Get(i).Ingredients, b.Get(i).Ingredients) {
			same++
		}
	}
	if float64(same) > 0.02*float64(n) {
		t.Fatalf("%d/%d recipes identical across different seeds", same, n)
	}
}

func TestGenerateAllRegionsPresent(t *testing.T) {
	c := mustGenerate(t, smallConfig(3))
	if got := len(c.Regions()); got != 25 {
		t.Fatalf("corpus covers %d regions, want 25", got)
	}
}

func TestRegionRecipeCountsScale(t *testing.T) {
	cfg := smallConfig(5)
	c := mustGenerate(t, cfg)
	for _, r := range cuisine.All() {
		want := int(math.Round(float64(r.Recipes) * cfg.RecipeScale))
		if want < 8 {
			want = 8
		}
		if got := c.RegionLen(r.Code); got != want {
			t.Errorf("%s has %d recipes, want %d", r.Code, got, want)
		}
	}
}

func TestRecipeSizesBounded(t *testing.T) {
	c := mustGenerate(t, smallConfig(9))
	c.AllView().Each(func(r recipe.Recipe) bool {
		if r.Size() < cuisine.MinRecipeSize || r.Size() > cuisine.MaxRecipeSize {
			t.Fatalf("recipe size %d outside [%d, %d]", r.Size(), cuisine.MinRecipeSize, cuisine.MaxRecipeSize)
		}
		return true
	})
}

func TestRecipesAreValidSets(t *testing.T) {
	c := mustGenerate(t, smallConfig(11))
	lex := c.Lexicon()
	c.AllView().Each(func(r recipe.Recipe) bool {
		if err := r.Validate(lex); err != nil {
			t.Fatal(err)
		}
		return true
	})
}

func TestMeanSizeNearTarget(t *testing.T) {
	cfg := DefaultConfig(13)
	cfg.RecipeScale = 0.3
	c := mustGenerate(t, cfg)
	for _, r := range cuisine.All() {
		got := c.Region(r.Code).MeanSize()
		if math.Abs(got-r.MeanSize) > 0.35 {
			t.Errorf("%s mean size %v, target %v", r.Code, got, r.MeanSize)
		}
	}
}

func TestUniqueIngredientTargetsExact(t *testing.T) {
	cfg := DefaultConfig(17)
	cfg.RecipeScale = 0.25
	c := mustGenerate(t, cfg)
	for _, r := range cuisine.All() {
		if got := c.Region(r.Code).UniqueIngredients(); got != r.Ingredients {
			t.Errorf("%s unique ingredients = %d, Table I target %d", r.Code, got, r.Ingredients)
		}
	}
}

func TestCoverageOffUndershoots(t *testing.T) {
	cfg := DefaultConfig(19)
	cfg.RecipeScale = 0.05
	cfg.EnsureCoverage = false
	c := mustGenerate(t, cfg)
	under := 0
	for _, r := range cuisine.All() {
		if c.Region(r.Code).UniqueIngredients() < r.Ingredients {
			under++
		}
	}
	if under == 0 {
		t.Fatal("with coverage disabled at tiny scale, some regions must undershoot their ingredient target")
	}
}

// TestTableIOverrepresentation is the headline Table I reproduction: at
// full scale, every region's top overrepresented ingredients (Eq 1) must
// equal the paper's list as a set.
func TestTableIOverrepresentation(t *testing.T) {
	c := mustGenerate(t, DefaultConfig(42))
	allIx, err := itemset.BuildIndex(c.AllView().Transactions())
	if err != nil {
		t.Fatal(err)
	}
	a := overrep.NewFromIndex(c, allIx)
	for _, r := range cuisine.All() {
		regionIx, err := itemset.BuildIndex(c.Region(r.Code).Transactions())
		if err != nil {
			t.Fatal(err)
		}
		k := len(r.Overrepresented)
		top, err := a.TopKNamesFromIndex(r.Code, regionIx, k)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]bool{}
		for _, n := range r.Overrepresented {
			want[n] = true
		}
		for _, n := range top {
			if !want[n] {
				t.Errorf("%s: %q in computed top-%d but not in Table I list %v (got %v)",
					r.Code, n, k, r.Overrepresented, top)
			}
		}
	}
}

func TestFig1SizeDistributionShape(t *testing.T) {
	// Fig 1: recipe size distribution is unimodal ("gaussian"), bounded
	// [2, 38], aggregate mean approx 9.
	c := mustGenerate(t, DefaultConfig(23))
	sizes := c.AllView().Sizes()
	sum := 0
	counts := make([]int, cuisine.MaxRecipeSize+1)
	for _, s := range sizes {
		sum += s
		counts[s]++
	}
	mean := float64(sum) / float64(len(sizes))
	if math.Abs(mean-9) > 0.5 {
		t.Fatalf("aggregate mean recipe size = %v, paper reports ~9", mean)
	}
	// Unimodality up to small noise: counts rise to a peak then fall.
	peak := 0
	for s, c := range counts {
		if c > counts[peak] {
			peak = s
		}
	}
	if peak < 6 || peak > 12 {
		t.Fatalf("size mode at %d, expected near 9", peak)
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.RecipeScale = 0 },
		func(c *Config) { c.RecipeScale = -1 },
		func(c *Config) { c.ZipfExponent = 0 },
		func(c *Config) { c.OverrepBoost = 0 },
		func(c *Config) { c.JitterSD = -0.1 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig(1)
		mutate(&cfg)
		if _, err := Generate(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestGenerateDefaultsNilFields(t *testing.T) {
	cfg := Config{Seed: 1, RecipeScale: 0.02, ZipfExponent: 1, OverrepBoost: 1.35, JitterSD: 0.5, EnsureCoverage: true}
	c, err := Generate(cfg) // nil Lexicon and Regions must default
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Regions()) != 25 {
		t.Fatalf("defaults not applied: %d regions", len(c.Regions()))
	}
}

func TestVocabularyContainsOverrepresented(t *testing.T) {
	cfg := DefaultConfig(29)
	lex := cfg.Lexicon
	global := globalWeights(cfg)
	for _, r := range cuisine.All() {
		src := regionSource(cfg.Seed, r.Code)
		w := regionWeights(cfg, r, global, src)
		vocab := vocabulary(r.Ingredients, w)
		if len(vocab) != r.Ingredients {
			t.Fatalf("%s vocabulary size %d, want %d", r.Code, len(vocab), r.Ingredients)
		}
		inVocab := map[ingredient.ID]bool{}
		for _, id := range vocab {
			inVocab[id] = true
		}
		for _, id := range r.OverrepresentedIDs(lex) {
			if !inVocab[id] {
				t.Errorf("%s vocabulary missing overrepresented %q", r.Code, lex.Name(id))
			}
		}
	}
}

func TestRegionSourceStable(t *testing.T) {
	a := regionSource(5, "ITA")
	b := regionSource(5, "ITA")
	if a.Uint64() != b.Uint64() {
		t.Fatal("regionSource not deterministic")
	}
	c := regionSource(5, "JPN")
	d := regionSource(5, "ITA")
	if c.Uint64() == d.Uint64() {
		t.Fatal("regionSource should differ across codes")
	}
}

func TestGlobalWeightsZipfShape(t *testing.T) {
	cfg := DefaultConfig(31)
	w := globalWeights(cfg)
	if len(w) != cfg.Lexicon.Len() {
		t.Fatalf("weights length %d", len(w))
	}
	// Weights must be a permutation of the Zipf profile 1/k^s.
	maxW, minW := 0.0, math.Inf(1)
	for _, v := range w {
		if v <= 0 {
			t.Fatal("non-positive weight")
		}
		if v > maxW {
			maxW = v
		}
		if v < minW {
			minW = v
		}
	}
	if maxW != 1.0 {
		t.Fatalf("top weight = %v, want 1 (rank 1)", maxW)
	}
	wantMin := 1 / math.Pow(float64(len(w)), cfg.ZipfExponent)
	if math.Abs(minW-wantMin) > 1e-12 {
		t.Fatalf("bottom weight = %v, want %v", minW, wantMin)
	}
	// Staples are pinned at the head: salt has rank 1.
	if w[cfg.Lexicon.MustID("salt")] != 1.0 {
		t.Fatal("salt must hold the top global rank")
	}
}

func TestEnsureCoverageKeepsSetInvariant(t *testing.T) {
	// Build a pathological case: tiny recipe pool, large vocabulary.
	lex := ingredient.Builtin()
	src := randx.New(37)
	vocab := lex.IDs()[:50]
	recipes := []recipe.Recipe{
		{Region: "X", Ingredients: []ingredient.ID{vocab[0], vocab[1], vocab[2]}},
		{Region: "X", Ingredients: []ingredient.ID{vocab[0], vocab[3], vocab[4]}},
	}
	occ := make([]int, len(vocab))
	for _, r := range recipes {
		for _, id := range r.Ingredients {
			for vi, v := range vocab {
				if v == id {
					occ[vi]++
				}
			}
		}
	}
	ensureCoverage(recipes, vocab, occ, src)
	for _, r := range recipes {
		if err := r.Validate(lex); err != nil {
			t.Fatalf("coverage broke recipe invariants: %v", err)
		}
		if r.Size() != 3 {
			t.Fatalf("coverage changed recipe size to %d", r.Size())
		}
	}
}

func BenchmarkGenerateFullCorpus(b *testing.B) {
	cfg := DefaultConfig(1)
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerateRegionITA(b *testing.B) {
	cfg := DefaultConfig(1)
	ita, _ := cuisine.ByCode("ITA")
	cfg.Regions = []cuisine.Region{ita}
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSizeTailReachesMaximum(t *testing.T) {
	// The sparse heavy tail must populate sizes near the paper's
	// observed maximum of 38 at full-ish scale, without moving the mean.
	cfg := DefaultConfig(3)
	cfg.RecipeScale = 0.3
	c := mustGenerate(t, cfg)
	maxSize, sum, n := 0, 0, 0
	c.AllView().Each(func(r recipe.Recipe) bool {
		if r.Size() > maxSize {
			maxSize = r.Size()
		}
		sum += r.Size()
		n++
		return true
	})
	if maxSize < 33 {
		t.Fatalf("max recipe size %d, want a tail reaching toward 38", maxSize)
	}
	if mean := float64(sum) / float64(n); math.Abs(mean-9) > 0.6 {
		t.Fatalf("tail moved the mean to %v", mean)
	}
}

func TestSizeTailDisabled(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.RecipeScale = 0.1
	cfg.SizeTailProb = 0
	c := mustGenerate(t, cfg)
	maxSize := 0
	c.AllView().Each(func(r recipe.Recipe) bool {
		if r.Size() > maxSize {
			maxSize = r.Size()
		}
		return true
	})
	if maxSize > 26 {
		t.Fatalf("without the tail, max size should stay near the Gaussian range, got %d", maxSize)
	}
}

func TestSizeTailValidation(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.SizeTailProb = 0.5
	if _, err := Generate(cfg); err == nil {
		t.Fatal("excessive SizeTailProb accepted")
	}
	cfg.SizeTailProb = -0.1
	if _, err := Generate(cfg); err == nil {
		t.Fatal("negative SizeTailProb accepted")
	}
}
