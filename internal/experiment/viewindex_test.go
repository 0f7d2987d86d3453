package experiment

import (
	"math/rand"
	"testing"

	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/itemset"
	"cuisinevol/internal/recipe"
)

// carryCorpus returns a corpus of n random recipes over regions A and B,
// each with 2-7 distinct ingredients.
func carryCorpus(t *testing.T, rng *rand.Rand, n int) *recipe.Corpus {
	t.Helper()
	c := recipe.NewCorpus(ingredient.Builtin())
	for range n {
		addRecipe(t, rng, c, []string{"A", "B"}[rng.Intn(2)])
	}
	return c
}

func addRecipe(t *testing.T, rng *rand.Rand, c *recipe.Corpus, region string) {
	t.Helper()
	r := recipe.Recipe{Region: region}
	for _, id := range rng.Perm(c.Lexicon().Len())[:2+rng.Intn(6)] {
		r.Ingredients = append(r.Ingredients, ingredient.ID(id))
	}
	if err := c.Add(r); err != nil {
		t.Fatal(err)
	}
}

// appendTo clones parent and appends one recipe of region.
func appendTo(t *testing.T, rng *rand.Rand, parent *recipe.Corpus, region string) *recipe.Corpus {
	t.Helper()
	child := parent.Clone()
	addRecipe(t, rng, child, region)
	return child
}

func viewIndex(t *testing.T, indexes *itemset.IndexCache, c *recipe.Corpus, region string, categories bool) *itemset.Index {
	t.Helper()
	ix, err := ViewIndex(indexes, c, region, categories)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// checkBuiltFrom fails unless ix is what BuildIndex makes of c's view.
func checkBuiltFrom(t *testing.T, ix *itemset.Index, c *recipe.Corpus, region string, categories bool) {
	t.Helper()
	view := c.Region(region)
	if region == "" {
		view = c.AllView()
	}
	txs := view.Transactions()
	if categories {
		txs = view.CategoryTransactions()
	}
	want, err := itemset.BuildIndex(txs)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Fingerprint() != want.Fingerprint() || ix.N() != want.N() {
		t.Fatalf("%s categories=%t: index fingerprint %s over %d transactions, BuildIndex over the view gives %s over %d",
			region, categories, ix.Fingerprint(), ix.N(), want.Fingerprint(), want.N())
	}
}

// TestViewIndexCarriesUntouchedRegion: after an append to region B, the
// child's A views (ingredients and categories) are the parent's cached
// indexes, carried without a build and without counting their posting
// containers again, and they equal a fresh build over the child's view;
// the child's B view, which the append changed, is rebuilt.
func TestViewIndexCarriesUntouchedRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	parent := carryCorpus(t, rng, 80)
	indexes := itemset.NewIndexCache(64 << 20)
	parentA := viewIndex(t, indexes, parent, "A", false)
	parentCatA := viewIndex(t, indexes, parent, "A", true)
	parentB := viewIndex(t, indexes, parent, "B", false)

	child := appendTo(t, rng, parent, "B")
	before := indexes.Stats()
	if got := viewIndex(t, indexes, child, "A", false); got != parentA {
		t.Fatal("child's A index is not the parent's")
	}
	if got := viewIndex(t, indexes, child, "A", true); got != parentCatA {
		t.Fatal("child's A category index is not the parent's")
	}
	after := indexes.Stats()
	if after.Builds != before.Builds || after.Hits != before.Hits+2 || after.Misses != before.Misses {
		t.Fatalf("carrying two views moved builds %d -> %d, hits %d -> %d, misses %d -> %d (want +0, +2, +0)",
			before.Builds, after.Builds, before.Hits, after.Hits, before.Misses, after.Misses)
	}
	if after.ContainerArrays != before.ContainerArrays || after.ContainerBitsets != before.ContainerBitsets ||
		after.ContainerRuns != before.ContainerRuns || after.BytesSaved != before.BytesSaved {
		t.Fatalf("a carried index was counted again: containers %+v -> %+v", before, after)
	}
	if after.Entries != before.Entries+2 {
		t.Fatalf("entries %d -> %d, want the two carried views cached under the child's keys", before.Entries, after.Entries)
	}
	checkBuiltFrom(t, parentA, child, "A", false)
	checkBuiltFrom(t, parentCatA, child, "A", true)

	childB := viewIndex(t, indexes, child, "B", false)
	if childB == parentB || indexes.Stats().Builds != after.Builds+1 {
		t.Fatal("the appended-to region B was carried instead of rebuilt")
	}
	checkBuiltFrom(t, childB, child, "B", false)

	// Carrying chains: a grandchild appended to B carries A from the
	// child's key.
	grandchild := appendTo(t, rng, child, "B")
	if got := viewIndex(t, indexes, grandchild, "A", false); got != parentA {
		t.Fatal("grandchild's A index is not carried from the child")
	}
}

// TestViewIndexRebuildsAppendedRegion: an append to A rebuilds A, for
// ingredients and categories, and the whole-corpus view is never
// carried.
func TestViewIndexRebuildsAppendedRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	parent := carryCorpus(t, rng, 80)
	indexes := itemset.NewIndexCache(64 << 20)
	parentIx := map[[2]any]*itemset.Index{}
	for _, region := range []string{"A", ""} {
		for _, categories := range []bool{false, true} {
			parentIx[[2]any{region, categories}] = viewIndex(t, indexes, parent, region, categories)
		}
	}
	child := appendTo(t, rng, parent, "A")
	for _, region := range []string{"A", ""} {
		for _, categories := range []bool{false, true} {
			before := indexes.Stats().Builds
			ix := viewIndex(t, indexes, child, region, categories)
			if ix == parentIx[[2]any{region, categories}] || indexes.Stats().Builds != before+1 {
				t.Fatalf("region %q categories=%t: carried, want a build", region, categories)
			}
			checkBuiltFrom(t, ix, child, region, categories)
		}
	}
	// The whole-corpus view is not carried even when the append left
	// region A alone.
	other := appendTo(t, rng, parent, "B")
	before := indexes.Stats().Builds
	if ix := viewIndex(t, indexes, other, "", false); ix == parentIx[[2]any{"", false}] || indexes.Stats().Builds != before+1 {
		t.Fatal("the whole-corpus view was carried")
	}
}

// TestViewIndexCarryNeedsCachedParent: a parent whose indexes were
// invalidated (deleted) or evicted before the child's query leaves the
// child to build under its own key, and the parent's key is never
// filled again.
func TestViewIndexCarryNeedsCachedParent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	parent := carryCorpus(t, rng, 80)
	parentKey := itemset.IndexKey(parent.Fingerprint(), "A", false)

	t.Run("deleted", func(t *testing.T) {
		indexes := itemset.NewIndexCache(64 << 20)
		viewIndex(t, indexes, parent, "A", false)
		if indexes.InvalidateFingerprint(parent.Fingerprint()) != 1 {
			t.Fatal("invalidation dropped nothing")
		}
		child := appendTo(t, rng, parent, "B")
		before := indexes.Stats()
		ix := viewIndex(t, indexes, child, "A", false)
		after := indexes.Stats()
		if after.Builds != before.Builds+1 || after.Misses != before.Misses+1 || after.Hits != before.Hits {
			t.Fatalf("builds %d -> %d, misses %d -> %d, hits %d -> %d; want one build counted as one miss",
				before.Builds, after.Builds, before.Misses, after.Misses, before.Hits, after.Hits)
		}
		checkBuiltFrom(t, ix, child, "A", false)
		if after.Entries != 1 {
			t.Fatalf("%d entries, want only the child's", after.Entries)
		}
		if _, ok := indexes.Lookup(parentKey, ""); ok {
			t.Fatal("the deleted parent's key was filled again")
		}
	})

	t.Run("evicted", func(t *testing.T) {
		probe := viewIndex(t, itemset.NewIndexCache(64<<20), parent, "A", false)
		indexes := itemset.NewIndexCache(probe.Bytes() + probe.Bytes()/2) // room for one region index
		viewIndex(t, indexes, parent, "A", false)
		viewIndex(t, indexes, parent, "B", false) // evicts A
		if _, ok := indexes.Lookup(parentKey, ""); ok {
			t.Fatal("the budget kept both region indexes")
		}
		child := appendTo(t, rng, parent, "B")
		before := indexes.Stats().Builds
		ix := viewIndex(t, indexes, child, "A", false)
		if indexes.Stats().Builds != before+1 {
			t.Fatal("the child's A view did not build with the parent's evicted")
		}
		checkBuiltFrom(t, ix, child, "A", false)
		if _, ok := indexes.Lookup(parentKey, ""); ok {
			t.Fatal("the evicted parent's key was filled again")
		}
	})
}

// TestViewIndexOrdinaryPath: a corpus Clone did not make, and a clone
// of a corpus whose fingerprint was never computed, build their views.
func TestViewIndexOrdinaryPath(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	indexes := itemset.NewIndexCache(64 << 20)

	fresh := carryCorpus(t, rng, 60)
	viewIndex(t, indexes, fresh, "A", false)
	if indexes.Stats().Builds != 1 {
		t.Fatal("a corpus Clone did not make was not built")
	}

	// unhashed's fingerprint is only computed after the clone, so the
	// clone has no origin to carry from.
	unhashed := carryCorpus(t, rng, 60)
	child := appendTo(t, rng, unhashed, "B")
	if origin, _ := child.ClonedFrom(); origin != "" {
		t.Fatalf("clone of a never-hashed corpus reports origin %q", origin)
	}
	parentA := viewIndex(t, indexes, unhashed, "A", false)
	ix := viewIndex(t, indexes, child, "A", false)
	if ix == parentA || indexes.Stats().Builds != 3 {
		t.Fatalf("builds = %d, want 3: the clone of a never-hashed corpus builds its own view", indexes.Stats().Builds)
	}
	checkBuiltFrom(t, ix, child, "A", false)
}

// TestViewIndexWarmHitAllocs: a warm hit allocates only its key string,
// on a fresh corpus and on a clone whose views could be carried.
func TestViewIndexWarmHitAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	parent := carryCorpus(t, rng, 60)
	child := appendTo(t, rng, parent, "B")
	indexes := itemset.NewIndexCache(64 << 20)
	for _, c := range []*recipe.Corpus{parent, child} {
		viewIndex(t, indexes, c, "A", false)
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := ViewIndex(indexes, c, "A", false); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Fatalf("warm ViewIndex hit allocates %.0f times, want at most 1 (the key)", allocs)
		}
	}
}
