package overrep

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/itemset"
	"cuisinevol/internal/recipe"
)

var lex = ingredient.Builtin()

func id(name string) ingredient.ID { return lex.MustID(name) }

// buildCorpus creates a corpus with exactly known document frequencies:
//
//	region A (4 recipes): tomato in 4, basil in 2, salt in 4
//	region B (6 recipes): tomato in 1, salt in 6, cumin in 3
func buildCorpus(t *testing.T) *recipe.Corpus {
	t.Helper()
	c := recipe.NewCorpus(lex)
	add := func(region string, names ...string) {
		ids := make([]ingredient.ID, len(names))
		for i, n := range names {
			ids[i] = id(n)
		}
		if err := c.Add(recipe.Recipe{Region: region, Ingredients: ids}); err != nil {
			t.Fatal(err)
		}
	}
	add("A", "tomato", "basil", "salt")
	add("A", "tomato", "basil", "salt")
	add("A", "tomato", "salt")
	add("A", "tomato", "salt")
	add("B", "tomato", "salt")
	add("B", "salt", "cumin")
	add("B", "salt", "cumin")
	add("B", "salt", "cumin")
	add("B", "salt", "onion")
	add("B", "salt", "onion")
	return c
}

// mustIndex builds the index of a transaction list.
func mustIndex(t *testing.T, txs [][]ingredient.ID) *itemset.Index {
	t.Helper()
	ix, err := itemset.BuildIndex(txs)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// indexed is a corpus with its index-backed Analysis; its methods score
// a region over that region's own index, as every caller does.
type indexed struct {
	t *testing.T
	c *recipe.Corpus
	a *Analysis
}

func newIndexed(t *testing.T, c *recipe.Corpus) indexed {
	return indexed{t, c, NewFromIndex(c, mustIndex(t, c.AllView().Transactions()))}
}

func (x indexed) region(region string) *itemset.Index {
	return mustIndex(x.t, x.c.Region(region).Transactions())
}

func (x indexed) Scores(region string) ([]float64, error) {
	return x.a.ScoresFromIndex(region, x.region(region))
}

func (x indexed) TopK(region string, k int) ([]Ranked, error) {
	return x.a.TopKFromIndex(region, x.region(region), k)
}

func (x indexed) TopKNames(region string, k int) ([]string, error) {
	return x.a.TopKNamesFromIndex(region, x.region(region), k)
}

// scanScores is Eq 1 by a plain corpus scan: the reference the index
// path must reproduce.
func scanScores(c *recipe.Corpus, region string) []float64 {
	global := c.AllView().IngredientRecipeCounts()
	view := c.Region(region)
	local := view.IngredientRecipeCounts()
	out := make([]float64, len(local))
	for id := range local {
		out[id] = float64(local[id])/float64(view.Len()) - float64(global[id])/float64(c.Len())
	}
	return out
}

func TestScoresExactValues(t *testing.T) {
	a := newIndexed(t, buildCorpus(t))
	scores, err := a.Scores("A")
	if err != nil {
		t.Fatal(err)
	}
	// tomato: 4/4 - 5/10 = 0.5
	if got := scores[id("tomato")]; math.Abs(got-0.5) > 1e-12 {
		t.Errorf("O(tomato|A) = %v, want 0.5", got)
	}
	// basil: 2/4 - 2/10 = 0.3
	if got := scores[id("basil")]; math.Abs(got-0.3) > 1e-12 {
		t.Errorf("O(basil|A) = %v, want 0.3", got)
	}
	// salt: 4/4 - 10/10 = 0 (universal ingredients cancel)
	if got := scores[id("salt")]; math.Abs(got) > 1e-12 {
		t.Errorf("O(salt|A) = %v, want 0", got)
	}
	// cumin: 0/4 - 3/10 = -0.3 (used elsewhere, absent here)
	if got := scores[id("cumin")]; math.Abs(got+0.3) > 1e-12 {
		t.Errorf("O(cumin|A) = %v, want -0.3", got)
	}
	// unused ingredient: 0 everywhere
	if got := scores[id("saffron")]; got != 0 {
		t.Errorf("O(saffron|A) = %v, want 0", got)
	}
}

func TestScoresComplementaryRegion(t *testing.T) {
	a := newIndexed(t, buildCorpus(t))
	scores, err := a.Scores("B")
	if err != nil {
		t.Fatal(err)
	}
	// tomato: 1/6 - 5/10
	want := 1.0/6 - 0.5
	if got := scores[id("tomato")]; math.Abs(got-want) > 1e-12 {
		t.Errorf("O(tomato|B) = %v, want %v", got, want)
	}
	// cumin: 3/6 - 3/10 = 0.2
	if got := scores[id("cumin")]; math.Abs(got-0.2) > 1e-12 {
		t.Errorf("O(cumin|B) = %v, want 0.2", got)
	}
}

func TestScoresSumProperty(t *testing.T) {
	// For a corpus with a single region, every score is zero: the region
	// IS the global distribution.
	c := recipe.NewCorpus(lex)
	for i := 0; i < 5; i++ {
		if err := c.Add(recipe.Recipe{Region: "ONLY", Ingredients: []ingredient.ID{id("tomato"), id("salt")}}); err != nil {
			t.Fatal(err)
		}
	}
	scores, err := newIndexed(t, c).Scores("ONLY")
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range scores {
		if s != 0 {
			t.Fatalf("single-region score for %s = %v, want 0", lex.Name(ingredient.ID(i)), s)
		}
	}
}

func TestScoresUnknownRegion(t *testing.T) {
	a := newIndexed(t, buildCorpus(t))
	if _, err := a.Scores("NOPE"); err == nil {
		t.Fatal("unknown region must error")
	}
}

func TestTopKOrdering(t *testing.T) {
	a := newIndexed(t, buildCorpus(t))
	top, err := a.TopK("A", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 3 {
		t.Fatalf("TopK returned %d entries", len(top))
	}
	if top[0].ID != id("tomato") || top[1].ID != id("basil") {
		t.Fatalf("TopK order wrong: %v %v", lex.Name(top[0].ID), lex.Name(top[1].ID))
	}
	for i := 1; i < len(top); i++ {
		if top[i-1].Score < top[i].Score {
			t.Fatal("TopK not descending")
		}
	}
}

func TestTopKNames(t *testing.T) {
	a := newIndexed(t, buildCorpus(t))
	names, err := a.TopKNames("B", 2)
	if err != nil {
		t.Fatal(err)
	}
	if names[0] != "cumin" {
		t.Fatalf("TopKNames(B) = %v, want cumin first", names)
	}
}

func TestTopKClampsToLexicon(t *testing.T) {
	a := newIndexed(t, buildCorpus(t))
	top, err := a.TopK("A", 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != lex.Len() {
		t.Fatalf("TopK clamped to %d, want %d", len(top), lex.Len())
	}
}

func TestTopKDeterministicTies(t *testing.T) {
	a := newIndexed(t, buildCorpus(t))
	t1, _ := a.TopK("A", 50)
	t2, _ := a.TopK("A", 50)
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatal("TopK not deterministic under ties")
		}
	}
}

// TestIndexPathEquivalence: the index-backed analysis — global counts
// from the whole-corpus index, per-region scores from per-region
// indexes — must reproduce a plain corpus scan of Eq 1 exactly, scores
// and rankings both.
func TestIndexPathEquivalence(t *testing.T) {
	c := buildCorpus(t)
	x := newIndexed(t, c)
	for _, region := range c.Regions() {
		want := scanScores(c, region)
		got, err := x.Scores(region)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("region %s: index-backed scores diverge from corpus scan", region)
		}
		wantTop := x.a.names(rank(want, 10))
		gotTop, err := x.TopKNames(region, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantTop, gotTop) {
			t.Fatalf("region %s: TopKNames diverge: %v vs %v", region, wantTop, gotTop)
		}
	}
	// Empty index errors like an unknown region does.
	if _, err := x.a.ScoresFromIndex("NOPE", mustIndex(t, nil)); err == nil {
		t.Fatal("empty region index must error")
	}
}

// TestRankMatchesFullSort: rank's bounded selection and its full sort
// both return the prefix of a full sort by score descending, then ID
// ascending, on scores drawn from a few values so that ties abound.
func TestRankMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		scores := make([]float64, 1+rng.Intn(lex.Len()))
		levels := 1 + rng.Intn(12)
		for i := range scores {
			scores[i] = float64(rng.Intn(levels)-levels/2) / 7
		}
		want := make([]Ranked, len(scores))
		for id, s := range scores {
			want[id] = Ranked{ID: ingredient.ID(id), Score: s}
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].Score != want[j].Score {
				return want[i].Score > want[j].Score
			}
			return want[i].ID < want[j].ID
		})
		for _, k := range []int{0, 1, 5, 25, selectMaxK, selectMaxK + 1, len(scores) - 1, len(scores), 1000} {
			got := rank(scores, k)
			n := max(0, min(k, len(scores)))
			if !reflect.DeepEqual(got, want[:n]) {
				t.Fatalf("trial %d, %d scores, k=%d: rank = %v, want %v", trial, len(scores), k, got, want[:n])
			}
		}
	}
}
