package recipe

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"cuisinevol/internal/ingredient"
)

var lex = ingredient.Builtin()

func id(name string) ingredient.ID { return lex.MustID(name) }

func sampleCorpus(t *testing.T) *Corpus {
	t.Helper()
	c := NewCorpus(lex)
	add := func(region string, names ...string) {
		ids := make([]ingredient.ID, len(names))
		for i, n := range names {
			ids[i] = id(n)
		}
		if err := c.Add(Recipe{Region: region, Continent: "X", Ingredients: ids}); err != nil {
			t.Fatal(err)
		}
	}
	add("ITA", "tomato", "basil", "olive oil", "garlic")
	add("ITA", "tomato", "parmesan cheese", "spaghetti")
	add("ITA", "flour", "egg", "butter")
	add("JPN", "soybean sauce", "ginger", "sesame")
	add("JPN", "rice", "soybean sauce")
	return c
}

func TestRecipeSizeAndHasIngredient(t *testing.T) {
	r := Recipe{Region: "ITA", Ingredients: []ingredient.ID{id("tomato"), id("basil")}}
	if r.Size() != 2 {
		t.Fatalf("Size = %d", r.Size())
	}
	if !r.HasIngredient(id("tomato")) || r.HasIngredient(id("salt")) {
		t.Fatal("HasIngredient wrong")
	}
}

func TestRecipeCategories(t *testing.T) {
	r := Recipe{Region: "ITA", Ingredients: []ingredient.ID{id("tomato"), id("basil"), id("cherry tomato")}}
	cats := r.Categories(lex)
	want := []ingredient.Category{ingredient.Vegetable, ingredient.Herb}
	// Categories are returned in ascending order.
	if !reflect.DeepEqual(cats, want) {
		t.Fatalf("Categories = %v, want %v", cats, want)
	}
	counts := r.CategoryCounts(lex)
	if counts[ingredient.Vegetable] != 2 || counts[ingredient.Herb] != 1 {
		t.Fatalf("CategoryCounts = %v", counts)
	}
}

func TestValidate(t *testing.T) {
	good := Recipe{Region: "ITA", Ingredients: []ingredient.ID{id("tomato")}}
	if err := good.Validate(lex); err != nil {
		t.Fatal(err)
	}
	cases := []Recipe{
		{Region: "", Ingredients: []ingredient.ID{id("tomato")}},
		{Region: "ITA"},
		{Region: "ITA", Ingredients: []ingredient.ID{id("tomato"), id("tomato")}},
		{Region: "ITA", Ingredients: []ingredient.ID{ingredient.ID(100000)}},
		{Region: "ITA", Ingredients: []ingredient.ID{-1}},
	}
	for i, r := range cases {
		if err := r.Validate(lex); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestCorpusAddAssignsIDs(t *testing.T) {
	c := sampleCorpus(t)
	if c.Len() != 5 {
		t.Fatalf("Len = %d", c.Len())
	}
	for i := 0; i < c.Len(); i++ {
		if c.Get(i).ID != i {
			t.Fatalf("recipe %d has ID %d", i, c.Get(i).ID)
		}
	}
}

func TestCorpusAddRejectsInvalid(t *testing.T) {
	c := NewCorpus(lex)
	if err := c.Add(Recipe{Region: "ITA"}); err == nil {
		t.Fatal("invalid recipe accepted")
	}
	if c.Len() != 0 {
		t.Fatal("failed add must not grow the corpus")
	}
}

func TestRegionsAndViews(t *testing.T) {
	c := sampleCorpus(t)
	if got := c.Regions(); !reflect.DeepEqual(got, []string{"ITA", "JPN"}) {
		t.Fatalf("Regions = %v", got)
	}
	if c.RegionLen("ITA") != 3 || c.RegionLen("JPN") != 2 || c.RegionLen("FRA") != 0 {
		t.Fatal("RegionLen wrong")
	}
	ita := c.Region("ITA")
	if ita.Len() != 3 || ita.Region() != "ITA" {
		t.Fatalf("view: %d %s", ita.Len(), ita.Region())
	}
	all := c.AllView()
	if all.Len() != 5 || all.Region() != "" {
		t.Fatal("AllView wrong")
	}
}

func TestViewSizesAndMean(t *testing.T) {
	c := sampleCorpus(t)
	ita := c.Region("ITA")
	if got := ita.Sizes(); !reflect.DeepEqual(got, []int{4, 3, 3}) {
		t.Fatalf("Sizes = %v", got)
	}
	if got := ita.MeanSize(); got != 10.0/3 {
		t.Fatalf("MeanSize = %v", got)
	}
	if got := c.Region("NONE").MeanSize(); got != 0 {
		t.Fatalf("empty view MeanSize = %v", got)
	}
}

func TestViewEachEarlyStop(t *testing.T) {
	c := sampleCorpus(t)
	n := 0
	c.AllView().Each(func(Recipe) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Fatalf("Each visited %d recipes, want 2", n)
	}
}

func TestIngredientRecipeCounts(t *testing.T) {
	c := sampleCorpus(t)
	counts := c.Region("ITA").IngredientRecipeCounts()
	if counts[id("tomato")] != 2 || counts[id("basil")] != 1 || counts[id("soybean sauce")] != 0 {
		t.Fatal("counts wrong")
	}
}

func TestUniqueIngredients(t *testing.T) {
	c := sampleCorpus(t)
	if got := c.Region("ITA").UniqueIngredients(); got != 9 {
		t.Fatalf("ITA unique = %d, want 9", got)
	}
	if got := c.Region("JPN").UniqueIngredients(); got != 4 {
		t.Fatalf("JPN unique = %d, want 4", got)
	}
	used := c.Region("JPN").UsedIngredientIDs()
	if len(used) != 4 {
		t.Fatalf("UsedIngredientIDs = %v", used)
	}
	for i := 1; i < len(used); i++ {
		if used[i-1] >= used[i] {
			t.Fatal("UsedIngredientIDs must be ascending")
		}
	}
}

func TestTransactionsSorted(t *testing.T) {
	c := sampleCorpus(t)
	txs := c.Region("ITA").Transactions()
	if len(txs) != 3 {
		t.Fatalf("got %d transactions", len(txs))
	}
	for _, tx := range txs {
		for i := 1; i < len(tx); i++ {
			if tx[i-1] >= tx[i] {
				t.Fatalf("transaction not sorted: %v", tx)
			}
		}
	}
	// Mutating the transaction must not corrupt the corpus.
	txs[0][0] = 9999
	if c.Region("ITA").At(0).Ingredients[0] == 9999 {
		t.Fatal("Transactions must copy")
	}
}

// TestTransactionsMatchPerRecipeCopies: the arena-carved transactions
// equal a sorted copy of each recipe's ingredients, and its category
// set, and appending to one transaction leaves the next unchanged.
func TestTransactionsMatchPerRecipeCopies(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := corpusOf(t, randomRecipes(rng, 200))
	for _, region := range c.Regions() {
		view := c.Region(region)
		txs, cats := view.Transactions(), view.CategoryTransactions()
		if len(txs) != view.Len() || len(cats) != view.Len() {
			t.Fatalf("%s: %d and %d transactions for %d recipes", region, len(txs), len(cats), view.Len())
		}
		for i := range txs {
			want := append([]ingredient.ID(nil), view.At(i).Ingredients...)
			sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
			if !reflect.DeepEqual(txs[i], want) {
				t.Fatalf("%s transaction %d = %v, want %v", region, i, txs[i], want)
			}
			var wantCats []ingredient.ID
			for _, cat := range view.At(i).Categories(lex) {
				wantCats = append(wantCats, ingredient.ID(cat))
			}
			if !reflect.DeepEqual(cats[i], wantCats) {
				t.Fatalf("%s category transaction %d = %v, want %v", region, i, cats[i], wantCats)
			}
		}
		for _, got := range [][][]ingredient.ID{txs, cats} {
			for i := 0; i+1 < len(got); i++ {
				next := append([]ingredient.ID(nil), got[i+1]...)
				_ = append(got[i], 9999)
				if !reflect.DeepEqual(got[i+1], next) {
					t.Fatalf("%s: appending to transaction %d changed the next one: %v, was %v", region, i, got[i+1], next)
				}
			}
		}
	}
}

func TestCategoryTransactions(t *testing.T) {
	c := sampleCorpus(t)
	txs := c.Region("JPN").CategoryTransactions()
	// recipe "soybean sauce, ginger, sesame" -> Additive, Spice, NutsAndSeeds
	found := false
	for _, tx := range txs {
		if len(tx) == 3 {
			found = true
		}
		for i := 1; i < len(tx); i++ {
			if tx[i-1] >= tx[i] {
				t.Fatalf("category transaction not sorted: %v", tx)
			}
		}
		for _, v := range tx {
			if int(v) >= ingredient.NumCategories {
				t.Fatalf("category id out of range: %v", v)
			}
		}
	}
	if !found {
		t.Fatal("expected a 3-category transaction")
	}
}

func TestStats(t *testing.T) {
	c := sampleCorpus(t)
	s := c.Region("ITA").Stats()
	if s.Region != "ITA" || s.Recipes != 3 || s.UniqueIngredients != 9 {
		t.Fatalf("Stats = %+v", s)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	c := sampleCorpus(t)
	var buf bytes.Buffer
	if err := c.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf, lex)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != c.Len() {
		t.Fatalf("round trip lost recipes: %d != %d", got.Len(), c.Len())
	}
	for i := 0; i < c.Len(); i++ {
		if !reflect.DeepEqual(got.Get(i), c.Get(i)) {
			t.Fatalf("recipe %d mismatch:\n%+v\n%+v", i, got.Get(i), c.Get(i))
		}
	}
}

func TestReadJSONLRejectsCorrupt(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{not json"), lex); err == nil {
		t.Fatal("corrupt JSONL accepted")
	}
	// Valid JSON, invalid recipe (no ingredients).
	if _, err := ReadJSONL(strings.NewReader(`{"region":"ITA","ingredients":[]}`), lex); err == nil {
		t.Fatal("invalid recipe accepted")
	}
}
