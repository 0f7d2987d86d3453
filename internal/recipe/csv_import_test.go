package recipe_test

import (
	"bytes"
	"reflect"
	"testing"

	"cuisinevol/internal/corpusstore"
	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/recipe"
)

// TestCSVRoundTrip: a corpus written by WriteCSV and read back through
// corpusstore.Import, the one CSV reader, keeps every recipe's region
// and ingredient IDs.
func TestCSVRoundTrip(t *testing.T) {
	lex := ingredient.Builtin()
	c := recipe.NewCorpus(lex)
	for _, r := range []struct {
		region string
		names  []string
	}{
		{"ITA", []string{"tomato", "basil", "olive oil", "garlic"}},
		{"ITA", []string{"tomato", "parmesan cheese", "spaghetti"}},
		{"ITA", []string{"flour", "egg", "butter"}},
		{"JPN", []string{"soybean sauce", "ginger", "sesame"}},
		{"JPN", []string{"rice", "soybean sauce"}},
	} {
		ids := make([]ingredient.ID, len(r.names))
		for i, n := range r.names {
			ids[i] = lex.MustID(n)
		}
		if err := c.Add(recipe.Recipe{Region: r.region, Continent: "X", Ingredients: ids}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := c.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	res, err := corpusstore.Import(&buf, corpusstore.ImportOptions{Format: corpusstore.FormatCSV})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Corpus
	if got.Len() != c.Len() || res.Skipped != 0 {
		t.Fatalf("CSV round trip: %d recipes (%d skipped), want %d", got.Len(), res.Skipped, c.Len())
	}
	for i := 0; i < c.Len(); i++ {
		a, b := got.Get(i), c.Get(i)
		if a.Region != b.Region || !reflect.DeepEqual(a.Ingredients, b.Ingredients) {
			t.Fatalf("recipe %d: got %s %v, want %s %v", i, a.Region, a.Ingredients, b.Region, b.Ingredients)
		}
	}
}
