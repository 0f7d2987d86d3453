package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/recipe"
)

// TestMineTooManySetsIsBadRequest serves a corpus whose one 70-item
// recipe appears twice: at support 1 every one of its 2^70−1
// combinations is frequent, more than an int counts. /v1/mine must
// answer 400 with the mine's error, at once, rather than a wrapped
// total, and so must /v1/evolve, whose empirical spectrum is that mine.
func TestMineTooManySetsIsBadRequest(t *testing.T) {
	lex := testCorpus(t).Lexicon()
	items := make([]ingredient.ID, 70)
	for i := range items {
		items[i] = ingredient.ID(i)
	}
	corpus := recipe.NewCorpus(lex)
	for range 2 {
		if err := corpus.Add(recipe.Recipe{Region: "ITA", Ingredients: items}); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := New(Options{Seed: 42, Compute: 2, Corpus: corpus})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, path := range []string{
		"/v1/mine?region=ITA&support=1&kernel=auto",
		"/v1/mine?region=ITA&support=1&kernel=eclat",
		"/v1/evolve?region=ITA&support=1&replicates=1",
	} {
		resp, body := get(t, ts, path)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "too many frequent sets") {
			t.Fatalf("GET %s: status %d, body %s; want 400 naming the overflow", path, resp.StatusCode, body)
		}
	}
}
