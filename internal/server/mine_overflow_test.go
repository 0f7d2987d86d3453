package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/recipe"
)

// twinRecipeServer serves a corpus whose one ITA recipe, of n items,
// appears twice: at support 1 every one of its 2^n−1 combinations is
// frequent.
func twinRecipeServer(t *testing.T, n int) *httptest.Server {
	t.Helper()
	lex := testCorpus(t).Lexicon()
	items := make([]ingredient.ID, n)
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
	t.Cleanup(ts.Close)
	return ts
}

// TestMineTooManySetsIsBadRequest serves a corpus whose one 70-item
// recipe appears twice: at support 1 every one of its 2^70−1
// combinations is frequent, more than an int counts. /v1/mine must
// answer 400 with the mine's error, at once, rather than a wrapped
// total, and so must /v1/evolve, whose empirical spectrum is that mine.
// A kernel= parameter, which the server ignores, changes nothing.
func TestMineTooManySetsIsBadRequest(t *testing.T) {
	ts := twinRecipeServer(t, 70)
	for _, path := range []string{
		"/v1/mine?region=ITA&support=1&kernel=auto",
		"/v1/mine?region=ITA&support=1&kernel=eclat",
		"/v1/mine?region=ITA&support=1&kernel=fpgrowth",
		"/v1/mine?region=ITA&support=1&kernel=apriori",
		"/v1/evolve?region=ITA&support=1&replicates=1",
	} {
		resp, body := get(t, ts, path)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "too many frequent sets") {
			t.Fatalf("GET %s: status %d, body %s; want 400 naming the overflow", path, resp.StatusCode, body)
		}
	}
}

// TestMineHugeFamilyWithKernelParam serves two identical 38-item
// recipes at support 1: 2^38−1 frequent sets, which an int counts.
// Sent with kernel=fpgrowth, which the server ignores, the mine still
// runs Eclat, which counts the family without walking it, so the
// request answers 200 with that total at once.
func TestMineHugeFamilyWithKernelParam(t *testing.T) {
	ts := twinRecipeServer(t, 38)
	resp, body := get(t, ts, "/v1/mine?region=ITA&support=1&kernel=fpgrowth")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	var got struct {
		Total int `json:"total"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Total != 1<<38-1 {
		t.Fatalf("total %d, want %d", got.Total, 1<<38-1)
	}
}
