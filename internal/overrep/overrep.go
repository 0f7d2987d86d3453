// Package overrep implements the Ingredient Overrepresentation metric of
// the paper (Eq 1):
//
//	Oᵢ^ς = nᵢ^ς / N^ς − Σ_c nᵢ^c / Σ_c N^c
//
// where nᵢ^ς is the number of recipes of cuisine ς containing ingredient
// i and N^ς the cuisine's recipe count. The metric is positive when the
// ingredient appears in a larger proportion of the cuisine's recipes than
// across all cuisines combined.
package overrep

import (
	"fmt"
	"slices"

	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/itemset"
	"cuisinevol/internal/recipe"
)

// Analysis holds the global ingredient document frequencies of a corpus
// so per-region scores are O(lexicon) each. Immutable after
// construction; safe for concurrent use.
type Analysis struct {
	corpus       *recipe.Corpus
	globalCounts []int
	globalTotal  int
}

// NewFromIndex builds an Analysis whose global document frequencies
// come from a prebuilt whole-corpus itemset.Index: an index's per-item
// support counts are exactly the nᵢ of Eq 1. The index must cover the
// same transactions as corpus.AllView().
func NewFromIndex(corpus *recipe.Corpus, all *itemset.Index) *Analysis {
	counts := make([]int, corpus.Lexicon().Len())
	all.AddSupportCounts(counts)
	return &Analysis{
		corpus:       corpus,
		globalCounts: counts,
		globalTotal:  all.N(),
	}
}

// ScoresFromIndex returns Eq 1 for every lexicon entity in the given
// region, with the region's document frequencies read off a prebuilt
// per-region index. The index must cover the same transactions as
// corpus.Region(region). An error is returned for a region with no
// recipes.
func (a *Analysis) ScoresFromIndex(region string, ix *itemset.Index) ([]float64, error) {
	if ix.N() == 0 {
		return nil, fmt.Errorf("overrep: region %q has no recipes", region)
	}
	regionCounts := make([]int, len(a.globalCounts))
	ix.AddSupportCounts(regionCounts)
	n := float64(ix.N())
	g := float64(a.globalTotal)
	out := make([]float64, len(regionCounts))
	for id := range regionCounts {
		out[id] = float64(regionCounts[id])/n - float64(a.globalCounts[id])/g
	}
	return out, nil
}

// Ranked pairs an ingredient with its overrepresentation score.
type Ranked struct {
	ID    ingredient.ID
	Score float64
}

// TopKFromIndex returns the region's k most overrepresented ingredients
// in descending score order (ties broken by ascending ID for
// determinism), scored over a prebuilt per-region index.
func (a *Analysis) TopKFromIndex(region string, ix *itemset.Index, k int) ([]Ranked, error) {
	scores, err := a.ScoresFromIndex(region, ix)
	if err != nil {
		return nil, err
	}
	return rank(scores, k), nil
}

// rank orders scores descending (ties by ascending ID) and truncates to
// the first k. A small k, the served case, keeps a sorted top-k buffer
// in one pass over the lexicon; a large one sorts everything.
func rank(scores []float64, k int) []Ranked {
	k = max(0, min(k, len(scores)))
	if k > selectMaxK {
		ranked := make([]Ranked, len(scores))
		for id, s := range scores {
			ranked[id] = Ranked{ID: ingredient.ID(id), Score: s}
		}
		slices.SortFunc(ranked, func(a, b Ranked) int {
			if ranksBefore(a, b) {
				return -1
			}
			return 1 // IDs are unique, so a and b never tie
		})
		return ranked[:k]
	}
	top := make([]Ranked, 0, k)
	for id, s := range scores {
		r := Ranked{ID: ingredient.ID(id), Score: s}
		switch {
		case len(top) < k:
			top = append(top, r)
		case k > 0 && ranksBefore(r, top[k-1]):
			top[k-1] = r
		default:
			continue
		}
		for i := len(top) - 1; i > 0 && ranksBefore(top[i], top[i-1]); i-- {
			top[i], top[i-1] = top[i-1], top[i]
		}
	}
	return top
}

// selectMaxK is the largest k rank answers by bounded selection: each
// admitted score shifts up to k entries, which stays cheaper than a full
// sort of a 721-entry lexicon while k is this small.
const selectMaxK = 64

// ranksBefore reports whether a ranks ahead of b: higher score first,
// then lower ID.
func ranksBefore(a, b Ranked) bool {
	return a.Score > b.Score || a.Score == b.Score && a.ID < b.ID
}

// TopKNamesFromIndex is TopKFromIndex resolved to canonical names.
func (a *Analysis) TopKNamesFromIndex(region string, ix *itemset.Index, k int) ([]string, error) {
	top, err := a.TopKFromIndex(region, ix, k)
	if err != nil {
		return nil, err
	}
	return a.names(top), nil
}

func (a *Analysis) names(top []Ranked) []string {
	lex := a.corpus.Lexicon()
	out := make([]string, len(top))
	for i, r := range top {
		out[i] = lex.Name(r.ID)
	}
	return out
}
