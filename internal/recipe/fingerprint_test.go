package recipe

import (
	"math/rand"
	"sort"
	"testing"

	"cuisinevol/internal/ingredient"
)

// randomRecipes draws n valid recipes: a region from three and 2-7
// distinct ingredients.
func randomRecipes(rng *rand.Rand, n int) []Recipe {
	regions := []string{"ITA", "JPN", "KOR"}
	out := make([]Recipe, n)
	for i := range out {
		ids := rng.Perm(lex.Len())[:2+rng.Intn(6)]
		r := Recipe{Region: regions[rng.Intn(len(regions))], Name: "r"}
		for _, x := range ids {
			r.Ingredients = append(r.Ingredients, ingredient.ID(x))
		}
		out[i] = r
	}
	return out
}

func corpusOf(t *testing.T, recipes []Recipe) *Corpus {
	t.Helper()
	c := NewCorpus(lex)
	for _, r := range recipes {
		if err := c.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestFingerprintResumesAcrossClones: a corpus grown through clones at
// random split points, hashed at some of them and not at others, has
// the fingerprint of a fresh corpus of the same recipes; every clone's
// ClonedFrom names the fresh fingerprint of its prefix; and growing a
// clone never moves the fingerprint of the corpus it was cloned from.
func TestFingerprintResumesAcrossClones(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	all := randomRecipes(rng, 120)
	prefixFP := make([]string, len(all)+1)
	for n := range prefixFP {
		prefixFP[n] = corpusOf(t, all[:n]).Fingerprint()
	}
	for trial := 0; trial < 60; trial++ {
		splits := []int{0, len(all)}
		for k := rng.Intn(5); k > 0; k-- {
			splits = append(splits, rng.Intn(len(all)+1))
		}
		sort.Ints(splits)
		c := NewCorpus(lex)
		for i := 1; i < len(splits); i++ {
			for _, r := range all[splits[i-1]:splits[i]] {
				if err := c.Add(r); err != nil {
					t.Fatal(err)
				}
			}
			var parentFP string
			if rng.Intn(2) == 0 {
				if parentFP = c.Fingerprint(); parentFP != prefixFP[c.Len()] {
					t.Fatalf("trial %d: fingerprint at %d recipes = %s, fresh %s", trial, c.Len(), parentFP, prefixFP[c.Len()])
				}
			}
			clone := c.Clone()
			if fp, n := clone.ClonedFrom(); fp != prefixFP[n] && fp != "" {
				t.Fatalf("trial %d: clone reports origin %s at %d recipes, fresh prefix %s", trial, fp, n, prefixFP[n])
			}
			if parentFP != "" {
				if fp, n := clone.ClonedFrom(); fp != parentFP || n != c.Len() {
					t.Fatalf("trial %d: clone of a hashed corpus reports origin %s@%d", trial, fp, n)
				}
			}
			if clone.Len() < len(all) {
				if err := clone.Add(all[clone.Len()]); err != nil {
					t.Fatal(err)
				}
				clone.Fingerprint()
				if parentFP != "" && c.Fingerprint() != parentFP {
					t.Fatalf("trial %d: growing a clone moved its source's fingerprint", trial)
				}
			}
			c = c.Clone()
		}
		if got := c.Fingerprint(); got != prefixFP[len(all)] {
			t.Fatalf("trial %d (splits %v): fingerprint %s, fresh %s", trial, splits, got, prefixFP[len(all)])
		}
	}

	// A clone of a corpus whose fingerprint was never computed starts
	// with no origin and hashes from recipe 0.
	unhashed := corpusOf(t, all[:50])
	clone := unhashed.Clone()
	if fp, n := clone.ClonedFrom(); fp != "" || n != 0 {
		t.Fatalf("clone of an unhashed corpus reports origin %s@%d", fp, n)
	}
	for _, r := range all[50:] {
		if err := clone.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := clone.Fingerprint(); got != prefixFP[len(all)] {
		t.Fatalf("clone of an unhashed corpus: fingerprint %s, fresh %s", got, prefixFP[len(all)])
	}
}
