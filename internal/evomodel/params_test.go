package evomodel

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/randx"
)

// TestDuplicateIngredientRejected checks that a repeated ID in
// Params.Ingredients is an error from every entry point that runs the
// model, wherever in the list the repeat sits.
func TestDuplicateIngredientRejected(t *testing.T) {
	for _, at := range []int{1, 60, 119} {
		p := testParams(CMRandom, 3)
		p.Ingredients = append([]ingredient.ID(nil), p.Ingredients...)
		p.Ingredients[at] = p.Ingredients[0]
		want := fmt.Sprintf("duplicate ingredient %d", p.Ingredients[0])
		check := func(name string, err error) {
			t.Helper()
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("repeat at %d: %s: err %v, want %q", at, name, err, want)
			}
		}
		_, err := Run(p, lex)
		check("Run", err)
		_, _, err = Inspect(p, lex)
		check("Inspect", err)
		_, _, err = RunWithLineage(p, lex)
		check("RunWithLineage", err)
		_, err = RunEnsembleCtx(context.Background(), EnsembleConfig{Params: p, Replicates: 3, MinSupport: 0.05, Workers: 2}, lex)
		check("RunEnsembleCtx", err)
		_, err = RunHorizontal(HorizontalConfig{Regions: map[string]Params{"A": p}}, lex)
		check("RunHorizontal", err)
	}
	// The machine that saw the repeat serves the next run as a fresh
	// one would.
	want, err := Run(testParams(CMRandom, 4), lex)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(testParams(CMRandom, 4), lex)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("run after a rejected one differs (err %v)", err)
	}
}

// TestRelabelledIngredientsSameSpectra relabels Params.Ingredients with
// a category-preserving bijection of the lexicon, keeping the list
// order. The model draws by list position and category only, so every
// replicate's spectrum must be unchanged, mined over ingredients or
// over categories.
func TestRelabelledIngredientsSameSpectra(t *testing.T) {
	src := randx.New(2026)
	relabel := make(map[ingredient.ID]ingredient.ID, lex.Len())
	for c := range ingredient.Category(ingredient.NumCategories) {
		ids := lex.ByCategory(c)
		perm := append([]ingredient.ID(nil), ids...)
		src.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		for i, id := range ids {
			relabel[id] = perm[i]
		}
	}
	moved := 0
	for _, kind := range append(Kinds(), ExtendedKinds()...) {
		for _, categories := range []bool{false, true} {
			cfg := EnsembleConfig{Params: testParams(kind, 9), Replicates: 4, MinSupport: 0.05, Categories: categories}
			want := replicateDists(t, cfg, lex)
			ids := make([]ingredient.ID, len(cfg.Params.Ingredients))
			for i, id := range cfg.Params.Ingredients {
				ids[i] = relabel[id]
				if ids[i] != id {
					moved++
				}
			}
			cfg.Params.Ingredients = ids
			if got := replicateDists(t, cfg, lex); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v (categories %v): relabelled replicate spectra differ", kind, categories)
			}
		}
	}
	if moved == 0 {
		t.Fatal("the bijection moved no ingredient")
	}
}
