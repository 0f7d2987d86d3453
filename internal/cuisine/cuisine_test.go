package cuisine

import (
	"math"
	"testing"

	"cuisinevol/internal/ingredient"
)

func TestRegionCount(t *testing.T) {
	if len(All()) != 25 || Count != 25 {
		t.Fatalf("paper covers 25 regions, have %d", len(All()))
	}
}

func TestCodesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Codes() {
		if seen[c] {
			t.Fatalf("duplicate region code %s", c)
		}
		seen[c] = true
	}
}

func TestTableTotals(t *testing.T) {
	total, ingredients := 0, 0
	for _, r := range All() {
		total += r.Recipes
		ingredients += r.Ingredients
	}
	if total != TableTotalRecipes {
		t.Fatalf("Table I recipes sum to %d, want %d", total, TableTotalRecipes)
	}
	// Paper: average recipes ~6338, average ingredients ~421.
	n := float64(len(All()))
	if avg := float64(total) / n; math.Abs(avg-6338) > 5 {
		t.Fatalf("average recipes = %v, paper reports ~6338", avg)
	}
	if avg := float64(ingredients) / n; math.Abs(avg-421) > 2 {
		t.Fatalf("average ingredients = %v, paper reports ~421", avg)
	}
}

func TestExtremes(t *testing.T) {
	// Paper: largest collection Italy (23179), smallest Central America (470).
	maxR, minR := All()[0], All()[0]
	for _, r := range All() {
		if r.Recipes > maxR.Recipes {
			maxR = r
		}
		if r.Recipes < minR.Recipes {
			minR = r
		}
	}
	if maxR.Code != "ITA" || maxR.Recipes != 23179 {
		t.Fatalf("largest cuisine = %s (%d), want ITA (23179)", maxR.Code, maxR.Recipes)
	}
	if minR.Code != "CAM" || minR.Recipes != 470 {
		t.Fatalf("smallest cuisine = %s (%d), want CAM (470)", minR.Code, minR.Recipes)
	}
}

func TestByCode(t *testing.T) {
	r, err := ByCode("ita")
	if err != nil || r.Name != "Italy" {
		t.Fatalf("ByCode(ita) = %+v, %v", r, err)
	}
	if _, err := ByCode("XXX"); err == nil {
		t.Fatal("unknown code must error")
	}
}

func TestIngredientTargetsWithinLexicon(t *testing.T) {
	lexSize := ingredient.Builtin().Len()
	for _, r := range All() {
		if r.Ingredients <= 0 || r.Ingredients > lexSize {
			t.Errorf("%s ingredient target %d outside (0, %d]", r.Code, r.Ingredients, lexSize)
		}
	}
}

func TestOverrepresentedResolve(t *testing.T) {
	lex := ingredient.Builtin()
	for _, r := range All() {
		if len(r.Overrepresented) < 5 {
			t.Errorf("%s has %d overrepresented ingredients, want >= 5", r.Code, len(r.Overrepresented))
		}
		ids := r.OverrepresentedIDs(lex)
		seen := map[ingredient.ID]bool{}
		for i, id := range ids {
			if seen[id] {
				t.Errorf("%s overrepresented list has duplicate %q", r.Code, r.Overrepresented[i])
			}
			seen[id] = true
		}
	}
}

func TestMeanSizesNearNine(t *testing.T) {
	// Paper: average recipe size approx. 9 across cuisines, bounded [2,38].
	sum := 0.0
	for _, r := range All() {
		if r.MeanSize < float64(MinRecipeSize) || r.MeanSize > float64(MaxRecipeSize) {
			t.Errorf("%s mean size %v outside bounds", r.Code, r.MeanSize)
		}
		if r.SDSize <= 0 {
			t.Errorf("%s has non-positive size SD", r.Code)
		}
		sum += r.MeanSize
	}
	if avg := sum / 25; math.Abs(avg-9) > 0.4 {
		t.Fatalf("average of mean sizes = %v, want ~9", avg)
	}
}

func TestPhi(t *testing.T) {
	ita, _ := ByCode("ITA")
	if phi := ita.Phi(); math.Abs(phi-506.0/23179) > 1e-12 {
		t.Fatalf("Phi(ITA) = %v", phi)
	}
	for _, r := range All() {
		if p := r.Phi(); p <= 0 || p >= 1 {
			t.Errorf("%s Phi = %v outside (0,1)", r.Code, p)
		}
	}
}

func TestCategoryBiasesValid(t *testing.T) {
	for _, r := range All() {
		for c, b := range r.CategoryBias {
			if !c.Valid() {
				t.Errorf("%s bias references invalid category %d", r.Code, c)
			}
			if b <= 0 {
				t.Errorf("%s bias for %s is non-positive", r.Code, c)
			}
		}
	}
}

func TestSpiceContrast(t *testing.T) {
	// Fig 2: INSC and AFR use spices more than JPN, ANZ and IRL.
	spice := func(code string) float64 {
		r, err := ByCode(code)
		if err != nil {
			t.Fatal(err)
		}
		if b, ok := r.CategoryBias[ingredient.Spice]; ok {
			return b
		}
		return 1
	}
	for _, hi := range []string{"INSC", "AFR"} {
		for _, lo := range []string{"JPN", "ANZ", "IRL"} {
			if spice(hi) <= spice(lo) {
				t.Errorf("spice bias %s (%v) should exceed %s (%v)", hi, spice(hi), lo, spice(lo))
			}
		}
	}
}

func TestDairyContrast(t *testing.T) {
	// Fig 2: SCND, FRA, IRL use dairy more than JPN, SEA, THA, KOR.
	dairy := func(code string) float64 {
		r, err := ByCode(code)
		if err != nil {
			t.Fatal(err)
		}
		if b, ok := r.CategoryBias[ingredient.Dairy]; ok {
			return b
		}
		return 1
	}
	for _, hi := range []string{"SCND", "FRA", "IRL"} {
		for _, lo := range []string{"JPN", "SEA", "THA", "KOR"} {
			if dairy(hi) <= dairy(lo) {
				t.Errorf("dairy bias %s should exceed %s", hi, lo)
			}
		}
	}
}

func TestAllReturnsCopy(t *testing.T) {
	a := All()
	a[0].Code = "MUTATED"
	if All()[0].Code == "MUTATED" {
		t.Fatal("All must return a copy")
	}
}
