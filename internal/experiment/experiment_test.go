package experiment

import (
	"context"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cuisinevol/internal/cuisine"
	"cuisinevol/internal/evomodel"
	"cuisinevol/internal/ingredient"
)

// testConfig returns a fast configuration: scaled-down corpus, few
// replicates, artifacts into a temp dir when out is true.
func testConfig(t *testing.T, out bool) *Config {
	t.Helper()
	cfg := DefaultConfig(42)
	cfg.RecipeScale = 0.05
	cfg.Replicates = 4
	if out {
		cfg.OutDir = t.TempDir()
	}
	return cfg
}

func TestCorpusLazySingleton(t *testing.T) {
	cfg := testConfig(t, false)
	a, err := cfg.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	b, err := cfg.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("Corpus must be cached")
	}
}

func TestRunTableI(t *testing.T) {
	cfg := testConfig(t, true)
	res, err := RunTableI(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 25 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Recipes <= 0 || row.UniqueIngredients <= 0 {
			t.Fatalf("row %s has empty stats", row.Code)
		}
		if len(row.TopOverrepresented) != len(row.PaperTop) {
			t.Fatalf("row %s top length mismatch", row.Code)
		}
	}
	for _, name := range []string{"table1.txt", "table1.csv", "table1.md"} {
		if _, err := os.Stat(filepath.Join(cfg.OutDir, name)); err != nil {
			t.Fatalf("artifact %s missing: %v", name, err)
		}
	}
	if s := res.Summary(); !strings.Contains(s, "Table I") {
		t.Fatalf("summary: %s", s)
	}
}

func TestRunTableIMatchesAtSmallScale(t *testing.T) {
	// Even at 5% scale most cuisines should reproduce >= 4 of their
	// paper-listed top-5 overrepresented ingredients.
	res, err := RunTableI(testConfig(t, false))
	if err != nil {
		t.Fatal(err)
	}
	weak := 0
	for _, row := range res.Rows {
		if row.Matches < len(row.PaperTop)-1 {
			weak++
		}
	}
	if weak > 3 {
		t.Fatalf("%d cuisines reproduce fewer than k-1 of their paper top-k", weak)
	}
}

func TestRunFig1(t *testing.T) {
	cfg := testConfig(t, true)
	res, err := RunFig1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MinSize < cuisine.MinRecipeSize || res.MaxSize > cuisine.MaxRecipeSize {
		t.Fatalf("size bounds [%d, %d] outside the paper's [2, 38]", res.MinSize, res.MaxSize)
	}
	if math.Abs(res.Mean-9) > 0.6 {
		t.Fatalf("aggregate mean %.2f, paper ~9", res.Mean)
	}
	if len(res.PerRegion) != 25 {
		t.Fatalf("regions = %d", len(res.PerRegion))
	}
	for code, density := range res.PerRegion {
		sum := 0.0
		for _, v := range density {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("%s density sums to %v", code, sum)
		}
	}
	for _, name := range []string{"fig1.svg", "fig1_aggregate.svg", "fig1.csv"} {
		if _, err := os.Stat(filepath.Join(cfg.OutDir, name)); err != nil {
			t.Fatalf("artifact %s missing", name)
		}
	}
}

func TestRunFig2(t *testing.T) {
	cfg := testConfig(t, true)
	res, err := RunFig2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Means) != 25 {
		t.Fatalf("means for %d cuisines", len(res.Means))
	}
	// Fig 2 contrast: INSC uses spices more than JPN.
	if res.Means["INSC"][ingredient.Spice] <= res.Means["JPN"][ingredient.Spice] {
		t.Fatal("INSC spice usage must exceed JPN")
	}
	// Boxes span the cuisine means.
	spiceBox := res.Boxes[ingredient.Spice]
	if spiceBox.N != 25 {
		t.Fatalf("spice box over %d cuisines", spiceBox.N)
	}
	for _, name := range []string{"fig2.svg", "fig2.csv"} {
		if _, err := os.Stat(filepath.Join(cfg.OutDir, name)); err != nil {
			t.Fatalf("artifact %s missing", name)
		}
	}
	if s := res.Summary(); !strings.Contains(s, "Fig 2") {
		t.Fatal("summary wrong")
	}
}

func TestRunFig3(t *testing.T) {
	cfg := testConfig(t, true)
	res, err := RunFig3Ctx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 25 cuisines + aggregate.
	if len(res.Ingredients.Dists) != 26 || len(res.Categories.Dists) != 26 {
		t.Fatalf("distribution counts: %d, %d", len(res.Ingredients.Dists), len(res.Categories.Dists))
	}
	if res.Ingredients.Dists[25].Label != "ALL" {
		t.Fatal("aggregate distribution must be labeled ALL and come last")
	}
	// Invariance: the mean pairwise MAE should be small, same order as
	// the paper's 0.035 / 0.052.
	if res.Ingredients.MeanMAE <= 0 || res.Ingredients.MeanMAE > 0.2 {
		t.Fatalf("fig3a mean MAE = %v", res.Ingredients.MeanMAE)
	}
	if res.Categories.MeanMAE <= 0 || res.Categories.MeanMAE > 0.3 {
		t.Fatalf("fig3b mean MAE = %v", res.Categories.MeanMAE)
	}
	if len(res.Ingredients.MostDistinct) != 25 {
		t.Fatalf("MostDistinct = %v", res.Ingredients.MostDistinct)
	}
	for _, name := range []string{"fig3a.svg", "fig3a.csv", "fig3a_mae.csv", "fig3b.svg", "fig3b.csv", "fig3b_mae.csv"} {
		if _, err := os.Stat(filepath.Join(cfg.OutDir, name)); err != nil {
			t.Fatalf("artifact %s missing", name)
		}
	}
}

func TestRunFig3SmallCuisinesMostDistinct(t *testing.T) {
	// The paper: cuisines with few recipes (Central America, Korea) have
	// the most distinct distributions. Check CAM or KOR is in the top 5
	// most-distinct. Needs a 10% corpus: at the 5% unit-test scale every
	// cuisine is tiny and the ranking is noise.
	cfg := testConfig(t, false)
	cfg.RecipeScale = 0.1
	res, err := RunFig3Ctx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	top5 := strings.Join(res.Ingredients.MostDistinct[:5], ",")
	if !strings.Contains(top5, "CAM") && !strings.Contains(top5, "KOR") {
		t.Fatalf("neither CAM nor KOR among most distinct: %v", res.Ingredients.MostDistinct[:5])
	}
}

func TestRunFig4SubsetOfRegions(t *testing.T) {
	cfg := testConfig(t, true)
	res, err := RunFig4Ctx(context.Background(), cfg, Fig4Options{Regions: []string{"ITA", "KOR"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		nm := row.MAE[evomodel.NullModel]
		for _, kind := range []evomodel.Kind{evomodel.CMRandom, evomodel.CMCategory, evomodel.CMMixture} {
			if row.MAE[kind] >= nm {
				t.Fatalf("%s: %v MAE %.5f not below NM %.5f", row.Region, kind, row.MAE[kind], nm)
			}
		}
		if row.Best == evomodel.NullModel {
			t.Fatalf("%s: null model won", row.Region)
		}
	}
	if !res.NullWorstEverywhere {
		t.Fatal("null model must be worst everywhere on ingredient combinations")
	}
	for _, name := range []string{"fig4_mae.txt", "fig4_mae.csv", "fig4_ITA.svg", "fig4_KOR.svg"} {
		if _, err := os.Stat(filepath.Join(cfg.OutDir, name)); err != nil {
			t.Fatalf("artifact %s missing", name)
		}
	}
}

func TestRunFig4CategoriesControl(t *testing.T) {
	// §VI: on category combinations all models, including NM, reproduce
	// the empirical distribution; NM must NOT be dramatically worse.
	cfg := testConfig(t, false)
	res, err := RunFig4Ctx(context.Background(), cfg, Fig4Options{Categories: true, Regions: []string{"ITA", "JPN"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		nm := row.MAE[evomodel.NullModel]
		cmr := row.MAE[evomodel.CMRandom]
		// NM within one order of magnitude of CM-R (vs ~100x on
		// ingredient combinations).
		if nm > cmr*12+0.02 {
			t.Fatalf("%s: category control broken: NM %.5f vs CM-R %.5f", row.Region, nm, cmr)
		}
	}
}

// TestRunFig4Ablations checks that Fig4Options.Kinds restricts the
// comparison to a subset of the models; the model-variant ablations
// themselves are covered at the evomodel.Params level.
func TestRunFig4Ablations(t *testing.T) {
	cfg := testConfig(t, false)
	opts := Fig4Options{
		Regions: []string{"KOR"},
		Kinds:   []evomodel.Kind{evomodel.CMRandom, evomodel.NullModel},
	}
	res, err := RunFig4Ctx(context.Background(), cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || len(res.Rows[0].MAE) != 2 || len(res.Models["KOR"]) != 2 {
		t.Fatalf("kind subset not honoured: %+v", res.Rows)
	}
}

func TestArtifactDisabled(t *testing.T) {
	cfg := testConfig(t, false)
	if err := cfg.writeArtifact("x.txt", func(io.Writer) error { t.Fatal("must not render"); return nil }); err != nil {
		t.Fatal(err)
	}
}
