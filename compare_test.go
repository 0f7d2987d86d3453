package cuisinevol

import (
	"context"
	"reflect"
	"testing"

	"cuisinevol/internal/evomodel"
	"cuisinevol/internal/itemset"
	"cuisinevol/internal/rankfreq"
)

// compareByEnsemble is the straightforward Fig 4 slice for one region:
// mine the empirical spectrum, run one RunEnsembleCtx per model and score
// each aggregate with Eq 2. CompareModels must agree with it exactly.
func compareByEnsemble(t *testing.T, c *Corpus, region string, opts CompareOptions) *ModelComparison {
	t.Helper()
	view := c.Region(region)
	txs := view.Transactions()
	if opts.Categories {
		txs = view.CategoryTransactions()
	}
	ix, err := itemset.BuildIndex(txs)
	if err != nil {
		t.Fatal(err)
	}
	mined, err := itemset.MineSpectrum(ix, opts.MinSupport, itemset.MineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cmp := &ModelComparison{
		Region:    region,
		Empirical: rankfreq.FromSpectrum(region, mined),
		Models:    map[ModelKind]Distribution{},
		MAE:       map[ModelKind]float64{},
	}
	best := -1.0
	for _, kind := range opts.Kinds {
		dist, err := evomodel.RunEnsembleCtx(context.Background(), evomodel.EnsembleConfig{
			Params:     evomodel.ParamsForView(c.Region(region), kind, opts.Seed),
			Replicates: opts.Replicates,
			MinSupport: opts.MinSupport,
			Categories: opts.Categories,
		}, c.Lexicon())
		if err != nil {
			t.Fatal(err)
		}
		mae, err := rankfreq.PaperMAE(cmp.Empirical, dist)
		if err != nil {
			t.Fatal(err)
		}
		cmp.Models[kind] = dist
		cmp.MAE[kind] = mae
		if best < 0 || mae < best {
			best, cmp.Best = mae, kind
		}
	}
	return cmp
}

// TestCompareModelsMatchesEnsembles pins CompareModels to the
// per-ensemble computation, field by field and bit for bit, in both
// ingredient and category mode.
func TestCompareModelsMatchesEnsembles(t *testing.T) {
	c := smallCorpus(t)
	for _, region := range []string{"KOR", "ITA"} {
		for _, categories := range []bool{false, true} {
			opts := CompareOptions{Replicates: 4, Seed: 7, Categories: categories}
			got, err := CompareModels(c, region, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Kinds = evomodel.Kinds()
			opts.MinSupport = 0.05
			want := compareByEnsemble(t, c, region, opts)
			for _, field := range []struct {
				name      string
				got, want any
			}{
				{"Region", got.Region, want.Region},
				{"Empirical", got.Empirical, want.Empirical},
				{"Models", got.Models, want.Models},
				{"MAE", got.MAE, want.MAE},
				{"Best", got.Best, want.Best},
			} {
				if !reflect.DeepEqual(field.got, field.want) {
					t.Errorf("%s categories=%v: %s differs:\n got %v\nwant %v",
						region, categories, field.name, field.got, field.want)
				}
			}
		}
	}
}
