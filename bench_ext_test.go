package cuisinevol

// Benchmarks for the §VII extensions and motivating-literature
// substrates: alternative hypotheses, variable recipe sizes, horizontal
// transmission, food pairing, and the ingestion pipeline.

import (
	"testing"

	"cuisinevol/internal/evomodel"
	"cuisinevol/internal/experiment"
	"cuisinevol/internal/flavor"
	"cuisinevol/internal/ingest"
	"cuisinevol/internal/itemset"
	"cuisinevol/internal/rankfreq"
	"cuisinevol/internal/stats"
)

// BenchmarkAlternativeHypotheses scores the §VII alternative models
// (fitness-only, preferential attachment) against the same empirical
// target as the copy-mutate family; the reported MAE shows where each
// hypothesis lands between CM (~0.004 at bench scale) and NM (~0.1).
func BenchmarkAlternativeHypotheses(b *testing.B) {
	for _, kind := range evomodel.ExtendedKinds() {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			var mae float64
			for i := 0; i < b.N; i++ {
				mae = benchEnsembleMAE(b, func(p *evomodel.Params) { p.Kind = kind })
			}
			b.ReportMetric(mae, "mae")
		})
	}
}

// BenchmarkVariableRecipeSizes measures the variable-size extension
// against the fixed-size baseline.
func BenchmarkVariableRecipeSizes(b *testing.B) {
	cases := []struct {
		name               string
		insert, deleteProb float64
	}{
		{"fixed", 0, 0},
		{"drift_up", 0.3, 0.05},
		{"drift_down", 0.05, 0.3},
		{"balanced", 0.2, 0.2},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var mae float64
			for i := 0; i < b.N; i++ {
				mae = benchEnsembleMAE(b, func(p *evomodel.Params) {
					p.InsertProb = c.insert
					p.DeleteProb = c.deleteProb
				})
			}
			b.ReportMetric(mae, "mae")
		})
	}
}

// BenchmarkHorizontalTransmission sweeps the migration probability and
// reports the usage homogenization between two regions (total-variation
// distance between their ingredient-usage profiles).
func BenchmarkHorizontalTransmission(b *testing.B) {
	corpus := corpusForBench(b)
	params := map[string]evomodel.Params{
		"ITA": evomodel.ParamsForView(corpus.Region("ITA"), evomodel.CMRandom, 0),
		"JPN": evomodel.ParamsForView(corpus.Region("JPN"), evomodel.CMRandom, 0),
	}
	for _, migration := range []float64{0, 0.2, 0.5} {
		migration := migration
		b.Run(benchName("mig", int(migration*100)), func(b *testing.B) {
			var tv float64
			for i := 0; i < b.N; i++ {
				out, err := evomodel.RunHorizontal(evomodel.HorizontalConfig{
					Regions:   params,
					Migration: migration,
					Seed:      7,
				}, corpus.Lexicon())
				if err != nil {
					b.Fatal(err)
				}
				tv = experiment.UsageTV(out["ITA"], out["JPN"], corpus.Lexicon().Len())
			}
			b.ReportMetric(tv, "usage_tv")
		})
	}
}

// BenchmarkFoodPairing measures the full 25-cuisine pairing analysis.
func BenchmarkFoodPairing(b *testing.B) {
	corpus := corpusForBench(b)
	profile, err := flavor.Generate(flavor.DefaultConfig(42))
	if err != nil {
		b.Fatal(err)
	}
	var delta float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := flavor.AnalyzeCuisine(profile, corpus.Region("FRA"), 20, 7)
		if err != nil {
			b.Fatal(err)
		}
		delta = res.Delta
	}
	b.ReportMetric(delta, "delta")
}

// BenchmarkIngestPipeline measures the raw-mention resolution pipeline
// end to end (rawify -> ingest) and reports the resolution rate.
func BenchmarkIngestPipeline(b *testing.B) {
	corpus := corpusForBench(b)
	raws := ingest.Rawify(corpus, 7)[:2000]
	b.ResetTimer()
	var rate float64
	for i := 0; i < b.N; i++ {
		_, stats, err := ingest.Ingest(raws, ingest.Options{})
		if err != nil {
			b.Fatal(err)
		}
		rate = stats.ResolutionRate()
	}
	b.ReportMetric(rate, "resolved")
}

// BenchmarkEq2Metric measures the distance computation itself on
// realistic distribution lengths.
func BenchmarkEq2Metric(b *testing.B) {
	corpus := corpusForBench(b)
	mine := func(code string) rankfreq.Distribution {
		res, err := itemset.Mine(corpus.Region(code).Transactions(), 0.05, itemset.MineOptions{})
		if err != nil {
			b.Fatal(err)
		}
		return rankfreq.Distribution{Label: code, Freqs: res.Supports()}
	}
	ita, usa := mine("ITA"), mine("USA")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rankfreq.PaperMAE(ita, usa); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVocabularyGrowth fits Heaps' law V(n) = K n^beta to the
// vocabulary-growth curves of the empirical corpus and a CM-R run over
// the same cuisine. Real-like corpora grow sub-linearly (beta < 1); the
// models' pool growth tracks phi*n linearly until the reserve runs out.
func BenchmarkVocabularyGrowth(b *testing.B) {
	corpus := corpusForBench(b)
	view := corpus.Region("ITA")
	b.Run("empirical", func(b *testing.B) {
		var beta float64
		for i := 0; i < b.N; i++ {
			fit, err := stats.FitHeaps(stats.VocabularyGrowth(view.Transactions()))
			if err != nil {
				b.Fatal(err)
			}
			beta = fit.Beta
		}
		b.ReportMetric(beta, "beta")
	})
	b.Run("cmr", func(b *testing.B) {
		var beta float64
		for i := 0; i < b.N; i++ {
			txs, err := evomodel.Run(evomodel.ParamsForView(view, evomodel.CMRandom, 7), corpus.Lexicon())
			if err != nil {
				b.Fatal(err)
			}
			fit, err := stats.FitHeaps(stats.VocabularyGrowth(txs))
			if err != nil {
				b.Fatal(err)
			}
			beta = fit.Beta
		}
		b.ReportMetric(beta, "beta")
	})
}
