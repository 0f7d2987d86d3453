package cuisinevol

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (see DESIGN.md §4), plus ablation benches for the design
// choices documented in DESIGN.md §5. Each benchmark regenerates the
// paper artifact at a reduced scale (the full-scale run is the CLI's
// job: `cuisinevol all -scale 1`) and reports the headline quantity via
// b.ReportMetric so the paper-vs-measured comparison is visible in the
// bench output:
//
//	Table I  -> fraction of cuisines whose top-k overrepresented list
//	            matches the paper's (metric "match")
//	Fig 1    -> aggregate mean recipe size (metric "mean_size")
//	Fig 2    -> INSC/JPN spice usage ratio (metric "spice_ratio")
//	Fig 3a/b -> mean pairwise Eq 2 distance (metric "mae")
//	Fig 4    -> NM-to-best-copy-mutate MAE ratio (metric "nm_over_cm")
//
// Run with: go test -bench=. -benchmem
import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"cuisinevol/internal/evomodel"
	"cuisinevol/internal/experiment"
	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/itemset"
	"cuisinevol/internal/rankfreq"
	"cuisinevol/internal/recipe"
	"cuisinevol/internal/synth"
)

// benchScale keeps every figure bench in the hundreds-of-milliseconds
// range; the experiments' shapes are scale-invariant (verified by the
// experiment package's tests).
const (
	benchScale      = 0.1
	benchReplicates = 8
)

var (
	benchCorpusOnce sync.Once
	benchCorpus     *recipe.Corpus
)

// corpusForBench generates the shared reduced-scale corpus once.
func corpusForBench(b *testing.B) *recipe.Corpus {
	b.Helper()
	benchCorpusOnce.Do(func() {
		cfg := synth.DefaultConfig(42)
		cfg.RecipeScale = benchScale
		c, err := synth.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		benchCorpus = c
	})
	return benchCorpus
}

// benchConfig builds an experiment config around the shared corpus.
func benchConfig(b *testing.B) *experiment.Config {
	cfg := experiment.DefaultConfig(42)
	cfg.RecipeScale = benchScale
	cfg.Replicates = benchReplicates
	cfg.SetCorpus(corpusForBench(b))
	return cfg
}

// BenchmarkCorpusGeneration measures the synthetic-corpus substrate
// itself (the stand-in for the paper's 158k scraped recipes).
func BenchmarkCorpusGeneration(b *testing.B) {
	cfg := synth.DefaultConfig(1)
	cfg.RecipeScale = benchScale
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := synth.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Overrepresentation regenerates Table I.
func BenchmarkTable1Overrepresentation(b *testing.B) {
	cfg := benchConfig(b)
	var res *experiment.TableIResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiment.RunTableI(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	exact := 0
	for _, row := range res.Rows {
		if row.Matches == len(row.PaperTop) {
			exact++
		}
	}
	b.ReportMetric(float64(exact)/float64(len(res.Rows)), "match")
}

// BenchmarkFig1SizeDistribution regenerates Fig 1.
func BenchmarkFig1SizeDistribution(b *testing.B) {
	cfg := benchConfig(b)
	var res *experiment.Fig1Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiment.RunFig1(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Mean, "mean_size")
}

// BenchmarkFig2CategoryProfile regenerates Fig 2.
func BenchmarkFig2CategoryProfile(b *testing.B) {
	cfg := benchConfig(b)
	var res *experiment.Fig2Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiment.RunFig2(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	insc := res.Means["INSC"][ingredient.Spice]
	jpn := res.Means["JPN"][ingredient.Spice]
	b.ReportMetric(insc/jpn, "spice_ratio")
}

// BenchmarkFig3aIngredientCombos regenerates Fig 3a (the paper reports
// an average pairwise MAE of 0.035).
func BenchmarkFig3aIngredientCombos(b *testing.B) {
	cfg := benchConfig(b)
	var res *experiment.Fig3Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiment.RunFig3Ctx(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Ingredients.MeanMAE, "mae")
}

// BenchmarkFig3bCategoryCombos reports the category-combination panel
// (the paper reports 0.052).
func BenchmarkFig3bCategoryCombos(b *testing.B) {
	cfg := benchConfig(b)
	var res *experiment.Fig3Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiment.RunFig3Ctx(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Categories.MeanMAE, "mae")
}

// fig4Metric returns the NM-MAE to best-CM-MAE ratio, the quantitative
// form of Fig 4's headline (copy-mutate reproduces the distributions,
// the null model does not).
func fig4Metric(res *experiment.Fig4Result) float64 {
	ratioSum, n := 0.0, 0
	for _, row := range res.Rows {
		nm := row.MAE[evomodel.NullModel]
		best := row.MAE[row.Best]
		if best > 0 {
			ratioSum += nm / best
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return ratioSum / float64(n)
}

// BenchmarkFig4ModelComparison regenerates Fig 4 on three representative
// cuisines (large/medium/small).
func BenchmarkFig4ModelComparison(b *testing.B) {
	cfg := benchConfig(b)
	opts := experiment.Fig4Options{Regions: []string{"ITA", "JPN", "KOR"}}
	// A warm-up run fills the config's index cache and the pooled
	// scratch, so a 1-iteration alloc gate measures the steady state.
	res, err := experiment.RunFig4Ctx(context.Background(), cfg, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = experiment.RunFig4Ctx(context.Background(), cfg, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(fig4Metric(res), "nm_over_cm")
}

// BenchmarkFig4CategoryControl regenerates the §VI control: on category
// combinations the NM/CM ratio collapses toward 1 (all models pass).
func BenchmarkFig4CategoryControl(b *testing.B) {
	cfg := benchConfig(b)
	opts := experiment.Fig4Options{Regions: []string{"ITA", "JPN", "KOR"}, Categories: true}
	// A warm-up run fills the config's index cache and the pooled
	// scratch, so a 1-iteration alloc gate measures the steady state.
	res, err := experiment.RunFig4Ctx(context.Background(), cfg, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = experiment.RunFig4Ctx(context.Background(), cfg, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(fig4Metric(res), "nm_over_cm")
}

// benchEnsembleMAE runs one model ensemble against KOR's empirical
// distribution and returns the Eq 2 distance.
func benchEnsembleMAE(b *testing.B, mutate func(*evomodel.Params)) float64 {
	corpus := corpusForBench(b)
	view := corpus.Region("KOR")
	mined, err := itemset.Mine(view.Transactions(), 0.05, itemset.MineOptions{})
	if err != nil {
		b.Fatal(err)
	}
	emp := rankfreq.FromResult("KOR", mined)
	params := evomodel.ParamsForView(view, evomodel.CMRandom, 7)
	mutate(&params)
	dist, err := evomodel.RunEnsembleCtx(context.Background(), evomodel.EnsembleConfig{
		Params:     params,
		Replicates: benchReplicates,
		MinSupport: 0.05,
	}, corpus.Lexicon())
	if err != nil {
		b.Fatal(err)
	}
	mae, err := rankfreq.PaperMAE(emp, dist)
	if err != nil {
		b.Fatal(err)
	}
	return mae
}

// BenchmarkAblationMutations sweeps M (the paper calibrates M=4 for CM-R
// and M=6 for CM-C/CM-M).
func BenchmarkAblationMutations(b *testing.B) {
	for _, m := range []int{1, 2, 4, 6, 8} {
		m := m
		b.Run(benchName("M", m), func(b *testing.B) {
			var mae float64
			for i := 0; i < b.N; i++ {
				mae = benchEnsembleMAE(b, func(p *evomodel.Params) { p.Mutations = m })
			}
			b.ReportMetric(mae, "mae")
		})
	}
}

// BenchmarkAblationInitialPool sweeps m (the paper uses m=20).
func BenchmarkAblationInitialPool(b *testing.B) {
	for _, m := range []int{5, 10, 20, 40} {
		m := m
		b.Run(benchName("m", m), func(b *testing.B) {
			var mae float64
			for i := 0; i < b.N; i++ {
				mae = benchEnsembleMAE(b, func(p *evomodel.Params) {
					p.InitialPool = m
					p.InitialRecipes = 0 // re-derive n = m/phi
				})
			}
			b.ReportMetric(mae, "mae")
		})
	}
}

// BenchmarkAblationMixtureRatio sweeps CM-M's same-category probability
// (the paper fixes it at 0.5).
func BenchmarkAblationMixtureRatio(b *testing.B) {
	for _, r := range []float64{0.25, 0.5, 0.75} {
		r := r
		b.Run(benchName("ratio", int(r*100)), func(b *testing.B) {
			var mae float64
			for i := 0; i < b.N; i++ {
				mae = benchEnsembleMAE(b, func(p *evomodel.Params) {
					p.Kind = evomodel.CMMixture
					p.Mutations = 6
					p.MixtureRatio = r
				})
			}
			b.ReportMetric(mae, "mae")
		})
	}
}

// BenchmarkAblationNullSource compares the two readings of the null
// model's sampling source (DESIGN.md §5.4).
func BenchmarkAblationNullSource(b *testing.B) {
	for _, full := range []bool{false, true} {
		full := full
		name := "pool_I0"
		if full {
			name = "full_I"
		}
		b.Run(name, func(b *testing.B) {
			var mae float64
			for i := 0; i < b.N; i++ {
				mae = benchEnsembleMAE(b, func(p *evomodel.Params) {
					p.Kind = evomodel.NullModel
					p.NullFromFullLexicon = full
				})
			}
			b.ReportMetric(mae, "mae")
		})
	}
}

// BenchmarkAblationLoopVariant compares the prose loop (run until N
// recipes) with the printed fixed-iteration loop (DESIGN.md §5.2).
func BenchmarkAblationLoopVariant(b *testing.B) {
	for _, fixed := range []bool{false, true} {
		fixed := fixed
		name := "until_N"
		if fixed {
			name = "fixed_iters"
		}
		b.Run(name, func(b *testing.B) {
			var mae float64
			for i := 0; i < b.N; i++ {
				mae = benchEnsembleMAE(b, func(p *evomodel.Params) { p.FixedIterations = fixed })
			}
			b.ReportMetric(mae, "mae")
		})
	}
}

// BenchmarkAblationMetric compares the paper's printed Eq 2 (squared)
// with a literal mean absolute error (DESIGN.md §5.1).
func BenchmarkAblationMetric(b *testing.B) {
	corpus := corpusForBench(b)
	mineDist := func(code string) rankfreq.Distribution {
		res, err := itemset.Mine(corpus.Region(code).Transactions(), 0.05, itemset.MineOptions{})
		if err != nil {
			b.Fatal(err)
		}
		return rankfreq.FromResult(code, res)
	}
	ita, jpn := mineDist("ITA"), mineDist("JPN")
	b.Run("paper_squared", func(b *testing.B) {
		var v float64
		for i := 0; i < b.N; i++ {
			var err error
			v, err = rankfreq.PaperMAE(ita, jpn)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(v, "distance")
	})
	b.Run("true_absolute", func(b *testing.B) {
		var v float64
		for i := 0; i < b.N; i++ {
			var err error
			v, err = rankfreq.TrueMAE(ita, jpn)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(v, "distance")
	})
}

// BenchmarkMineIngredientCombosITA measures the miner on the largest
// cuisine at bench scale.
func BenchmarkMineIngredientCombosITA(b *testing.B) {
	txs := corpusForBench(b).Region("ITA").Transactions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := itemset.Mine(txs, 0.05, itemset.MineOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMineLowSupport measures the low-support mines of the
// append_reads serving workload: the JPN view of the seed-42 corpus at
// RecipeScale 0.2, indexed once, mined at each of the workload's
// supports (15k–37k itemsets per mine here) with Eclat fanned over
// GOMAXPROCS workers, as the server's /v1/mine does. Before the radix
// assembly, most of such a mine went on sorting its itemsets into
// canonical order. The index comes from an IndexBuilder, whose own
// query state every mine reuses: the server's cached indexes draw the
// same state from a sync.Pool, which a GC can empty, and the 1-iteration
// alloc gate must not price that miss. top=25 answers the largest mine
// as /v1/mine does, with its first 25 sets and its total.
func BenchmarkMineLowSupport(b *testing.B) {
	cfg := synth.DefaultConfig(42)
	cfg.RecipeScale = 0.2
	corpus, err := synth.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var builder itemset.IndexBuilder
	ix, err := builder.Build(corpus.Region("JPN").Transactions())
	if err != nil {
		b.Fatal(err)
	}
	opts := itemset.MineOptions{Workers: runtime.GOMAXPROCS(0)}
	// run benchmarks mine, which returns how many sets the full mine
	// holds.
	run := func(name string, mine func() (int, error)) {
		b.Run(name, func(b *testing.B) {
			var sets int
			// Warm up: enough mines for both workers' depth buffers to
			// have met the largest partitions, whichever worker claims
			// them.
			for i := 0; i < 8; i++ {
				if _, err := mine(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n, err := mine()
				if err != nil {
					b.Fatal(err)
				}
				sets = n
			}
			b.ReportMetric(float64(sets), "sets")
		})
	}
	for _, support := range []float64{0.002, 0.0025, 0.003, 0.0045} {
		run(fmt.Sprintf("support=%g", support), func() (int, error) {
			res, err := itemset.MineIndexed(ix, support, opts)
			if err != nil {
				return 0, err
			}
			return len(res.Sets), nil
		})
	}
	// /v1/mine's shape: the largest of these mines, answered with its
	// first 25 sets and its total through the count gate.
	run("top=25", func() (int, error) {
		_, total, err := itemset.MineTop(ix, 0.002, 25, opts)
		return total, err
	})
}

// BenchmarkMineTopViews answers /v1/mine's shape, the first 25 sets
// and the total, off paper-scale views of the seed-42 corpus at scale
// 1 on one worker: ITA (23,179 recipes) at 0.2% support and the whole
// corpus at 0.45%. These are the dense side of Eclat's root rule, where
// compressed root postings are decoded to bitsets for the mine;
// itemset's BenchmarkMineWarmIndexSparse guards the side that keeps
// its arrays.
func BenchmarkMineTopViews(b *testing.B) {
	cfg := synth.DefaultConfig(42)
	corpus, err := synth.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	views := []struct {
		name    string
		view    recipe.View
		support float64
	}{
		{"ITA-0.002", corpus.Region("ITA"), 0.002},
		{"all-0.0045", corpus.AllView(), 0.0045},
	}
	for _, v := range views {
		var builder itemset.IndexBuilder
		ix, err := builder.Build(v.view.Transactions())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(v.name, func(b *testing.B) {
			var total int
			if _, total, err = itemset.MineTop(ix, v.support, 25, itemset.MineOptions{}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, total, err = itemset.MineTop(ix, v.support, 25, itemset.MineOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(total), "sets")
		})
	}
}

func benchName(prefix string, v int) string {
	const digits = "0123456789"
	if v == 0 {
		return prefix + "=0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = digits[v%10]
		v /= 10
	}
	return prefix + "=" + string(buf[i:])
}
