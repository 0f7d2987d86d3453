package itemset

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/randx"
	"cuisinevol/internal/recipe"
	"cuisinevol/internal/synth"
)

// replicatePool synthesizes a copy-mutate-style recipe pool: a small set
// of founder recipes expanded by copying with few mutations, so the
// transaction multiset is highly redundant — exactly the shape the
// Fig 4 replicate ensembles hand to the miner ~10,000 times per full
// reproduction.
func replicatePool(seed uint64, founders, total, size, universe int) [][]ingredient.ID {
	src := randx.New(seed)
	pool := make([][]ingredient.ID, 0, total)
	for i := 0; i < founders; i++ {
		pool = append(pool, tx(src.SampleInts(universe, size)...))
	}
	for len(pool) < total {
		mother := pool[src.Intn(len(pool))]
		r := append([]ingredient.ID(nil), mother...)
		// One mutation attempt per copy keeps duplicates common.
		if src.Float64() < 0.5 {
			r[src.Intn(len(r))] = ingredient.ID(src.Intn(universe))
			r = dedupSorted(r)
		}
		pool = append(pool, r)
	}
	return pool
}

func dedupSorted(r []ingredient.ID) []ingredient.ID {
	sortIDs(r)
	out := r[:0]
	for i, id := range r {
		if i == 0 || id != out[len(out)-1] {
			out = append(out, id)
		}
	}
	return out
}

func sortIDs(xs []ingredient.ID) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// warmOnEveryP makes pooled query scratch survive until the timer
// starts: it collects garbage first, so no collection left due by the
// set-up moves the warmed pools to their victim caches, then runs fn on
// 2×GOMAXPROCS goroutines released together, for a few rounds, so the
// scratch is parked on every P — a serial warm-up leaves it in one P's
// private pool slot, which a Get on another P cannot steal.
func warmOnEveryP(b *testing.B, fn func() error) {
	b.Helper()
	runtime.GC()
	n := 2 * runtime.GOMAXPROCS(0)
	errs := make([]error, n)
	for round := 0; round < 3; round++ {
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < n; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				errs[g] = fn()
			}()
		}
		close(start)
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEclatReplicatePool is the replicate-mining benchmark: one
// one-shot mine (an index build plus the kernel) over a duplicate-heavy
// model-generated pool, the Fig 4 hot-path shape.
func BenchmarkEclatReplicatePool(b *testing.B) {
	txs := replicatePool(7, 30, 3000, 9, 300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Eclat(txs, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEclatReplicateSweep mines many replicate pools back to back
// through one-shot mines (kernel scratch reuse across mines is what
// this measures; builder reuse is BenchmarkIndexBuildReuse's).
func BenchmarkEclatReplicateSweep(b *testing.B) {
	pools := make([][][]ingredient.ID, 16)
	for i := range pools {
		pools[i] = replicatePool(uint64(i+1), 30, 1500, 9, 300)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, txs := range pools {
			if _, err := Eclat(txs, 0.05); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEclatReplicateSpectrum is the weighted Eclat spectrum on its
// own: a duplicate-heavy replicate-shaped pool indexed once by Build
// into a reused IndexBuilder, then mined at the replicates' support, so
// every bitset intersection takes the weighted count. (Fig 4 replicates
// themselves mine an unweighted projection; see SpectrumOfSets.)
// Mining with the builder's query state keeps its allocs steady enough
// for the alloc gate.
func BenchmarkEclatReplicateSpectrum(b *testing.B) {
	var ib IndexBuilder
	ix, err := ib.Build(replicatePool(7, 30, 3000, 9, 300))
	if err != nil {
		b.Fatal(err)
	}
	if !ix.weighted {
		b.Fatal("replicate pool indexed unweighted")
	}
	if _, err := eclatRun.spectrum(ix, 0.05); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eclatRun.spectrum(ix, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEclatParallelReplicatePool runs the same pool through the
// prefix-partitioned parallel path (the /v1/mine configuration).
func BenchmarkEclatParallelReplicatePool(b *testing.B) {
	txs := replicatePool(7, 30, 3000, 9, 300)
	run := kernelRun{workers: 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run.mine(txs, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMineAutoReplicatePool measures the exported Mine on the
// replicate-pool shape: BenchmarkEclatReplicatePool through the public
// entry point, so any cost the wrapper adds shows as the difference.
func BenchmarkMineAutoReplicatePool(b *testing.B) {
	txs := replicatePool(7, 30, 3000, 9, 300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Mine(txs, 0.05, MineOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMineIndexBuild prices the one-time cost the warm path amortizes:
// a full one-shot BuildIndex — validation, counting, fingerprint, dedup,
// and the all-items posting layout — over the replicate-pool corpus.
func BenchmarkMineIndexBuild(b *testing.B) {
	txs := replicatePool(7, 30, 3000, 9, 300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildIndex(txs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexBuildReuse is the ensemble workers' steady state:
// one reused IndexBuilder indexing replicate pools back to back, each
// followed by a MineIndexed.
func BenchmarkIndexBuildReuse(b *testing.B) {
	pools := make([][][]ingredient.ID, 16)
	for i := range pools {
		pools[i] = replicatePool(uint64(i+1), 30, 1500, 9, 300)
	}
	var ib IndexBuilder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, txs := range pools {
			ix, err := ib.Build(txs)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := MineIndexed(ix, 0.05, MineOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkMineWarmIndex is the steady-state serving path: the index is
// prebuilt (one build shared across every parameter point) and each
// iteration is a pure query at a second threshold — no counting pass,
// no dedup, no bitmap build. Paired with BenchmarkMineColdSecondPoint
// below; the benchgate enforces this stays a multiple faster.
func BenchmarkMineWarmIndex(b *testing.B) {
	txs := replicatePool(7, 30, 3000, 9, 300)
	ix, err := BuildIndex(txs)
	if err != nil {
		b.Fatal(err)
	}
	// Warm-up queries heat the scratch pools on every P so a 1-iteration
	// alloc gate measures the steady state (same pattern as EvolveRun).
	warmOnEveryP(b, func() error {
		_, err := MineIndexed(ix, 0.1, MineOptions{})
		return err
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MineIndexed(ix, 0.1, MineOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexBuildSparse prices BuildIndex over the synthetic
// long-tail corpus (the world-recipes shape: few staples, a mid tier,
// a near-singleton tail) and reports the adaptive layout's retained
// size next to what the uniform dense layout would have retained — the
// tentpole's ≥4× reduction, recorded in BENCH_fig_pipeline.json.
func BenchmarkIndexBuildSparse(b *testing.B) {
	txs := longTailCorpus(11, 262144, 500, 3580)
	ix, err := BuildIndex(txs)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildIndex(txs); err != nil {
			b.Fatal(err)
		}
	}
	st := ix.ContainerStats()
	b.ReportMetric(float64(ix.Bytes()), "index-bytes")
	b.ReportMetric(float64(ix.Bytes()+st.BytesSaved()), "dense-bytes")
	b.ReportMetric(float64(ix.Bytes()+st.BytesSaved())/float64(ix.Bytes()), "compression-x")
}

// BenchmarkMineWarmIndexSparse is the warm serving path on the
// long-tail corpus: adaptive containers and galloping intersections.
func BenchmarkMineWarmIndexSparse(b *testing.B) {
	txs := longTailCorpus(11, 262144, 500, 3580)
	ix, err := BuildIndex(txs)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := MineIndexed(ix, 0.00036, MineOptions{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MineIndexed(ix, 0.00036, MineOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMineWarmIndexSparseDense is the pre-container comparison
// point: the same corpus and threshold over a dense-forced index, so
// the delta to BenchmarkMineWarmIndexSparse
// isolates the container dispatch against uniform word sweeps.
func BenchmarkMineWarmIndexSparseDense(b *testing.B) {
	txs := longTailCorpus(11, 262144, 500, 3580)
	ix, err := buildIndexWith(txs, true)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eclatRun.indexed(ix, 0.00036); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eclatRun.indexed(ix, 0.00036); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMineColdSecondPoint is the cold query at the same second
// parameter point: every Mine rebuilds the index from the raw
// transactions, which is exactly what the result cache could never help
// with across thresholds.
func BenchmarkMineColdSecondPoint(b *testing.B) {
	txs := replicatePool(7, 30, 3000, 9, 300)
	if _, err := Mine(txs, 0.1, MineOptions{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Mine(txs, 0.1, MineOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRootRuleSweep is the sweep densifyK was chosen from: one
// count-gated top=25 mine on one worker, as /v1/mine answers, per view
// and support, with the root rule's constant forced to each value from
// never decoding a compressed root to always decoding it. The views
// span the rule's two sides: the append_reads JPN base (577 recipes,
// 10-word bitmaps) and the scale-1 JPN, ITA and whole-corpus views,
// where a decoded root's words beat the merges, and the long-tail
// corpus of BenchmarkMineWarmIndexSparse, where its mid-tier arrays
// (~100 ids against ~3,500-word bitmaps) must stay arrays. words/mc,
// the bitmap width over the support count, places each point.
func BenchmarkRootRuleSweep(b *testing.B) {
	small := synthCorpus(b, 0.2)
	full := synthCorpus(b, 1)
	points := []struct {
		name    string
		txs     [][]ingredient.ID
		support float64
	}{
		{"JPN577-0.002", small.Region("JPN").Transactions(), 0.002},
		{"JPN-0.002", full.Region("JPN").Transactions(), 0.002},
		{"ITA-0.002", full.Region("ITA").Transactions(), 0.002},
		{"ITA-0.0005", full.Region("ITA").Transactions(), 0.0005},
		{"all-0.0045", full.AllView().Transactions(), 0.0045},
		{"longtail-0.00036", longTailCorpus(11, 262144, 500, 3580), 0.00036},
	}
	for _, pt := range points {
		ix, err := BuildIndex(pt.txs)
		if err != nil {
			b.Fatal(err)
		}
		ratio := float64(ix.words) / float64(minCount(ix.n, pt.support))
		for _, k := range []int{neverDense, 1, 2, 4, 8, 16, 32, 64, alwaysDense} {
			run := kernelRun{workers: 1, denseK: k}
			name := fmt.Sprintf("%s/K=%d", pt.name, k)
			switch k {
			case neverDense:
				name = pt.name + "/K=never"
			case alwaysDense:
				name = pt.name + "/K=always"
			}
			b.Run(name, func(b *testing.B) {
				if _, _, err := run.top(ix, pt.support, 25); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := run.top(ix, pt.support, 25); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(ratio, "words/mc")
			})
		}
	}
}

// synthCorpus generates the seed-42 synthetic corpus at the given
// recipe scale.
func synthCorpus(b *testing.B, scale float64) *recipe.Corpus {
	b.Helper()
	gen := synth.DefaultConfig(42)
	gen.RecipeScale = scale
	corpus, err := synth.Generate(gen)
	if err != nil {
		b.Fatal(err)
	}
	return corpus
}
