package cuisinevol

// Simulation-kernel benchmarks: the evolve step alone (BenchmarkEvolveRun)
// and the full evolve→mine replicate ensemble (BenchmarkEnsembleReplicates),
// per model kind on the KOR view — the per-component view behind the
// Fig 4 pipeline benches in bench_test.go. Each warms its reused state
// on every P before the timer (warmOnEveryP) — EvolveRun's machines,
// the mining kernels' pooled scratch — so cold fills don't inflate the
// steady-state allocs/op these benches gate (see `make
// benchgate-allocs`). An ensemble's machines and index builders live
// in a per-call free list, so every RunEnsembleCtx call counts their
// construction.
//
// BenchmarkSpectrumOfSets is the replicate mine's own stage: the index
// build and mine of evolved replicates, with no evolution timed.
//
// Run with: go test -bench='EvolveRun|EnsembleReplicates|SpectrumOfSets' -benchmem

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"cuisinevol/internal/evomodel"
	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/itemset"
)

// benchSimSetup derives KOR-view model parameters for the kind.
func benchSimSetup(b *testing.B, kind evomodel.Kind) (evomodel.Params, *ingredient.Lexicon) {
	b.Helper()
	corpus := corpusForBench(b)
	return evomodel.ParamsForView(corpus.Region("KOR"), kind, 7), corpus.Lexicon()
}

// warmOnEveryP makes pooled scratch survive until the timer starts, so
// a 1-iteration alloc gate prices the steady state instead of a cold
// sync.Pool fill. It first collects garbage: set-up such as the first
// corpus generation leaves a collection due, and a collection after the
// warm-up moves the pools to their victim caches, a second empties
// them. It then runs fn on 2×GOMAXPROCS goroutines released together,
// for a few rounds, parking scratch on every P: a single serial warm-up
// leaves its one object in the current P's private slot, which a Get
// on another P cannot steal after the benchmark goroutine migrates.
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

// BenchmarkEvolveRun measures one full model evolution (no mining).
func BenchmarkEvolveRun(b *testing.B) {
	for _, kind := range evomodel.Kinds() {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			p, lex := benchSimSetup(b, kind)
			warmOnEveryP(b, func() error {
				_, err := evomodel.Run(p, lex)
				return err
			})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := evomodel.Run(p, lex); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEnsembleReplicates measures the evolve→mine replicate
// ensemble (benchReplicates runs, parallel workers, zero-copy handoff).
func BenchmarkEnsembleReplicates(b *testing.B) {
	for _, kind := range evomodel.Kinds() {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			p, lex := benchSimSetup(b, kind)
			cfg := evomodel.EnsembleConfig{
				Params:     p,
				Replicates: benchReplicates,
				MinSupport: 0.05,
			}
			warmOnEveryP(b, func() error {
				_, err := evomodel.RunEnsembleCtx(context.Background(), cfg, lex)
				return err
			})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := evomodel.RunEnsembleCtx(context.Background(), cfg, lex); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSpectrumOfSets times only IndexBuilder.SpectrumOfSets, the
// stage each Fig 4 replicate mines through, at the replicates' 5%
// support and through one reused builder. One ITA CM-R and one NM
// replicate are evolved before the timer, and each iteration mines
// both, as ingredient or as category transactions.
func BenchmarkSpectrumOfSets(b *testing.B) {
	corpus := corpusForBench(b)
	lex := corpus.Lexicon()
	var ingredients, categories [][][]ingredient.ID
	for _, kind := range []evomodel.Kind{evomodel.CMRandom, evomodel.NullModel} {
		txs, err := evomodel.Run(evomodel.ParamsForView(corpus.Region("ITA"), kind, 7), lex)
		if err != nil {
			b.Fatal(err)
		}
		cats := make([][]ingredient.ID, len(txs))
		for i, tx := range txs {
			var mask uint32
			for _, id := range tx {
				mask |= 1 << lex.CategoryOf(id)
			}
			for c := ingredient.ID(0); mask != 0; c, mask = c+1, mask>>1 {
				if mask&1 != 0 {
					cats[i] = append(cats[i], c)
				}
			}
		}
		ingredients, categories = append(ingredients, txs), append(categories, cats)
	}
	for _, mode := range []struct {
		name  string
		pools [][][]ingredient.ID
		bound int
	}{
		{"ingredients", ingredients, lex.Len()},
		{"categories", categories, ingredient.NumCategories},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var ib itemset.IndexBuilder
			spectra := func() error {
				for _, txs := range mode.pools {
					if _, err := ib.SpectrumOfSets(txs, mode.bound, 0.05); err != nil {
						return err
					}
				}
				return nil
			}
			if err := spectra(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := spectra(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
