package evomodel

// Differential tests pinning the arena kernel byte-for-byte against the
// retained reference implementation (reference_test.go) on randomized
// parameters — the same differential proof pattern the itemset package
// uses for Eclat against Apriori. Because consecutive Run calls on one
// goroutine recycle the same free-listed machine, every iteration of these
// loops also exercises reset-after-reuse across differing parameter
// shapes; any state leaking between runs shows up as a divergence from
// the freshly constructed reference machine.

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/itemset"
	"cuisinevol/internal/randx"
	"cuisinevol/internal/rankfreq"
	"cuisinevol/internal/synth"
)

// allKinds is every model variant, paper and extended.
func allKinds() []Kind { return append(Kinds(), ExtendedKinds()...) }

// randomDiffParams draws a randomized-but-valid parameter set covering
// the full option surface: fixed vs prose iteration, duplicate-replace
// shrink, null-model sampling source, the MixtureRatio sentinel values,
// and the variable-size extension.
func randomDiffParams(src *randx.Source, kind Kind) Params {
	ids := lex.IDs()
	nIng := 40 + src.Intn(120)
	if nIng > len(ids) {
		nIng = len(ids)
	}
	p := Params{
		Kind:                  kind,
		Ingredients:           ids[:nIng],
		MeanRecipeSize:        3 + src.Intn(8),
		TargetRecipes:         50 + src.Intn(200),
		InitialPool:           5 + src.Intn(20),
		Phi:                   0.1 + src.Float64()*0.5,
		Seed:                  src.Uint64(),
		FixedIterations:       src.Float64() < 0.3,
		AllowDuplicateReplace: src.Float64() < 0.5,
		NullFromFullLexicon:   src.Float64() < 0.5,
	}
	switch src.Intn(4) {
	case 0:
		p.MixtureRatio = -1 // sentinel: paper default 0.5
	case 1:
		p.MixtureRatio = 0 // literal: always-random CM-M
	case 2:
		p.MixtureRatio = 0.3
	case 3:
		p.MixtureRatio = 1
	}
	if src.Float64() < 0.4 {
		p.InsertProb = src.Float64() * 0.3
		p.DeleteProb = src.Float64() * 0.3
	}
	return p
}

func TestKernelDifferentialRun(t *testing.T) {
	src := randx.New(0xD1FF)
	for _, kind := range allKinds() {
		for trial := 0; trial < 12; trial++ {
			p := randomDiffParams(src, kind)
			got, err := Run(p, lex)
			if err != nil {
				t.Fatalf("%v trial %d: arena: %v (params %+v)", kind, trial, err, p)
			}
			want, err := referenceRun(p, lex)
			if err != nil {
				t.Fatalf("%v trial %d: reference: %v", kind, trial, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v trial %d: arena kernel diverges from reference (params %+v)", kind, trial, p)
			}
		}
	}
}

func TestKernelDifferentialInspect(t *testing.T) {
	src := randx.New(0xD1FF + 1)
	for _, kind := range allKinds() {
		for trial := 0; trial < 4; trial++ {
			p := randomDiffParams(src, kind)
			gotTxs, gotState, err := Inspect(p, lex)
			if err != nil {
				t.Fatalf("%v trial %d: arena: %v", kind, trial, err)
			}
			wantTxs, wantState, err := referenceInspect(p, lex)
			if err != nil {
				t.Fatalf("%v trial %d: reference: %v", kind, trial, err)
			}
			if !reflect.DeepEqual(gotTxs, wantTxs) {
				t.Fatalf("%v trial %d: transactions diverge (params %+v)", kind, trial, p)
			}
			if gotState != wantState {
				t.Fatalf("%v trial %d: pool state %+v, want %+v (params %+v)", kind, trial, gotState, wantState, p)
			}
		}
	}
}

func TestKernelDifferentialLineage(t *testing.T) {
	src := randx.New(0xD1FF + 2)
	for _, kind := range allKinds() {
		for trial := 0; trial < 6; trial++ {
			p := randomDiffParams(src, kind)
			gotTxs, gotLin, err := RunWithLineage(p, lex)
			if err != nil {
				t.Fatalf("%v trial %d: arena: %v", kind, trial, err)
			}
			wantTxs, wantLin, err := referenceRunWithLineage(p, lex)
			if err != nil {
				t.Fatalf("%v trial %d: reference: %v", kind, trial, err)
			}
			if !reflect.DeepEqual(gotTxs, wantTxs) {
				t.Fatalf("%v trial %d: transactions diverge (params %+v)", kind, trial, p)
			}
			if gotLin.InitialPool != wantLin.InitialPool {
				t.Fatalf("%v trial %d: InitialPool %d, want %d", kind, trial, gotLin.InitialPool, wantLin.InitialPool)
			}
			if !reflect.DeepEqual(gotLin.Mothers, wantLin.Mothers) {
				t.Fatalf("%v trial %d: mothers diverge (params %+v)", kind, trial, p)
			}
		}
	}
}

// referenceEnsemble recomputes runEnsemble's aggregate by composing
// reference-kernel replicates sequentially — the ground truth for the
// zero-copy evolve→mine handoff in runReplicate.
func referenceEnsemble(t *testing.T, cfg EnsembleConfig) rankfreq.Distribution {
	t.Helper()
	label := cfg.Label
	if label == "" {
		label = cfg.Params.Kind.String()
	}
	dists := make([]rankfreq.Distribution, cfg.Replicates)
	for rep := range dists {
		p := cfg.Params
		p.Seed = replicateSeed(p.Seed, rep)
		txs, err := referenceRun(p, lex)
		if err != nil {
			t.Fatalf("reference replicate %d: %v", rep, err)
		}
		if cfg.Categories {
			txs = toCategoryTransactions(txs, lex)
		}
		res, err := itemset.Mine(txs, cfg.MinSupport, itemset.MineOptions{})
		if err != nil {
			t.Fatalf("reference replicate %d: %v", rep, err)
		}
		dists[rep] = rankfreq.Distribution{Label: label, Freqs: res.Supports()}
	}
	return rankfreq.Aggregate(dists)
}

// TestReplicateBuilderReuse pins the replicate pipeline's builder
// reuse: one replicate state, handed replicate after replicate exactly
// as a scheduler worker is — ingredient and category emissions
// interleaved, across every model kind and randomized shapes — must
// mine every spectrum equal to MineSpectrum over a BuildIndex of the
// same recipes sorted.
func TestReplicateBuilderReuse(t *testing.T) {
	src := randx.New(0xB111D)
	var reps Replicators
	for trial := 0; trial < 8; trial++ {
		for _, kind := range allKinds() {
			p := randomDiffParams(src, kind)
			if err := p.validate(); err != nil {
				t.Fatal(err)
			}
			r := reps.get()
			r.m.reset(p, lex, randx.New(p.Seed))
			r.m.evolve()
			for _, categories := range []bool{false, true} {
				bound := len(r.m.fitness)
				if categories {
					bound = ingredient.NumCategories
				}
				txs := r.recipes(categories)
				sorted := make([][]ingredient.ID, len(txs))
				for i, tx := range txs {
					sorted[i] = slices.Clone(tx)
					slices.Sort(sorted[i])
				}
				ix, err := itemset.BuildIndex(sorted)
				if err != nil {
					t.Fatal(err)
				}
				want, err := itemset.MineSpectrum(ix, 0.05, itemset.MineOptions{})
				if err != nil {
					t.Fatal(err)
				}
				got, err := r.b.SpectrumOfSets(txs, bound, 0.05)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%v trial %d categories=%v: reused builder's spectrum differs from one over the sorted recipes", kind, trial, categories)
				}
			}
			reps.put(r)
		}
	}
}

// TestReplicateSpectrumDifferential is the replicate contract: over
// every kind, ingredient and category mode, one and three workers,
// several seeds and regions, and three supports, each replicate's
// distribution — mined by SpectrumOfSets off the unsorted arena — must
// equal the one mined off a BuildIndex of the replicate's sorted
// recipes (Run's output, mapped to category sets in category mode). At 1% some ingredient replicate has more than 64 frequent
// items, so its masks are two words wide; at 30% some recipe holds no
// frequent item and projects to nothing.
func TestReplicateSpectrumDifferential(t *testing.T) {
	gen := synth.DefaultConfig(42)
	gen.RecipeScale = 0.05
	corpus, err := synth.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	wide, empty := false, false
	for _, region := range []string{"ITA", "KOR", "MEX"} {
		view := corpus.Region(region)
		for _, seed := range []uint64{1, 77} {
			for _, kind := range allKinds() {
				for _, categories := range []bool{false, true} {
					for _, sup := range []float64{0.01, 0.05, 0.3} {
						cfg := EnsembleConfig{
							Params:     ParamsForView(view, kind, seed),
							Replicates: 3,
							MinSupport: sup,
							Categories: categories,
						}
						want := make([]rankfreq.Distribution, cfg.Replicates)
						for rep := range want {
							p := cfg.Params
							p.Seed = replicateSeed(p.Seed, rep)
							txs, err := Run(p, corpus.Lexicon())
							if err != nil {
								t.Fatal(err)
							}
							if categories {
								txs = toCategoryTransactions(txs, corpus.Lexicon())
							}
							ix, err := itemset.BuildIndex(txs)
							if err != nil {
								t.Fatal(err)
							}
							frequent, projectsEmpty := projection(ix, txs, sup)
							wide = wide || frequent > 64
							empty = empty || projectsEmpty
							sp, err := itemset.MineSpectrum(ix, cfg.MinSupport, itemset.MineOptions{})
							if err != nil {
								t.Fatal(err)
							}
							want[rep] = rankfreq.FromSpectrum(kind.String(), sp)
						}
						for _, workers := range []int{1, 3} {
							label := fmt.Sprintf("%s seed %d %v categories=%v support %v workers=%d", region, seed, kind, categories, sup, workers)
							cfg.Workers = workers
							if got := replicateDists(t, cfg, corpus.Lexicon()); !reflect.DeepEqual(got, want) {
								t.Fatalf("%s: replicate spectra differ from BuildIndex over the sorted recipes", label)
							}
						}
					}
				}
			}
		}
	}
	if !wide || !empty {
		t.Fatalf("some replicate has more than 64 frequent items: %v; some recipe projects to nothing: %v; want both", wide, empty)
	}
}

// projection returns how many items of ix are frequent at sup, and
// whether some transaction of txs holds none of them.
func projection(ix *itemset.Index, txs [][]ingredient.ID, sup float64) (frequent int, projectsEmpty bool) {
	minCount := max(int(math.Ceil(sup*float64(ix.N())-1e-9)), 1)
	isFrequent := func(it ingredient.ID) bool { return ix.Support(it) >= minCount }
	for _, tx := range txs {
		if !slices.ContainsFunc(tx, isFrequent) {
			projectsEmpty = true
		}
	}
	seen := make(map[ingredient.ID]bool)
	for _, tx := range txs {
		for _, it := range tx {
			if !seen[it] && isFrequent(it) {
				frequent++
			}
			seen[it] = true
		}
	}
	return frequent, projectsEmpty
}

func TestKernelDifferentialEnsemble(t *testing.T) {
	src := randx.New(0xD1FF + 3)
	for _, categories := range []bool{false, true} {
		for _, kind := range []Kind{CMRandom, CMCategory, CMMixture, NullModel, KinouchiOriginal} {
			cfg := EnsembleConfig{
				Params:     randomDiffParams(src, kind),
				Replicates: 6,
				MinSupport: 0.05,
				Categories: categories,
				Workers:    3,
			}
			got, err := RunEnsembleCtx(context.Background(), cfg, lex)
			if err != nil {
				t.Fatalf("%v categories=%v: %v", kind, categories, err)
			}
			want := referenceEnsemble(t, cfg)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v categories=%v: parallel zero-copy ensemble diverges from reference composition", kind, categories)
			}
		}
	}
}

// TestKernelDifferentialInterleaved hammers machine reuse: the
// same goroutine runs wildly differing parameter shapes back-to-back
// (large then small ingredient sets, lineage on and off, category
// emission between ingredient emissions) and every single output must
// still match a fresh reference machine.
func TestKernelDifferentialInterleaved(t *testing.T) {
	src := randx.New(0xD1FF + 4)
	kinds := allKinds()
	for trial := 0; trial < 40; trial++ {
		kind := kinds[src.Intn(len(kinds))]
		p := randomDiffParams(src, kind)
		switch trial % 3 {
		case 0:
			got, err := Run(p, lex)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			want, _ := referenceRun(p, lex)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d (%v): Run diverges after reuse (params %+v)", trial, kind, p)
			}
		case 1:
			got, gotLin, err := RunWithLineage(p, lex)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			want, wantLin, _ := referenceRunWithLineage(p, lex)
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotLin.Mothers, wantLin.Mothers) {
				t.Fatalf("trial %d (%v): RunWithLineage diverges after reuse (params %+v)", trial, kind, p)
			}
		case 2:
			cfg := EnsembleConfig{Params: p, Replicates: 2, MinSupport: 0.05, Categories: trial%2 == 0, Workers: 1}
			got, err := RunEnsembleCtx(context.Background(), cfg, lex)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			want := referenceEnsemble(t, cfg)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d (%v): ensemble diverges after reuse", trial, kind)
			}
		}
	}
}

// TestEmittedTransactionsIndependent guards the contract difference
// between the public and internal emission paths: Run's result must stay
// valid after unrelated runs recycle the machine that produced it.
func TestEmittedTransactionsIndependent(t *testing.T) {
	p := testParams(CMRandom, 99)
	got, err := Run(p, lex)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := make([][]ingredient.ID, len(got))
	for i, tx := range got {
		snapshot[i] = append([]ingredient.ID(nil), tx...)
	}
	// Churn the machine pool with different shapes.
	for s := uint64(0); s < 4; s++ {
		if _, err := Run(testParams(CMCategory, s), lex); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(got, snapshot) {
		t.Fatal("Run output mutated by subsequent runs on the reused machine")
	}
}
