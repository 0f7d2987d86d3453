package evomodel

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/rankfreq"
	"cuisinevol/internal/sched"
)

func testEnsembleConfig(kind Kind) EnsembleConfig {
	return EnsembleConfig{
		Params:     testParams(kind, 42),
		Replicates: 8,
		MinSupport: 0.05,
	}
}

func TestRunEnsembleDeterministic(t *testing.T) {
	a, err := RunEnsembleCtx(context.Background(), testEnsembleConfig(CMRandom), lex)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunEnsembleCtx(context.Background(), testEnsembleConfig(CMRandom), lex)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("ensembles with equal config differ")
	}
}

func TestRunEnsembleParallelismInvariant(t *testing.T) {
	cfg := testEnsembleConfig(CMMixture)
	cfg.Workers = 1
	serial, err := RunEnsembleCtx(context.Background(), cfg, lex)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	parallel, err := RunEnsembleCtx(context.Background(), cfg, lex)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("result depends on worker count")
	}
}

func TestRunEnsembleValidDistribution(t *testing.T) {
	for _, kind := range Kinds() {
		d, err := RunEnsembleCtx(context.Background(), testEnsembleConfig(kind), lex)
		if err != nil {
			t.Fatal(err)
		}
		if d.Len() == 0 {
			t.Fatalf("%v: empty aggregated distribution", kind)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if d.Label != kind.String() {
			t.Fatalf("label = %q", d.Label)
		}
	}
}

func TestRunEnsembleCustomLabel(t *testing.T) {
	cfg := testEnsembleConfig(CMRandom)
	cfg.Label = "custom"
	d, err := RunEnsembleCtx(context.Background(), cfg, lex)
	if err != nil {
		t.Fatal(err)
	}
	if d.Label != "custom" {
		t.Fatalf("label = %q", d.Label)
	}
}

func TestRunEnsembleCategories(t *testing.T) {
	cfg := testEnsembleConfig(CMCategory)
	cfg.Categories = true
	d, err := RunEnsembleCtx(context.Background(), cfg, lex)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() == 0 {
		t.Fatal("no category combinations mined")
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Category combinations are far fewer than ingredient combinations.
	di, err := RunEnsembleCtx(context.Background(), testEnsembleConfig(CMCategory), lex)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() >= di.Len()*4 {
		t.Fatalf("category distribution suspiciously long: %d vs ingredient %d", d.Len(), di.Len())
	}
}

func TestRunEnsembleErrors(t *testing.T) {
	cfg := testEnsembleConfig(CMRandom)
	cfg.Replicates = 0
	if _, err := RunEnsembleCtx(context.Background(), cfg, lex); err == nil {
		t.Fatal("zero replicates accepted")
	}
	cfg = testEnsembleConfig(CMRandom)
	cfg.MinSupport = 0
	if _, err := RunEnsembleCtx(context.Background(), cfg, lex); err == nil {
		t.Fatal("zero support accepted")
	}
	cfg = testEnsembleConfig(CMRandom)
	cfg.Params.Ingredients = nil
	if _, err := RunEnsembleCtx(context.Background(), cfg, lex); err == nil {
		t.Fatal("bad params accepted")
	}
}

func TestReplicateSeedsDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for rep := 0; rep < 1000; rep++ {
		s := replicateSeed(42, rep)
		if seen[s] {
			t.Fatalf("replicate seed collision at %d", rep)
		}
		seen[s] = true
	}
}

// toCategoryTransactions maps ingredient transactions to sorted distinct
// category sets (as ingredient.ID-compatible ints), the representation
// used by the category-combination analyses.
func toCategoryTransactions(txs [][]ingredient.ID, lex *ingredient.Lexicon) [][]ingredient.ID {
	out := make([][]ingredient.ID, len(txs))
	for i, tx := range txs {
		var present [ingredient.NumCategories]bool
		for _, id := range tx {
			present[lex.CategoryOf(id)] = true
		}
		cats := make([]ingredient.ID, 0, 8)
		for c, ok := range present {
			if ok {
				cats = append(cats, ingredient.ID(c))
			}
		}
		out[i] = cats
	}
	return out
}

func TestToCategoryTransactions(t *testing.T) {
	tomato := lex.MustID("tomato")
	onion := lex.MustID("onion")
	basil := lex.MustID("basil")
	txs := [][]ingredient.ID{{tomato, onion, basil}}
	got := toCategoryTransactions(txs, lex)
	want := []ingredient.ID{
		ingredient.ID(ingredient.Vegetable),
		ingredient.ID(ingredient.Herb),
	}
	// Output must be ascending category indices; Vegetable=0 < Herb.
	if len(got[0]) != 2 || got[0][0] != want[0] || got[0][1] != want[1] {
		t.Fatalf("category tx = %v, want %v", got[0], want)
	}
}

// TestReplicatorsKeepBound pins the retention of the process-wide list
// behind Run: a bounded list drops a state put back once it is full,
// and runs keeps at most GOMAXPROCS free states. A per-call list (keep
// 0) keeps every state its call ran at once.
func TestReplicatorsKeepBound(t *testing.T) {
	bounded := Replicators{keep: 2}
	unbounded := Replicators{}
	var states []*replicator
	for range 3 {
		states = append(states, bounded.get())
	}
	for _, r := range states {
		bounded.put(r)
		unbounded.put(r)
	}
	if len(bounded.free) != 2 || len(unbounded.free) != 3 {
		t.Fatalf("free states: bounded %d (want 2), unbounded %d (want 3)", len(bounded.free), len(unbounded.free))
	}
	if runs.keep != runtime.GOMAXPROCS(0) {
		t.Fatalf("runs keeps %d free states, want GOMAXPROCS = %d", runs.keep, runtime.GOMAXPROCS(0))
	}
}

// TestNullModelCliffVsCopyMutateTail reproduces the qualitative Fig 4
// contrast at test scale: the null model's combination rank-frequency
// declines rapidly and abruptly, the copy-mutate models' gradually. We
// quantify via the tail mass beyond rank 10 relative to the head.
func TestNullModelCliffVsCopyMutateTail(t *testing.T) {
	length := func(kind Kind) int {
		d, err := RunEnsembleCtx(context.Background(), testEnsembleConfig(kind), lex)
		if err != nil {
			t.Fatal(err)
		}
		return d.Len()
	}
	nm := length(NullModel)
	for _, kind := range []Kind{CMRandom, CMCategory, CMMixture} {
		if cm := length(kind); cm <= nm {
			t.Fatalf("%v frequent-combination count %d not above NM %d", kind, cm, nm)
		}
	}
}

func BenchmarkRunCMRandom(b *testing.B) {
	p := testParams(CMRandom, 1)
	for i := 0; i < b.N; i++ {
		if _, err := Run(p, lex); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnsemble8Replicates(b *testing.B) {
	cfg := testEnsembleConfig(CMRandom)
	for i := 0; i < b.N; i++ {
		if _, err := RunEnsembleCtx(context.Background(), cfg, lex); err != nil {
			b.Fatal(err)
		}
	}
}

// replicateDists runs every replicate of cfg through
// ReplicateDistribution, fanned out over cfg.Workers, for tests that
// compare per-replicate spectra.
func replicateDists(t *testing.T, cfg EnsembleConfig, lex *ingredient.Lexicon) []rankfreq.Distribution {
	t.Helper()
	var reps Replicators
	dists, err := sched.CollectCtx(context.Background(), cfg.Workers, cfg.Replicates, func(rep int) (rankfreq.Distribution, error) {
		return ReplicateDistribution(cfg, lex, rep, &reps)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dists
}

// TestEnsembleReplicatesAggregate: replicates dispatched one at a time
// aggregate to RunEnsembleCtx's distribution, and each one keeps its
// own distance from that aggregate.
func TestEnsembleReplicatesAggregate(t *testing.T) {
	cfg := testEnsembleConfig(CMRandom)
	dists := replicateDists(t, cfg, lex)
	agg, err := RunEnsembleCtx(context.Background(), cfg, lex)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(agg, rankfreq.Aggregate(dists)) {
		t.Fatal("aggregated replicates differ from RunEnsembleCtx")
	}
	spread := 0.0
	for _, rep := range dists {
		d, err := rankfreq.PaperMAE(agg, rep)
		if err != nil {
			t.Fatal(err)
		}
		if d < 0 {
			t.Fatal("negative distance")
		}
		spread += d
	}
	if spread == 0 {
		t.Fatal("replicates identical to the aggregate — dispersion lost")
	}
}
