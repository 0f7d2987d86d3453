package evomodel

import (
	"context"
	"errors"
	"fmt"

	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/itemset"
	"cuisinevol/internal/randx"
	"cuisinevol/internal/rankfreq"
	"cuisinevol/internal/sched"
)

// EnsembleConfig configures a replicate ensemble: the paper generates 100
// independent sets of model recipes per cuisine and studies the
// aggregated statistics.
type EnsembleConfig struct {
	Params Params
	// Replicates is the number of independent runs (paper: 100).
	Replicates int
	// MinSupport is the frequent-combination threshold (paper: 0.05).
	MinSupport float64
	// Categories switches mining from ingredient combinations to
	// ingredient-category combinations (the §VI control experiment).
	Categories bool
	// Workers bounds parallelism; 0 means GOMAXPROCS.
	Workers int
	// Kernel selects the mining kernel each replicate mine uses;
	// itemset.KernelAuto (the zero value) picks the cheaper one per
	// replicate corpus. Results are kernel-independent.
	Kernel itemset.Kernel
	// Label annotates the aggregated distribution (defaults to the model
	// kind's abbreviation).
	Label string
}

// RunEnsemble executes the configured replicates in parallel, mines each
// replicate's frequent combinations, and returns the rank-wise aggregated
// rank-frequency distribution.
//
// Replicate r uses seed Params.Seed + r mixed through the splittable RNG,
// so ensembles are reproducible and replicates independent.
func RunEnsemble(cfg EnsembleConfig, lex *ingredient.Lexicon) (rankfreq.Distribution, error) {
	agg, _, err := runEnsemble(context.Background(), cfg, lex)
	return agg, err
}

// RunEnsembleCtx is RunEnsemble with cooperative cancellation: once ctx
// is cancelled no further replicates are scheduled and the call returns
// ctx.Err(). Replicate seeding is unchanged, so a completed run is
// bit-identical to RunEnsemble.
func RunEnsembleCtx(ctx context.Context, cfg EnsembleConfig, lex *ingredient.Lexicon) (rankfreq.Distribution, error) {
	agg, _, err := runEnsemble(ctx, cfg, lex)
	return agg, err
}

// EnsembleDetail carries the aggregate plus the per-replicate
// distributions, for dispersion statistics over the ensemble.
type EnsembleDetail struct {
	Aggregate  rankfreq.Distribution
	Replicates []rankfreq.Distribution
}

// ReplicateDistances scores every replicate against a reference
// distribution with the given metric — the spread behind the aggregate's
// single Eq 2 value.
func (d *EnsembleDetail) ReplicateDistances(ref rankfreq.Distribution, metric rankfreq.Metric) ([]float64, error) {
	out := make([]float64, len(d.Replicates))
	for i, rep := range d.Replicates {
		v, err := metric(ref, rep)
		if err != nil {
			return nil, &ReplicateError{Model: d.Aggregate.Label, Replicate: i, Err: err}
		}
		out[i] = v
	}
	return out, nil
}

// RunEnsembleDetailed is RunEnsemble keeping the per-replicate
// distributions.
func RunEnsembleDetailed(cfg EnsembleConfig, lex *ingredient.Lexicon) (*EnsembleDetail, error) {
	agg, reps, err := runEnsemble(context.Background(), cfg, lex)
	if err != nil {
		return nil, err
	}
	return &EnsembleDetail{Aggregate: agg, Replicates: reps}, nil
}

func runEnsemble(ctx context.Context, cfg EnsembleConfig, lex *ingredient.Lexicon) (rankfreq.Distribution, []rankfreq.Distribution, error) {
	if cfg.Replicates < 1 {
		return rankfreq.Distribution{}, nil, fmt.Errorf("evomodel: Replicates must be >= 1, got %d", cfg.Replicates)
	}
	if cfg.MinSupport <= 0 || cfg.MinSupport > 1 {
		return rankfreq.Distribution{}, nil, fmt.Errorf("evomodel: MinSupport must be in (0,1], got %v", cfg.MinSupport)
	}
	label := cfg.Label
	if label == "" {
		label = cfg.Params.Kind.String()
	}

	dists := make([]rankfreq.Distribution, cfg.Replicates)
	var builders itemset.Builders
	if err := sched.RunCtx(ctx, cfg.Workers, cfg.Replicates, func(rep int) error {
		b := builders.Get()
		defer builders.Put(b)
		var err error
		dists[rep], err = runReplicate(cfg, lex, label, rep, b)
		if err != nil {
			return &ReplicateError{Model: label, Replicate: rep, Err: err}
		}
		return nil
	}); err != nil {
		// A hook-injected failure (sched's fault seam) bypasses the fn
		// wrapper above; re-wrap it so every replicate death, injected or
		// real, is the same typed error.
		var ie *sched.ItemError
		if errors.As(err, &ie) {
			err = &ReplicateError{Model: label, Replicate: ie.Item, Err: ie.Err}
		}
		return rankfreq.Distribution{}, nil, err
	}
	return rankfreq.Aggregate(dists), dists, nil
}

// ReplicateDistribution runs a single replicate of the configured
// ensemble and mines its combinations — the unit work item the shared
// scheduler fans out when a caller (RunFig4) flattens several ensembles
// into one (cuisine × kind × replicate) grid. Replicate rep derives its
// seed exactly as RunEnsemble does, so dispatching replicates
// individually and aggregating with rankfreq.Aggregate reproduces
// RunEnsemble's output bit for bit. The replicate's index is built with
// b, which the caller owns (one per worker, see itemset.Builders).
func ReplicateDistribution(cfg EnsembleConfig, lex *ingredient.Lexicon, rep int, b *itemset.IndexBuilder) (rankfreq.Distribution, error) {
	label := cfg.Label
	if label == "" {
		label = cfg.Params.Kind.String()
	}
	return runReplicate(cfg, lex, label, rep, b)
}

// runReplicate executes one model run and mines its combinations. This
// is the zero-copy evolve→mine boundary: the pooled machine emits
// sorted transactions (ingredient or category, per cfg.Categories)
// directly into its own reusable buffers, b indexes them into its own
// reused arenas, and MineSpectrum tallies the index's frequent-set
// counts — no per-recipe clone, no second sort, no per-replicate
// machine or index allocation, and no itemset built. The spectrum owns
// its counts, so nothing outlives the machine or the builder's next
// build.
func runReplicate(cfg EnsembleConfig, lex *ingredient.Lexicon, label string, rep int, b *itemset.IndexBuilder) (rankfreq.Distribution, error) {
	p := cfg.Params
	p.Seed = replicateSeed(p.Seed, rep)
	if err := p.validate(); err != nil {
		return rankfreq.Distribution{}, err
	}
	m := acquireMachine(p, lex, randx.New(p.Seed))
	defer releaseMachine(m)
	m.evolve()
	var txs [][]ingredient.ID
	if cfg.Categories {
		txs = m.emitCategoryTransactions()
	} else {
		txs = m.emitTransactions()
	}
	ix, err := b.Build(txs)
	if err != nil {
		return rankfreq.Distribution{}, err
	}
	sp, err := itemset.MineSpectrum(ix, cfg.MinSupport, itemset.MineOptions{Kernel: cfg.Kernel})
	if err != nil {
		return rankfreq.Distribution{}, err
	}
	return rankfreq.FromSpectrum(label, sp), nil
}

// replicateSeed derives the seed for replicate rep from the base seed
// (SplitMix64 step keyed by the replicate index).
func replicateSeed(base uint64, rep int) uint64 {
	z := base + uint64(rep+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
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
