package evomodel

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync"

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
	// Label annotates the aggregated distribution (defaults to the model
	// kind's abbreviation).
	Label string
}

// RunEnsembleCtx executes the configured replicates in parallel, mines
// each replicate's frequent combinations, and returns the rank-wise
// aggregated rank-frequency distribution. Once ctx is cancelled no
// further replicates are scheduled and the call returns ctx.Err().
//
// Replicate r uses seed Params.Seed + r mixed through the splittable RNG,
// so ensembles are reproducible and replicates independent.
func RunEnsembleCtx(ctx context.Context, cfg EnsembleConfig, lex *ingredient.Lexicon) (rankfreq.Distribution, error) {
	if cfg.Replicates < 1 {
		return rankfreq.Distribution{}, fmt.Errorf("evomodel: Replicates must be >= 1, got %d", cfg.Replicates)
	}
	if cfg.MinSupport <= 0 || cfg.MinSupport > 1 {
		return rankfreq.Distribution{}, fmt.Errorf("evomodel: MinSupport must be in (0,1], got %v", cfg.MinSupport)
	}
	label := cfg.Label
	if label == "" {
		label = cfg.Params.Kind.String()
	}

	dists := make([]rankfreq.Distribution, cfg.Replicates)
	var reps Replicators
	if err := sched.RunCtx(ctx, cfg.Workers, cfg.Replicates, func(rep int) error {
		r := reps.get()
		defer reps.put(r)
		var err error
		dists[rep], err = runReplicate(cfg, lex, label, rep, r)
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
		return rankfreq.Distribution{}, err
	}
	return rankfreq.Aggregate(dists), nil
}

// ReplicateDistribution runs a single replicate of the configured
// ensemble and mines its combinations — the unit work item the shared
// scheduler fans out when a caller (RunFig4Ctx) flattens several
// ensembles into one (cuisine × kind × replicate) grid. Replicate rep
// derives its seed exactly as RunEnsembleCtx does, so dispatching
// replicates individually and aggregating with rankfreq.Aggregate
// reproduces RunEnsembleCtx's output bit for bit. The replicate runs in
// a state taken from reps, which the caller declares once per fan-out.
func ReplicateDistribution(cfg EnsembleConfig, lex *ingredient.Lexicon, rep int, reps *Replicators) (rankfreq.Distribution, error) {
	label := cfg.Label
	if label == "" {
		label = cfg.Params.Kind.String()
	}
	r := reps.get()
	defer reps.put(r)
	return runReplicate(cfg, lex, label, rep, r)
}

// Replicators is a free list of replicate states scoped to one fan-out:
// the caller declares one per call, each work item takes a state and
// returns it, so the list never holds more states than the fan-out ran
// at once, and all of them are garbage once the call is done. A
// process-global sync.Pool would instead keep the states' arenas alive
// past the call, and lose them to any GC. A state is one worker's
// machine, the IndexBuilder its replicates are indexed with, and the
// buffers between the two. The zero value is an empty list;
// Replicators is safe for concurrent use.
type Replicators struct {
	mu   sync.Mutex
	free []*replicator
	// keep, when positive, bounds the free states the list retains: a
	// state put back into a full list is dropped.
	keep int
}

// replicator is one worker's replicate state.
type replicator struct {
	m     machine
	b     itemset.IndexBuilder
	heads [][]ingredient.ID // one transaction header per recipe
}

// get returns a free state, or a new one when all are in use.
func (l *Replicators) get() *replicator {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.free); n > 0 {
		r := l.free[n-1]
		l.free = l.free[:n-1]
		return r
	}
	return new(replicator)
}

// put returns r to the list, its machine released, or drops it when
// the list already keeps its bound.
func (l *Replicators) put(r *replicator) {
	r.m.release()
	l.mu.Lock()
	if l.keep <= 0 || len(l.free) < l.keep {
		l.free = append(l.free, r)
	}
	l.mu.Unlock()
}

// runReplicate executes one model run in r and mines its combinations.
// This is the zero-copy evolve→mine boundary: the builder reads the
// machine's recipes as they sit in its arena (or their category sets),
// unsorted, projects them onto the items frequent at the ensemble's
// support and mines the projection's spectrum in its reused arenas —
// no per-recipe clone, no sort, no per-replicate machine or index
// allocation, and no itemset built. The spectrum owns its counts, so
// nothing outlives the machine's next reset or the builder's next
// build.
func runReplicate(cfg EnsembleConfig, lex *ingredient.Lexicon, label string, rep int, r *replicator) (rankfreq.Distribution, error) {
	p := cfg.Params
	p.Seed = replicateSeed(p.Seed, rep)
	if err := p.validate(); err != nil {
		return rankfreq.Distribution{}, err
	}
	if err := r.m.reset(p, lex, randx.New(p.Seed)); err != nil {
		return rankfreq.Distribution{}, err
	}
	r.m.evolve()
	bound := len(r.m.fitness)
	if cfg.Categories {
		bound = ingredient.NumCategories
	}
	sp, err := r.b.SpectrumOfSets(r.recipes(cfg.Categories), bound, cfg.MinSupport)
	if err != nil {
		return rankfreq.Distribution{}, err
	}
	return rankfreq.FromSpectrum(label, sp), nil
}

// A recipe's category set is a uint32 mask.
var _ [32 - ingredient.NumCategories]struct{}

// recipes returns the machine's recipe pool as transactions for
// IndexBuilder.SpectrumOfSets, valid until the machine's next reset. In
// ingredient mode each header slices the arena in place, items in
// arena order; every item is below len(m.fitness). In category mode
// each recipe becomes its category set: a mask of the recipe's
// categories, written out bit by bit in ascending order over the
// recipe's own arena slots, which it never outgrows — so category mode
// consumes the arena, and nothing may read the recipes after it.
func (r *replicator) recipes(categories bool) [][]ingredient.ID {
	m := &r.m
	if cap(r.heads) < len(m.recs) {
		r.heads = make([][]ingredient.ID, len(m.recs))
	}
	heads := r.heads[:len(m.recs)]
	for i, h := range m.recs {
		tx := m.arena[h.off : h.off+h.n : h.off+h.n]
		if categories {
			var mask uint32
			for _, id := range tx {
				mask |= 1 << m.lex.CategoryOf(id)
			}
			tx = tx[:0]
			for ; mask != 0; mask &= mask - 1 {
				tx = append(tx, ingredient.ID(bits.TrailingZeros32(mask)))
			}
		}
		heads[i] = tx
	}
	return heads
}

// replicateSeed derives the seed for replicate rep from the base seed
// (SplitMix64 step keyed by the replicate index).
func replicateSeed(base uint64, rep int) uint64 {
	z := base + uint64(rep+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
