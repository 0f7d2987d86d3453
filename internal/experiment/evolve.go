package experiment

import (
	"context"
	"fmt"

	"cuisinevol/internal/evomodel"
	"cuisinevol/internal/rankfreq"
)

// EvolveResult is one evolution model's ensemble scored against one
// cuisine's empirical rank-frequency distribution.
type EvolveResult struct {
	Empirical rankfreq.Distribution
	Model     rankfreq.Distribution
	// MAE is the paper's Eq 2 distance between the two.
	MAE float64
}

// RunEvolve runs one model's cfg.Replicates-replicate ensemble for a
// region and scores its aggregate against the region's empirical
// spectrum with Eq 2: a single cell of Fig 4. The empirical mine runs
// directly on the shared index cache rather than as a scheduler item,
// so the only scheduled work, and the only work that can fail as a
// replicate, is the ensemble. Once ctx is cancelled no further
// replicates are scheduled and the call returns ctx.Err().
func RunEvolve(ctx context.Context, cfg *Config, region string, kind evomodel.Kind) (*EvolveResult, error) {
	corpus, err := cfg.Corpus()
	if err != nil {
		return nil, err
	}
	view := corpus.Region(region)
	if view.Len() == 0 {
		return nil, fmt.Errorf("region %q has no recipes", region)
	}
	minSupport := cfg.minSupport()
	emp, err := mineView(cfg.Indexes(), corpus, region, minSupport, false)
	if err != nil {
		return nil, err
	}
	model, err := evomodel.RunEnsembleCtx(ctx, evomodel.EnsembleConfig{
		Params:     evomodel.ParamsForView(view, kind, cfg.Seed),
		Replicates: cfg.replicates(),
		MinSupport: minSupport,
		Workers:    cfg.Workers,
	}, corpus.Lexicon())
	if err != nil {
		return nil, err
	}
	mae, err := rankfreq.PaperMAE(emp, model)
	if err != nil {
		return nil, err
	}
	return &EvolveResult{Empirical: emp, Model: model, MAE: mae}, nil
}
