package experiment

import (
	"context"
	"errors"
	"fmt"
	"io"

	"cuisinevol/internal/cuisine"
	"cuisinevol/internal/evomodel"
	"cuisinevol/internal/plot"
	"cuisinevol/internal/rankfreq"
	"cuisinevol/internal/report"
	"cuisinevol/internal/sched"
)

// Fig4Row is one cuisine's model comparison: the Eq 2 distance between
// the empirical rank-frequency distribution and each model's aggregated
// one.
type Fig4Row struct {
	Region string
	MAE    map[evomodel.Kind]float64
	Best   evomodel.Kind
}

// Fig4Result is the evolution-model comparison of Fig 4 (and, with
// Categories set, the §VI control on category combinations).
type Fig4Result struct {
	Categories bool
	Rows       []Fig4Row
	// Empirical and Models hold the underlying distributions per region
	// for plotting (Models[region][kind]).
	Empirical map[string]rankfreq.Distribution
	Models    map[string]map[evomodel.Kind]rankfreq.Distribution
	// NullWorstEverywhere reports whether NM had the highest MAE in every
	// cuisine (the paper's headline finding for ingredient combinations;
	// expected false for the category control).
	NullWorstEverywhere bool
	// BestCounts tallies how often each copy-mutate variant wins.
	BestCounts map[evomodel.Kind]int
}

// Fig4Options selects experiment variants.
type Fig4Options struct {
	// Kinds lists the models to compare (default: all four).
	Kinds []evomodel.Kind
	// Categories mines category combinations instead of ingredient
	// combinations (§VI control).
	Categories bool
	// Regions restricts the comparison (default: all 25).
	Regions []string
}

// RunFig4Ctx reproduces Fig 4: for each cuisine, the empirical
// rank-frequency distribution of frequent combinations against each
// model's 100-replicate aggregate, scored with Eq 2. The flattened
// (cuisine × kind × replicate) grid stops scheduling new replicates once
// ctx is cancelled and the call returns ctx.Err(), so an abandoned run
// stops burning CPU almost immediately instead of finishing thousands of
// model replicates nobody will read.
func RunFig4Ctx(ctx context.Context, cfg *Config, opts Fig4Options) (*Fig4Result, error) {
	corpus, err := cfg.Corpus()
	if err != nil {
		return nil, err
	}
	minSupport, replicates := cfg.minSupport(), cfg.replicates()
	kinds := opts.Kinds
	if len(kinds) == 0 {
		kinds = evomodel.Kinds()
	}
	regions := opts.Regions
	if len(regions) == 0 {
		regions = cuisine.Codes()
	}

	res := &Fig4Result{
		Categories: opts.Categories,
		Empirical:  make(map[string]rankfreq.Distribution, len(regions)),
		Models:     make(map[string]map[evomodel.Kind]rankfreq.Distribution, len(regions)),
		BestCounts: make(map[evomodel.Kind]int),
	}
	res.NullWorstEverywhere = true
	lex := corpus.Lexicon()

	// Build every ensemble config up front (deterministic, cheap), then
	// flatten the whole figure into one (cuisine × kind × replicate)
	// work-item grid under a single Workers budget. The old shape —
	// cuisines × kinds walked serially with parallelism only inside each
	// ensemble — drained the pool at every ensemble boundary; the flat
	// grid keeps all workers busy across the full pipeline. Replicate
	// seeds depend only on (Seed, rep), exactly as in RunEnsembleCtx, and
	// per-ensemble aggregation order is preserved, so outputs match the
	// serial path bit for bit.
	nK := len(kinds)
	ensembles := make([]evomodel.EnsembleConfig, len(regions)*nK)
	for r, code := range regions {
		view := corpus.Region(code)
		if view.Len() == 0 {
			return nil, fmt.Errorf("experiment: region %s missing from corpus", code)
		}
		// The view statistics are the same for every kind: derive them
		// once per region.
		base := evomodel.ParamsForView(view, kinds[0], cfg.Seed)
		for k, kind := range kinds {
			params := base
			params.Kind = kind
			ensembles[r*nK+k] = evomodel.EnsembleConfig{
				Params:     params,
				Replicates: replicates,
				MinSupport: minSupport,
				Categories: opts.Categories,
				Workers:    cfg.Workers,
			}
		}
	}

	// Empirical mines, one work item per cuisine, through the shared
	// corpus-index cache.
	indexes := cfg.Indexes()
	empirical, err := sched.CollectCtx(ctx, cfg.Workers, len(regions), func(r int) (rankfreq.Distribution, error) {
		return mineView(indexes, corpus, regions[r], minSupport, opts.Categories)
	})
	if err != nil {
		return nil, err
	}

	// Model replicates: item i = (region r, kind k, replicate rep).
	repDists := make([][]rankfreq.Distribution, len(ensembles))
	for e := range repDists {
		repDists[e] = make([]rankfreq.Distribution, replicates)
	}
	var reps evomodel.Replicators
	if err := sched.RunCtx(ctx, cfg.Workers, len(ensembles)*replicates, func(i int) error {
		e, rep := i/replicates, i%replicates
		d, err := evomodel.ReplicateDistribution(ensembles[e], lex, rep, &reps)
		if err != nil {
			return &evomodel.ReplicateError{
				Cuisine:   regions[e/nK],
				Model:     kinds[e%nK].String(),
				Replicate: rep,
				Err:       err,
			}
		}
		repDists[e][rep] = d
		return nil
	}); err != nil {
		// Hook-injected item failures bypass the wrapper above; decode the
		// flattened grid index back into (cuisine, kind, replicate).
		var ie *sched.ItemError
		if errors.As(err, &ie) {
			e, rep := ie.Item/replicates, ie.Item%replicates
			err = &evomodel.ReplicateError{
				Cuisine:   regions[e/nK],
				Model:     kinds[e%nK].String(),
				Replicate: rep,
				Err:       ie.Err,
			}
		}
		return nil, err
	}

	for r, code := range regions {
		res.Empirical[code] = empirical[r]
		res.Models[code] = make(map[evomodel.Kind]rankfreq.Distribution, len(kinds))

		row := Fig4Row{Region: code, MAE: make(map[evomodel.Kind]float64, len(kinds))}
		bestMAE := -1.0
		for k, kind := range kinds {
			dist := rankfreq.Aggregate(repDists[r*nK+k])
			res.Models[code][kind] = dist
			mae, err := rankfreq.PaperMAE(empirical[r], dist)
			if err != nil {
				return nil, fmt.Errorf("experiment: %s/%v: %w", code, kind, err)
			}
			row.MAE[kind] = mae
			if bestMAE < 0 || mae < bestMAE {
				bestMAE = mae
				row.Best = kind
			}
		}
		if nm, ok := row.MAE[evomodel.NullModel]; ok {
			for kind, mae := range row.MAE {
				if kind != evomodel.NullModel && mae >= nm {
					res.NullWorstEverywhere = false
				}
			}
		}
		res.BestCounts[row.Best]++
		res.Rows = append(res.Rows, row)
	}

	suffix := ""
	if opts.Categories {
		suffix = "_categories"
	}
	tbl := res.Table(kinds)
	if err := cfg.writeArtifact("fig4_mae"+suffix+".txt", tbl.WriteText); err != nil {
		return nil, err
	}
	if err := cfg.writeArtifact("fig4_mae"+suffix+".csv", tbl.WriteCSV); err != nil {
		return nil, err
	}
	for _, code := range regions {
		code := code
		if err := cfg.writeArtifact(fmt.Sprintf("fig4_%s%s.svg", code, suffix), func(f io.Writer) error {
			chart := plot.SVGChart{
				Title:  fmt.Sprintf("Fig 4: %s empirical vs evolution models", code),
				XLabel: "Rank",
				YLabel: "Frequency (normalized)",
				LogX:   true,
				LogY:   true,
				Lines:  true,
			}
			emp := res.Empirical[code]
			chart.Series = append(chart.Series, plot.RankSeries("empirical", emp.Freqs))
			for _, kind := range kinds {
				d := res.Models[code][kind]
				label := fmt.Sprintf("%s (MAE %.4f)", kind, res.rowFor(code).MAE[kind])
				chart.Series = append(chart.Series, plot.RankSeries(label, d.Freqs))
			}
			_, err := chart.WriteTo(f)
			return err
		}); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// rowFor returns the row for a region code.
func (r *Fig4Result) rowFor(code string) Fig4Row {
	for _, row := range r.Rows {
		if row.Region == code {
			return row
		}
	}
	return Fig4Row{}
}

// Table renders the per-cuisine model MAEs.
func (r *Fig4Result) Table(kinds []evomodel.Kind) *report.Table {
	title := "Fig 4: MAE between empirical and model rank-frequency distributions"
	if r.Categories {
		title = "§VI control: MAE on category combinations"
	}
	headers := []string{"Region"}
	for _, k := range kinds {
		headers = append(headers, k.String())
	}
	headers = append(headers, "Best")
	tbl := report.NewTable(title, headers...)
	for _, row := range r.Rows {
		cells := []any{row.Region}
		for _, k := range kinds {
			cells = append(cells, report.Float(row.MAE[k], 5))
		}
		cells = append(cells, row.Best.String())
		tbl.AddRow(cells...)
	}
	return tbl
}
