package experiment

import (
	"context"
	"fmt"
	"io"
	"sort"

	"cuisinevol/internal/cuisine"
	"cuisinevol/internal/itemset"
	"cuisinevol/internal/plot"
	"cuisinevol/internal/rankfreq"
	"cuisinevol/internal/recipe"
	"cuisinevol/internal/report"
	"cuisinevol/internal/sched"
)

// Fig3Panel is one panel of Fig 3: rank-frequency distributions of
// frequent combinations for every cuisine, plus the pairwise Eq 2 matrix.
type Fig3Panel struct {
	// Dists holds one distribution per cuisine in Table I order, plus the
	// aggregate over all recipes (labeled "ALL") last.
	Dists []rankfreq.Distribution
	// Matrix is the pairwise Eq 2 matrix over the 25 cuisines (aggregate
	// excluded).
	Matrix rankfreq.Matrix
	// MeanMAE is the matrix's off-diagonal mean (the paper reports 0.035
	// for ingredients and 0.052 for categories).
	MeanMAE float64
	// MostDistinct lists cuisines by descending mean distance to the
	// others (the paper singles out Central America, Korea, ...).
	MostDistinct []string
}

// Fig3Result holds both panels of Fig 3.
type Fig3Result struct {
	Ingredients Fig3Panel // Fig 3a
	Categories  Fig3Panel // Fig 3b
}

// RunFig3Ctx reproduces Fig 3: invariance of the rank-frequency
// distributions of frequent ingredient and category combinations. The
// per-cuisine mining fan-out stops scheduling new work once ctx is
// cancelled and the call returns ctx.Err().
func RunFig3Ctx(ctx context.Context, cfg *Config) (*Fig3Result, error) {
	corpus, err := cfg.Corpus()
	if err != nil {
		return nil, err
	}
	minSupport := cfg.minSupport()
	res := &Fig3Result{}
	indexes := cfg.Indexes()
	res.Ingredients, err = buildPanel(ctx, corpus, indexes, minSupport, false, cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("experiment: fig3a: %w", err)
	}
	res.Categories, err = buildPanel(ctx, corpus, indexes, minSupport, true, cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("experiment: fig3b: %w", err)
	}

	for _, p := range []struct {
		name  string
		panel *Fig3Panel
	}{
		{"fig3a", &res.Ingredients},
		{"fig3b", &res.Categories},
	} {
		panel := p.panel
		name := p.name
		if err := cfg.writeArtifact(name+".svg", func(f io.Writer) error {
			chart := plot.SVGChart{
				Title:  fmt.Sprintf("Fig %s: rank-frequency of combinations (support >= %.0f%%)", name[3:], minSupport*100),
				XLabel: "Rank",
				YLabel: "Frequency (normalized)",
				LogX:   true,
				LogY:   true,
				Lines:  true,
			}
			for _, d := range panel.Dists {
				chart.Series = append(chart.Series, plot.RankSeries(d.Label, d.Freqs))
			}
			_, err := chart.WriteTo(f)
			return err
		}); err != nil {
			return nil, err
		}
		if err := cfg.writeArtifact(name+".csv", func(f io.Writer) error {
			series := make(map[string][]float64, len(panel.Dists))
			for _, d := range panel.Dists {
				series[d.Label] = d.Freqs
			}
			return report.WriteSeriesCSV(f, series, "cuisine", "rank", "frequency")
		}); err != nil {
			return nil, err
		}
		if err := cfg.writeArtifact(name+"_mae.csv", func(f io.Writer) error {
			return writeMatrixCSV(f, panel.Matrix)
		}); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// buildPanel mines each cuisine (and the aggregate corpus), builds the
// rank-frequency distributions and the pairwise matrix. The 25 cuisine
// mines plus the aggregate mine are independent work items fanned out
// through the shared scheduler; results land in Table I order, so the
// panel is identical to the serial build.
func buildPanel(ctx context.Context, corpus *recipe.Corpus, indexes *itemset.IndexCache, minSupport float64, categories bool, workers int) (Fig3Panel, error) {
	panel := Fig3Panel{}
	regions := cuisine.All()
	dists, err := sched.CollectCtx(ctx, workers, len(regions)+1, func(i int) (rankfreq.Distribution, error) {
		if i == len(regions) {
			// The aggregate corpus mine (the "ALL" series) is the largest
			// item; it runs alongside the per-cuisine mines.
			d, err := mineView(indexes, corpus, "", minSupport, categories)
			d.Label = "ALL"
			return d, err
		}
		return mineView(indexes, corpus, regions[i].Code, minSupport, categories)
	})
	if err != nil {
		return Fig3Panel{}, err
	}
	cuisineDists := dists[:len(regions)]
	panel.Dists = dists

	panel.Matrix, err = rankfreq.Pairwise(cuisineDists, rankfreq.PaperMAE)
	if err != nil {
		return Fig3Panel{}, err
	}
	panel.MeanMAE = panel.Matrix.MeanOffDiagonal()

	rows := panel.Matrix.RowMeans()
	type labeled struct {
		code string
		mean float64
	}
	order := make([]labeled, len(rows))
	for i, m := range rows {
		order[i] = labeled{panel.Matrix.Labels[i], m}
	}
	sort.Slice(order, func(i, j int) bool { return order[i].mean > order[j].mean })
	for _, o := range order {
		panel.MostDistinct = append(panel.MostDistinct, o.code)
	}
	return panel, nil
}

// mineView mines one corpus view's frequent-combination spectrum (region
// "" is the whole corpus) through the shared index cache and returns the
// rank-frequency distribution labeled with the region.
func mineView(indexes *itemset.IndexCache, corpus *recipe.Corpus, region string, minSupport float64, categories bool) (rankfreq.Distribution, error) {
	ix, err := ViewIndex(indexes, corpus, region, categories)
	if err != nil {
		return rankfreq.Distribution{}, err
	}
	sp, err := itemset.MineSpectrum(ix, minSupport, itemset.MineOptions{})
	if err != nil {
		return rankfreq.Distribution{}, err
	}
	return rankfreq.FromSpectrum(region, sp), nil
}

// writeMatrixCSV writes a labeled square matrix as CSV.
func writeMatrixCSV(f io.Writer, m rankfreq.Matrix) error {
	tbl := report.NewTable("", append([]string{"cuisine"}, m.Labels...)...)
	for i, row := range m.D {
		cells := make([]any, 0, len(row)+1)
		cells = append(cells, m.Labels[i])
		for _, v := range row {
			cells = append(cells, report.Float(v, 6))
		}
		tbl.AddRow(cells...)
	}
	return tbl.WriteCSV(f)
}
