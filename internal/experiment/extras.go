package experiment

// Extension experiments beyond the paper's tables and figures: the
// food-pairing analysis from the motivating literature and the §VII
// horizontal-transmission sweep.

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"

	"cuisinevol/internal/cuisine"
	"cuisinevol/internal/evomodel"
	"cuisinevol/internal/flavor"
	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/recipe"
	"cuisinevol/internal/report"
)

// PairingRow is one cuisine's food-pairing outcome.
type PairingRow = flavor.PairingResult

// PairingResult is the 25-cuisine food-pairing analysis.
type PairingResult struct {
	Rows []PairingRow // Table I region order
	// PositiveCount and NegativeCount tally cuisines with |Z| > 3.
	PositiveCount, NegativeCount int
}

// RunPairing computes the food-pairing index for every cuisine against
// the given molecule profiles, with nRand random-recipe null replicates
// per cuisine.
func RunPairing(cfg *Config, profile *flavor.Profile, nRand int) (*PairingResult, error) {
	corpus, err := cfg.Corpus()
	if err != nil {
		return nil, err
	}
	res := &PairingResult{}
	for _, region := range cuisine.All() {
		row, err := flavor.AnalyzeCuisine(profile, corpus.Region(region.Code), nRand, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("experiment: pairing %s: %w", region.Code, err)
		}
		res.Rows = append(res.Rows, row)
		switch {
		case row.Z > 3:
			res.PositiveCount++
		case row.Z < -3:
			res.NegativeCount++
		}
	}
	if err := cfg.writeArtifact("pairing.csv", func(f io.Writer) error {
		tbl := report.NewTable("", "region", "real_mean", "rand_mean", "delta", "z")
		for _, r := range res.Rows {
			tbl.AddRow(r.Region, report.Float(r.RealMean, 4), report.Float(r.RandMean, 4),
				report.Float(r.Delta, 4), report.Float(r.Z, 2))
		}
		return tbl.WriteCSV(f)
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// HorizontalSweepPoint is one migration setting's homogenization level.
type HorizontalSweepPoint struct {
	Migration float64
	// UsageTV is the mean pairwise total-variation distance between the
	// regions' ingredient-usage profiles.
	UsageTV float64
}

// HorizontalSweepResult is the §VII horizontal-transmission sweep.
type HorizontalSweepResult struct {
	Regions []string
	Points  []HorizontalSweepPoint
	// Monotone reports whether homogenization increased monotonically
	// with migration.
	Monotone bool
}

// RunHorizontalSweep couples the given regions, at least two and each
// listed once, under the given model's dynamics and sweeps the migration
// probabilities in ascending order (sorting the slice in place).
// Homogenization is measured on which ingredients the regions use, not
// on the rank-frequency shape, which is already invariant across
// regions (the paper's §IV finding).
func RunHorizontalSweep(cfg *Config, kind evomodel.Kind, regions []string, migrations []float64) (*HorizontalSweepResult, error) {
	for i, code := range regions {
		if slices.Contains(regions[:i], code) {
			return nil, fmt.Errorf("experiment: region %s listed twice", code)
		}
	}
	if len(regions) < 2 {
		return nil, errors.New("experiment: a horizontal sweep needs at least two regions")
	}
	corpus, err := cfg.Corpus()
	if err != nil {
		return nil, err
	}
	sort.Float64s(migrations)
	params := make(map[string]evomodel.Params, len(regions))
	for _, code := range regions {
		view := corpus.Region(code)
		if view.Len() == 0 {
			return nil, fmt.Errorf("experiment: region %s missing from corpus", code)
		}
		params[code] = evomodel.ParamsForView(view, kind, 0)
	}
	res := &HorizontalSweepResult{Regions: regions, Monotone: true}
	for _, migration := range migrations {
		out, err := evomodel.RunHorizontal(evomodel.HorizontalConfig{
			Regions:   params,
			Migration: migration,
			Seed:      cfg.Seed,
		}, corpus.Lexicon())
		if err != nil {
			return nil, err
		}
		sum, n := 0.0, 0
		for i, a := range regions {
			for _, b := range regions[i+1:] {
				sum += UsageTV(out[a], out[b], corpus.Lexicon().Len())
				n++
			}
		}
		point := HorizontalSweepPoint{Migration: migration, UsageTV: sum / float64(n)}
		if len(res.Points) > 0 && point.UsageTV > res.Points[len(res.Points)-1].UsageTV {
			res.Monotone = false
		}
		res.Points = append(res.Points, point)
	}
	if err := cfg.writeArtifact("horizontal_sweep.csv", func(f io.Writer) error {
		tbl := report.NewTable("", "migration", "mean_usage_tv")
		for _, p := range res.Points {
			tbl.AddRow(report.Float(p.Migration, 2), report.Float(p.UsageTV, 4))
		}
		return tbl.WriteCSV(f)
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// usageProfile is the share of ingredient mentions that falls on each
// lexicon ID, indexed by ID.
func usageProfile(txs [][]ingredient.ID, lexiconLen int) []float64 {
	profile := make([]float64, lexiconLen)
	total := 0.0
	for _, tx := range txs {
		for _, id := range tx {
			profile[id]++
			total++
		}
	}
	for id := range profile {
		profile[id] /= total
	}
	return profile
}

// UsageTV is the total-variation distance between two recipe sets'
// ingredient-usage profiles over a lexicon of lexiconLen IDs. It is
// summed in ID order, so equal inputs give bit-identical results.
func UsageTV(a, b [][]ingredient.ID, lexiconLen int) float64 {
	return recipe.TotalVariation(usageProfile(a, lexiconLen), usageProfile(b, lexiconLen))
}
