package experiment

import (
	"fmt"
	"io"
	"strings"

	"cuisinevol/internal/cuisine"
	"cuisinevol/internal/overrep"
	"cuisinevol/internal/report"
)

// TableIRow is one row of Table I: region statistics plus the top
// overrepresented ingredients.
type TableIRow struct {
	Code               string
	Name               string
	Recipes            int
	UniqueIngredients  int
	TopOverrepresented []string
	// PaperTop lists the ingredients the paper's Table I reports for the
	// region, for side-by-side comparison.
	PaperTop []string
	// Matches counts how many computed top-k entries appear in PaperTop.
	Matches int
}

// TableIResult is the reproduced Table I.
type TableIResult struct {
	Rows           []TableIRow
	TotalRecipes   int
	AvgRecipes     float64
	AvgIngredients float64
}

// RunTableI reproduces Table I: per-region recipe counts, unique
// ingredient counts, and the top-5 overrepresented ingredients (Eq 1).
// All document frequencies come off the shared corpus indexes — the
// same entries the serving layer and Fig 3 build — so a Table I run
// after any mine pays no corpus rescan at all.
func RunTableI(cfg *Config) (*TableIResult, error) {
	corpus, err := cfg.Corpus()
	if err != nil {
		return nil, err
	}
	indexes := cfg.Indexes()
	allIx, err := ViewIndex(indexes, corpus, "", false)
	if err != nil {
		return nil, err
	}
	analysis := overrep.NewFromIndex(corpus, allIx)
	res := &TableIResult{}
	var sumIng int
	for _, region := range cuisine.All() {
		view := corpus.Region(region.Code)
		if view.Len() == 0 {
			return nil, fmt.Errorf("experiment: region %s missing from corpus", region.Code)
		}
		regionIx, err := ViewIndex(indexes, corpus, region.Code, false)
		if err != nil {
			return nil, err
		}
		k := len(region.Overrepresented)
		top, err := analysis.TopKNamesFromIndex(region.Code, regionIx, k)
		if err != nil {
			return nil, err
		}
		paperSet := make(map[string]bool, k)
		for _, n := range region.Overrepresented {
			paperSet[n] = true
		}
		matches := 0
		for _, n := range top {
			if paperSet[n] {
				matches++
			}
		}
		res.Rows = append(res.Rows, TableIRow{
			Code:               region.Code,
			Name:               region.Name,
			Recipes:            regionIx.N(),
			UniqueIngredients:  regionIx.DistinctItems(),
			TopOverrepresented: top,
			PaperTop:           region.Overrepresented,
			Matches:            matches,
		})
		res.TotalRecipes += regionIx.N()
		sumIng += regionIx.DistinctItems()
	}
	res.AvgRecipes = float64(res.TotalRecipes) / float64(len(res.Rows))
	res.AvgIngredients = float64(sumIng) / float64(len(res.Rows))

	tbl := res.Table()
	if err := cfg.writeArtifact("table1.txt", tbl.WriteText); err != nil {
		return nil, err
	}
	if err := cfg.writeArtifact("table1.csv", tbl.WriteCSV); err != nil {
		return nil, err
	}
	if err := cfg.writeArtifact("table1.md", func(f io.Writer) error { return tbl.WriteMarkdown(f) }); err != nil {
		return nil, err
	}
	return res, nil
}

// Table renders the result in the paper's Table I layout.
func (r *TableIResult) Table() *report.Table {
	tbl := report.NewTable(
		"Table I: statistics and top overrepresented ingredients per cuisine",
		"Region (Code)", "Recipes", "Ingredients", "Overrepresented Ingredients", "Paper Match")
	for _, row := range r.Rows {
		tbl.AddRow(
			fmt.Sprintf("%s (%s)", row.Name, row.Code),
			row.Recipes,
			row.UniqueIngredients,
			strings.Join(row.TopOverrepresented, ", "),
			fmt.Sprintf("%d/%d", row.Matches, len(row.PaperTop)),
		)
	}
	tbl.AddRow("Average", report.Float(r.AvgRecipes, 0), report.Float(r.AvgIngredients, 0), "", "")
	return tbl
}
