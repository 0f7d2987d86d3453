package experiment

import (
	"fmt"
	"strings"

	"cuisinevol/internal/evomodel"
)

// Summary reports Table I reproduction quality.
func (r *TableIResult) Summary() string {
	exact := 0
	for _, row := range r.Rows {
		if row.Matches == len(row.PaperTop) {
			exact++
		}
	}
	return fmt.Sprintf(
		"Table I: %d cuisines, %d recipes total (avg %.0f/cuisine, avg %.0f ingredients); top-overrepresented lists fully matching the paper: %d/%d",
		len(r.Rows), r.TotalRecipes, r.AvgRecipes, r.AvgIngredients, exact, len(r.Rows))
}

// Summary reports the Fig 1 headline numbers.
func (r *Fig1Result) Summary() string {
	return fmt.Sprintf(
		"Fig 1: recipe sizes bounded [%d, %d], mean %.2f (paper: [2, 38], ~9), SD %.2f, KS vs normal D=%.4f",
		r.MinSize, r.MaxSize, r.Mean, r.SD, r.KSStatistic)
}

// Summary reports the Fig 2 leading categories.
func (r *Fig2Result) Summary() string {
	names := make([]string, 0, 7)
	for _, c := range r.Leading[:7] {
		names = append(names, c.String())
	}
	return "Fig 2: leading categories across cuisines: " + strings.Join(names, ", ")
}

// Summary reports the Fig 3 invariance numbers.
func (r *Fig3Result) Summary() string {
	return fmt.Sprintf(
		"Fig 3: mean pairwise MAE %.4f for ingredient combinations (paper: 0.035) and %.4f for category combinations (paper: 0.052); most distinct cuisines: %s, %s",
		r.Ingredients.MeanMAE, r.Categories.MeanMAE,
		r.Ingredients.MostDistinct[0], r.Ingredients.MostDistinct[1])
}

// Summary reports the Fig 4 model-comparison outcome.
func (r *Fig4Result) Summary() string {
	wins := make([]string, 0, len(r.BestCounts))
	for _, kind := range evomodel.Kinds() {
		if n := r.BestCounts[kind]; n > 0 {
			wins = append(wins, fmt.Sprintf("%s wins %d", kind, n))
		}
	}
	label := "ingredient combinations"
	if r.Categories {
		label = "category combinations (control)"
	}
	return fmt.Sprintf("Fig 4 (%s): null model worst in every cuisine: %v; %s",
		label, r.NullWorstEverywhere, strings.Join(wins, ", "))
}
