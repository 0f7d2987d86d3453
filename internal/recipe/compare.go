package recipe

import (
	"sort"

	"cuisinevol/internal/stats"
)

// Comparison quantifies the agreement between two corpora over the same
// lexicon — used to validate ingestion round-trips and to compare
// corpora generated with different seeds or parameters.
type Comparison struct {
	RecipesA, RecipesB int
	// RegionsOnlyA / RegionsOnlyB list region codes present in only one
	// corpus.
	RegionsOnlyA, RegionsOnlyB []string
	// PerRegion compares the shared regions, sorted by code.
	PerRegion []RegionComparison
}

// RegionComparison compares one shared region.
type RegionComparison struct {
	Region               string
	RecipesA, RecipesB   int
	MeanSizeA, MeanSizeB float64
	// UsageCorrelation is the Pearson correlation between the two
	// corpora's per-ingredient document frequencies (normalized by
	// recipe count); 1 means identical usage profiles up to scale.
	UsageCorrelation float64
	// UsageTV is the total-variation distance between the normalized
	// usage distributions; 0 means identical.
	UsageTV float64
}

// Compare computes the corpus comparison. Both corpora must share the
// lexicon (enforced by construction: ingredient IDs are lexicon-dense).
func Compare(a, b *Corpus) Comparison {
	cmp := Comparison{RecipesA: a.Len(), RecipesB: b.Len()}
	regionsA := a.Regions()
	regionsB := b.Regions()
	inB := make(map[string]bool, len(regionsB))
	for _, r := range regionsB {
		inB[r] = true
	}
	inA := make(map[string]bool, len(regionsA))
	for _, r := range regionsA {
		inA[r] = true
	}
	var shared []string
	for _, r := range regionsA {
		if inB[r] {
			shared = append(shared, r)
		} else {
			cmp.RegionsOnlyA = append(cmp.RegionsOnlyA, r)
		}
	}
	for _, r := range regionsB {
		if !inA[r] {
			cmp.RegionsOnlyB = append(cmp.RegionsOnlyB, r)
		}
	}
	sort.Strings(shared)
	for _, code := range shared {
		va, vb := a.Region(code), b.Region(code)
		rc := RegionComparison{
			Region:    code,
			RecipesA:  va.Len(),
			RecipesB:  vb.Len(),
			MeanSizeA: va.MeanSize(),
			MeanSizeB: vb.MeanSize(),
		}
		fa := usageFractions(va)
		fb := usageFractions(vb)
		rc.UsageCorrelation = stats.Pearson(fa, fb)
		rc.UsageTV = TotalVariation(fa, fb)
		cmp.PerRegion = append(cmp.PerRegion, rc)
	}
	return cmp
}

// usageFractions returns per-ingredient usage normalized to sum 1 (or
// all-zero for an empty view).
func usageFractions(v View) []float64 {
	counts := v.IngredientRecipeCounts()
	out := make([]float64, len(counts))
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return out
	}
	for i, c := range counts {
		out[i] = float64(c) / float64(total)
	}
	return out
}

// TotalVariation is half the L1 distance between two dense
// distributions of equal length, summed in index order so that equal
// inputs give bit-identical results.
func TotalVariation(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		diff := a[i] - b[i]
		if diff < 0 {
			diff = -diff
		}
		d += diff
	}
	return d / 2
}

// Identical reports whether the comparison shows exact per-region
// agreement (same recipe counts, usage TV ≈ 0 everywhere, no exclusive
// regions).
func (c Comparison) Identical(tol float64) bool {
	if len(c.RegionsOnlyA) > 0 || len(c.RegionsOnlyB) > 0 {
		return false
	}
	for _, rc := range c.PerRegion {
		if rc.RecipesA != rc.RecipesB || rc.UsageTV > tol {
			return false
		}
	}
	return true
}
