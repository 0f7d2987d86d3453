// Package rankfreq builds and compares rank-frequency distributions of
// frequent combinations (paper, §IV): combination supports normalized by
// the total number of recipes, sorted descending, indexed by rank. The
// pairwise distance of Eq 2 and its matrix/aggregate forms live here.
package rankfreq

import (
	"errors"
	"fmt"
	"math"

	"cuisinevol/internal/itemset"
)

// Distribution is a rank-frequency series: Freqs[r] is the normalized
// frequency (support) of the rank-(r+1) combination, non-increasing.
type Distribution struct {
	Label string
	Freqs []float64
}

// Len returns the number of ranks in the distribution.
func (d Distribution) Len() int { return len(d.Freqs) }

// FromSpectrum converts a mine's spectrum into a rank-frequency
// distribution: the supports of the full Result in canonical order
// (Result.Supports), with no set built and no sort.
func FromSpectrum(label string, sp itemset.Spectrum) Distribution {
	freqs := make([]float64, len(sp.Counts))
	for i, c := range sp.Counts {
		freqs[i] = float64(c) / float64(sp.N)
	}
	return Distribution{Label: label, Freqs: freqs}
}

// Validate checks that the distribution is non-increasing with values in
// [0, 1].
func (d Distribution) Validate() error {
	for i, f := range d.Freqs {
		if f < 0 || f > 1 || math.IsNaN(f) {
			return fmt.Errorf("rankfreq: %s rank %d has invalid frequency %v", d.Label, i+1, f)
		}
		if i > 0 && f > d.Freqs[i-1] {
			return fmt.Errorf("rankfreq: %s frequencies increase at rank %d", d.Label, i+1)
		}
	}
	return nil
}

// ErrEmpty is returned when comparing with an empty distribution.
var ErrEmpty = errors.New("rankfreq: empty distribution")

// PaperMAE computes the paper's Eq 2 between two distributions:
//
//	(1/r) Σᵢ (fᵢᵃ − fᵢᵇ)²  with r = the lowest rank present in both
//
// Note the formula the paper prints (and which we reproduce) is a mean of
// *squared* errors despite being called MAE in the text.
func PaperMAE(a, b Distribution) (float64, error) {
	r := min(a.Len(), b.Len())
	if r == 0 {
		return 0, ErrEmpty
	}
	sum := 0.0
	for i := 0; i < r; i++ {
		d := a.Freqs[i] - b.Freqs[i]
		sum += d * d
	}
	return sum / float64(r), nil
}

// TrueMAE computes a literal mean absolute error over the shared ranks —
// the quantity Eq 2's name suggests; provided for the metric ablation.
func TrueMAE(a, b Distribution) (float64, error) {
	r := min(a.Len(), b.Len())
	if r == 0 {
		return 0, ErrEmpty
	}
	sum := 0.0
	for i := 0; i < r; i++ {
		sum += math.Abs(a.Freqs[i] - b.Freqs[i])
	}
	return sum / float64(r), nil
}

// Metric is a pairwise distribution distance.
type Metric func(a, b Distribution) (float64, error)

// Matrix is a symmetric pairwise-distance matrix over labeled
// distributions.
type Matrix struct {
	Labels []string
	D      [][]float64
}

// Pairwise computes the full distance matrix of the distributions under
// the metric. The diagonal is zero.
func Pairwise(dists []Distribution, metric Metric) (Matrix, error) {
	n := len(dists)
	m := Matrix{Labels: make([]string, n), D: make([][]float64, n)}
	for i := range dists {
		m.Labels[i] = dists[i].Label
		m.D[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d, err := metric(dists[i], dists[j])
			if err != nil {
				return Matrix{}, fmt.Errorf("rankfreq: %s vs %s: %w", dists[i].Label, dists[j].Label, err)
			}
			m.D[i][j], m.D[j][i] = d, d
		}
	}
	return m, nil
}

// MeanOffDiagonal returns the average of the upper-triangle distances —
// the paper's "average MAE" across cuisine pairs (0.035 for ingredient
// combinations, 0.052 for category combinations).
func (m Matrix) MeanOffDiagonal() float64 {
	n := len(m.D)
	if n < 2 {
		return math.NaN()
	}
	sum, cnt := 0.0, 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			sum += m.D[i][j]
			cnt++
		}
	}
	return sum / float64(cnt)
}

// RowMeans returns, per label, the mean distance to all other labels;
// identifies the most idiosyncratic cuisines (the paper singles out
// Central America and Korea).
func (m Matrix) RowMeans() []float64 {
	n := len(m.D)
	out := make([]float64, n)
	if n < 2 {
		return out
	}
	for i := 0; i < n; i++ {
		sum := 0.0
		for j := 0; j < n; j++ {
			if j != i {
				sum += m.D[i][j]
			}
		}
		out[i] = sum / float64(n-1)
	}
	return out
}

// Aggregate averages replicate distributions rank-wise: the value at rank
// r is the mean frequency over all replicates that reach rank r. This is
// the "aggregated statistics" over the paper's 100 copy-mutate replicate
// sets. The aggregate's length is the maximum replicate length; its label
// is taken from the first replicate.
func Aggregate(dists []Distribution) Distribution {
	if len(dists) == 0 {
		return Distribution{}
	}
	maxLen := 0
	for _, d := range dists {
		if d.Len() > maxLen {
			maxLen = d.Len()
		}
	}
	freqs := make([]float64, maxLen)
	for r := 0; r < maxLen; r++ {
		sum, cnt := 0.0, 0
		for _, d := range dists {
			if r < d.Len() {
				sum += d.Freqs[r]
				cnt++
			}
		}
		freqs[r] = sum / float64(cnt)
	}
	// Rank-wise means of non-increasing series over nested supports can
	// break monotonicity at length boundaries; restore it so the result
	// is a valid distribution.
	for r := 1; r < maxLen; r++ {
		if freqs[r] > freqs[r-1] {
			freqs[r] = freqs[r-1]
		}
	}
	return Distribution{Label: dists[0].Label, Freqs: freqs}
}
