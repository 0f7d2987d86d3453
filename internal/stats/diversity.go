package stats

import "errors"

// HeapsFit is the result of fitting Heaps' law V(n) = K * n^beta to a
// vocabulary-growth curve (unique ingredients V after n recipes).
// Sub-linear growth (beta < 1) is the signature real text-like corpora
// show; the evolution models' pool growth is linear by construction
// (beta ≈ 1 while reserve ingredients last).
type HeapsFit struct {
	K, Beta float64
	R2      float64
}

// ErrShortCurve is returned when a growth curve has fewer than two
// usable points.
var ErrShortCurve = errors.New("stats: growth curve too short to fit")

// FitHeaps fits Heaps' law to a vocabulary growth curve: curve[i] is the
// number of distinct types seen after i+1 tokens/recipes. The fit is
// least squares in log-log space.
func FitHeaps(curve []int) (HeapsFit, error) {
	var xs, ys []float64
	for i, v := range curve {
		if v > 0 {
			xs = append(xs, float64(i+1))
			ys = append(ys, float64(v))
		}
	}
	if len(xs) < 2 {
		return HeapsFit{}, ErrShortCurve
	}
	beta, k, r2, err := FitPowerLaw(xs, ys)
	if err != nil {
		return HeapsFit{}, err
	}
	return HeapsFit{K: k, Beta: beta, R2: r2}, nil
}

// VocabularyGrowth computes the growth curve from a transaction stream:
// result[i] is the number of distinct items seen in transactions[0..i].
func VocabularyGrowth[T comparable](transactions [][]T) []int {
	seen := make(map[T]struct{})
	out := make([]int, len(transactions))
	for i, tx := range transactions {
		for _, item := range tx {
			seen[item] = struct{}{}
		}
		out[i] = len(seen)
	}
	return out
}
