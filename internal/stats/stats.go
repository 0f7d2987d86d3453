// Package stats implements the descriptive and inferential statistics used
// by the culinary-evolution analyses: moments, boxplot summaries, count
// histograms, the normal fit and its Kolmogorov–Smirnov test, correlation,
// and linear, power-law and Heaps' law regression.
//
// The package is deliberately self-contained (stdlib only) and operates on
// plain float64 slices so that every analysis module can use it without
// adapters.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by operations that require at least one observation.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean. It returns NaN for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance, or NaN if fewer than
// two observations are supplied.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Summary holds the first four standardized moments of a sample together
// with its extremes.
type Summary struct {
	N        int
	Mean     float64
	Variance float64 // unbiased
	StdDev   float64
	Skewness float64 // Fisher-Pearson g1
	Kurtosis float64 // excess kurtosis g2
	Min      float64
	Max      float64
}

// Summarize computes a Summary of xs. Skewness and kurtosis are NaN for
// samples smaller than 3 observations or with zero variance.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs), Skewness: math.NaN(), Kurtosis: math.NaN()}
	if s.N == 0 {
		s.Mean, s.Variance, s.StdDev = math.NaN(), math.NaN(), math.NaN()
		s.Min, s.Max = math.NaN(), math.NaN()
		return s
	}
	s.Min, s.Max = xs[0], xs[0]
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	var m2, m3, m4 float64
	for _, x := range xs {
		d := x - s.Mean
		d2 := d * d
		m2 += d2
		m3 += d2 * d
		m4 += d2 * d2
	}
	n := float64(s.N)
	m2 /= n
	m3 /= n
	m4 /= n
	if s.N >= 2 {
		s.Variance = m2 * n / (n - 1)
		s.StdDev = math.Sqrt(s.Variance)
	} else {
		s.Variance, s.StdDev = math.NaN(), math.NaN()
	}
	if s.N >= 3 && m2 > 0 {
		s.Skewness = m3 / math.Pow(m2, 1.5)
		s.Kurtosis = m4/(m2*m2) - 3
	}
	return s
}

func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	h := q * float64(n-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	frac := h - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Boxplot holds the five-number summary used for box-and-whisker plots
// (Fig 2 of the paper) plus the outliers beyond the 1.5×IQR whiskers.
type Boxplot struct {
	N            int
	Min, Max     float64 // sample extremes
	Q1, Med, Q3  float64
	WhiskLo      float64 // smallest observation >= Q1 - 1.5*IQR
	WhiskHi      float64 // largest observation <= Q3 + 1.5*IQR
	Outliers     []float64
	Mean, StdDev float64
}

// NewBoxplot computes a Boxplot summary of xs. It returns ErrEmpty for an
// empty sample.
func NewBoxplot(xs []float64) (Boxplot, error) {
	if len(xs) == 0 {
		return Boxplot{}, ErrEmpty
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	b := Boxplot{
		N:   len(sorted),
		Min: sorted[0],
		Max: sorted[len(sorted)-1],
		Q1:  quantileSorted(sorted, 0.25),
		Med: quantileSorted(sorted, 0.5),
		Q3:  quantileSorted(sorted, 0.75),
	}
	iqr := b.Q3 - b.Q1
	loFence := b.Q1 - 1.5*iqr
	hiFence := b.Q3 + 1.5*iqr
	b.WhiskLo, b.WhiskHi = b.Q3, b.Q1
	first := true
	for _, x := range sorted {
		if x < loFence || x > hiFence {
			b.Outliers = append(b.Outliers, x)
			continue
		}
		if first {
			b.WhiskLo = x
			first = false
		}
		b.WhiskHi = x
	}
	s := Summarize(sorted)
	b.Mean, b.StdDev = s.Mean, s.StdDev
	return b, nil
}

// CountHistogram tallies non-negative integer observations directly: index
// k holds the number of observations equal to k, up to max inclusive.
// Observations outside [0, max] are dropped. This matches the paper's
// recipe-size distribution (integers in [2, 38]).
func CountHistogram(xs []int, max int) []int {
	counts := make([]int, max+1)
	for _, x := range xs {
		if x >= 0 && x <= max {
			counts[x]++
		}
	}
	return counts
}

// NormalCDF evaluates the normal CDF with the given mean and stddev.
func NormalCDF(x, mean, stddev float64) float64 {
	if stddev <= 0 {
		return math.NaN()
	}
	return 0.5 * math.Erfc(-(x-mean)/(stddev*math.Sqrt2))
}

// FitNormal estimates (mean, stddev) of a normal distribution by maximum
// likelihood (stddev uses the unbiased n-1 form for consistency with the
// rest of the package).
func FitNormal(xs []float64) (mean, stddev float64) {
	return Mean(xs), StdDev(xs)
}

// KSTestNormal computes the one-sample Kolmogorov-Smirnov statistic of xs
// against a Normal(mean, stddev) reference, together with the asymptotic
// p-value (Kolmogorov distribution approximation). The sample need not be
// sorted.
func KSTestNormal(xs []float64, mean, stddev float64) (d, pValue float64) {
	n := len(xs)
	if n == 0 || stddev <= 0 {
		return math.NaN(), math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for i, x := range sorted {
		cdf := NormalCDF(x, mean, stddev)
		dPlus := float64(i+1)/float64(n) - cdf
		dMinus := cdf - float64(i)/float64(n)
		if dPlus > d {
			d = dPlus
		}
		if dMinus > d {
			d = dMinus
		}
	}
	return d, ksPValue(d, n)
}

// ksPValue returns the asymptotic Kolmogorov p-value for statistic d with
// sample size n.
func ksPValue(d float64, n int) float64 {
	if d <= 0 {
		return 1
	}
	lambda := (math.Sqrt(float64(n)) + 0.12 + 0.11/math.Sqrt(float64(n))) * d
	sum := 0.0
	for j := 1; j <= 100; j++ {
		term := 2 * math.Pow(-1, float64(j-1)) * math.Exp(-2*lambda*lambda*float64(j*j))
		sum += term
		if math.Abs(term) < 1e-12 {
			break
		}
	}
	if sum < 0 {
		sum = 0
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

// Pearson returns the Pearson correlation coefficient of the paired
// samples, or NaN when undefined.
func Pearson(xs, ys []float64) float64 {
	n := len(xs)
	if n != len(ys) || n < 2 {
		return math.NaN()
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// LinearFit holds the result of an ordinary least squares fit y = a + b*x.
type LinearFit struct {
	Intercept, Slope float64
	R2               float64
}

// FitLinear performs ordinary least squares on the paired samples.
func FitLinear(xs, ys []float64) (LinearFit, error) {
	n := len(xs)
	if n != len(ys) {
		return LinearFit{}, errors.New("stats: length mismatch")
	}
	if n < 2 {
		return LinearFit{}, errors.New("stats: need at least two points")
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, errors.New("stats: degenerate x values")
	}
	b := sxy / sxx
	fit := LinearFit{Slope: b, Intercept: my - b*mx}
	if syy > 0 {
		fit.R2 = sxy * sxy / (sxx * syy)
	} else {
		fit.R2 = 1
	}
	return fit, nil
}

// FitPowerLaw fits y = c * x^alpha by least squares in log-log space,
// skipping non-positive points. It returns the exponent alpha, the
// prefactor c and the log-log R². Rank-frequency tails of cuisines are
// commonly summarized this way.
func FitPowerLaw(xs, ys []float64) (alpha, c, r2 float64, err error) {
	if len(xs) != len(ys) {
		return 0, 0, 0, errors.New("stats: length mismatch")
	}
	var lx, ly []float64
	for i := range xs {
		if xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log(xs[i]))
			ly = append(ly, math.Log(ys[i]))
		}
	}
	fit, err := FitLinear(lx, ly)
	if err != nil {
		return 0, 0, 0, err
	}
	return fit.Slope, math.Exp(fit.Intercept), fit.R2, nil
}
