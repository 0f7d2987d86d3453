package stats

import (
	"math"
	"testing"
	"testing/quick"

	"cuisinevol/internal/randx"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 2, 3}, 2},
		{[]float64{5}, 5},
		{[]float64{-1, 1}, 0},
		{nil, math.NaN()},
	}
	for _, c := range cases {
		if got := Mean(c.xs); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestVarianceKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// population variance 4; sample variance 4 * 8/7
	want := 4.0 * 8 / 7
	if got := Variance(xs); !almostEq(got, want, 1e-12) {
		t.Fatalf("Variance = %v, want %v", got, want)
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Fatal("Variance of a single point must be NaN")
	}
}

func TestSummarizeMoments(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	s := Summarize(xs)
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("bad basic summary: %+v", s)
	}
	if !almostEq(s.Variance, 2.5, 1e-12) {
		t.Fatalf("variance = %v, want 2.5", s.Variance)
	}
	if !almostEq(s.Skewness, 0, 1e-12) {
		t.Fatalf("symmetric sample skewness = %v, want 0", s.Skewness)
	}
}

func TestSummarizeSkewed(t *testing.T) {
	xs := []float64{1, 1, 1, 1, 10}
	if s := Summarize(xs); s.Skewness <= 0 {
		t.Fatalf("right-tailed sample should have positive skewness, got %v", s.Skewness)
	}
}

func TestSummarizeEmptyAndConstant(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || !math.IsNaN(s.Mean) {
		t.Fatalf("empty summary: %+v", s)
	}
	c := Summarize([]float64{3, 3, 3, 3})
	if c.Variance != 0 || !math.IsNaN(c.Skewness) {
		t.Fatalf("constant sample: %+v", c)
	}
}

func TestBoxplot(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 100}
	b, err := NewBoxplot(xs)
	if err != nil {
		t.Fatal(err)
	}
	if b.N != 10 || b.Min != 1 || b.Max != 100 {
		t.Fatalf("bad extremes: %+v", b)
	}
	if len(b.Outliers) != 1 || b.Outliers[0] != 100 {
		t.Fatalf("expected 100 to be the only outlier, got %v", b.Outliers)
	}
	if b.WhiskHi != 9 || b.WhiskLo != 1 {
		t.Fatalf("whiskers = [%v, %v], want [1, 9]", b.WhiskLo, b.WhiskHi)
	}
	if b.Q1 > b.Med || b.Med > b.Q3 {
		t.Fatalf("quartile ordering violated: %+v", b)
	}
}

func TestBoxplotEmpty(t *testing.T) {
	if _, err := NewBoxplot(nil); err != ErrEmpty {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
}

func TestBoxplotQuartileInvariant(t *testing.T) {
	src := randx.New(5)
	f := func(seed uint32, nRaw uint8) bool {
		n := int(nRaw)%100 + 1
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = src.Float64() * 100
		}
		b, err := NewBoxplot(xs)
		if err != nil {
			return false
		}
		return b.Min <= b.Q1 && b.Q1 <= b.Med && b.Med <= b.Q3 && b.Q3 <= b.Max &&
			b.WhiskLo <= b.WhiskHi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCountHistogram(t *testing.T) {
	counts := CountHistogram([]int{2, 2, 3, 38, 39, -1}, 38)
	if counts[2] != 2 || counts[3] != 1 || counts[38] != 1 {
		t.Fatalf("bad counts: %v", counts[:5])
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 4 {
		t.Fatalf("out-of-range values must be dropped; total = %d", total)
	}
}

func TestNormalCDF(t *testing.T) {
	if got := NormalCDF(0, 0, 1); !almostEq(got, 0.5, 1e-12) {
		t.Fatalf("standard normal cdf at 0 = %v", got)
	}
	if got := NormalCDF(1.96, 0, 1); !almostEq(got, 0.975, 1e-3) {
		t.Fatalf("cdf(1.96) = %v, want ~0.975", got)
	}
	if !math.IsNaN(NormalCDF(0, 0, 0)) {
		t.Fatal("zero stddev must yield NaN")
	}
}

func TestKSNormalAcceptsNormal(t *testing.T) {
	src := randx.New(101)
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = src.NormAt(9, 2.5)
	}
	d, p := KSTestNormal(xs, 9, 2.5)
	if d > 0.05 {
		t.Fatalf("KS statistic %v too large for a true normal sample", d)
	}
	if p < 0.01 {
		t.Fatalf("KS p-value %v rejects a true normal sample", p)
	}
}

func TestKSNormalRejectsUniform(t *testing.T) {
	src := randx.New(103)
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = src.Float64() * 20
	}
	_, p := KSTestNormal(xs, 10, 5.7)
	if p > 0.01 {
		t.Fatalf("KS p-value %v fails to reject a uniform sample", p)
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	if got := Pearson(xs, ys); !almostEq(got, 1, 1e-12) {
		t.Fatalf("perfect correlation = %v", got)
	}
	neg := []float64{8, 6, 4, 2}
	if got := Pearson(xs, neg); !almostEq(got, -1, 1e-12) {
		t.Fatalf("perfect anticorrelation = %v", got)
	}
	if !math.IsNaN(Pearson(xs, []float64{1, 1, 1, 1})) {
		t.Fatal("zero-variance input must yield NaN")
	}
}

func TestFitLinear(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 1 + 2x
	fit, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(fit.Intercept, 1, 1e-12) || !almostEq(fit.Slope, 2, 1e-12) || !almostEq(fit.R2, 1, 1e-12) {
		t.Fatalf("fit = %+v", fit)
	}
	if _, err := FitLinear([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Fatal("degenerate x must error")
	}
}

func TestFitPowerLaw(t *testing.T) {
	xs := make([]float64, 50)
	ys := make([]float64, 50)
	for i := range xs {
		x := float64(i + 1)
		xs[i] = x
		ys[i] = 3 * math.Pow(x, -1.5)
	}
	alpha, c, r2, err := FitPowerLaw(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(alpha, -1.5, 1e-9) || !almostEq(c, 3, 1e-9) || !almostEq(r2, 1, 1e-9) {
		t.Fatalf("power-law fit alpha=%v c=%v r2=%v", alpha, c, r2)
	}
}

func TestFitPowerLawSkipsNonPositive(t *testing.T) {
	xs := []float64{0, 1, 2, 4}
	ys := []float64{5, 1, 0.5, 0.25}
	if _, _, _, err := FitPowerLaw(xs, ys); err != nil {
		t.Fatalf("non-positive points should be skipped, got error %v", err)
	}
}

func TestKSPValueMonotone(t *testing.T) {
	// Larger statistics must never yield larger p-values.
	prev := 1.0
	for d := 0.01; d < 0.5; d += 0.01 {
		p := ksPValue(d, 100)
		if p > prev+1e-12 {
			t.Fatalf("ksPValue not monotone at d=%v: %v > %v", d, p, prev)
		}
		prev = p
	}
}
