package rankfreq

import (
	"math"
	"testing"
)

func dist(label string, freqs ...float64) Distribution {
	return Distribution{Label: label, Freqs: freqs}
}

func TestValidate(t *testing.T) {
	if err := dist("ok", 0.5, 0.5, 0.1).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Distribution{
		dist("inc", 0.1, 0.5),
		dist("neg", -0.1),
		dist("big", 1.5),
		dist("nan", math.NaN()),
	}
	for _, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("%s: expected validation error", d.Label)
		}
	}
}

func TestPaperMAE(t *testing.T) {
	a := dist("a", 0.5, 0.3, 0.1)
	b := dist("b", 0.4, 0.3)
	// r = 2; ((0.1)^2 + 0)/2 = 0.005
	got, err := PaperMAE(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.005) > 1e-12 {
		t.Fatalf("PaperMAE = %v, want 0.005", got)
	}
	// Symmetry.
	rev, _ := PaperMAE(b, a)
	if rev != got {
		t.Fatal("PaperMAE not symmetric")
	}
	// Identity.
	self, _ := PaperMAE(a, a)
	if self != 0 {
		t.Fatalf("PaperMAE(a,a) = %v", self)
	}
}

func TestTrueMAE(t *testing.T) {
	a := dist("a", 0.5, 0.3)
	b := dist("b", 0.4, 0.1)
	got, err := TrueMAE(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.15) > 1e-12 {
		t.Fatalf("TrueMAE = %v, want 0.15", got)
	}
}

func TestMAEEmpty(t *testing.T) {
	if _, err := PaperMAE(dist("a"), dist("b", 0.5)); err != ErrEmpty {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
	if _, err := TrueMAE(dist("a", 0.5), dist("b")); err != ErrEmpty {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
}

func TestPairwiseMatrix(t *testing.T) {
	dists := []Distribution{
		dist("a", 0.5, 0.3),
		dist("b", 0.5, 0.3),
		dist("c", 0.1),
	}
	m, err := Pairwise(dists, PaperMAE)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Labels) != 3 || m.Labels[2] != "c" {
		t.Fatalf("labels: %v", m.Labels)
	}
	if m.D[0][1] != 0 {
		t.Fatalf("identical distributions distance %v", m.D[0][1])
	}
	if m.D[0][2] != m.D[2][0] {
		t.Fatal("matrix not symmetric")
	}
	if m.D[1][1] != 0 {
		t.Fatal("diagonal must be zero")
	}
	wantAC := (0.5 - 0.1) * (0.5 - 0.1)
	if math.Abs(m.D[0][2]-wantAC) > 1e-12 {
		t.Fatalf("D[a][c] = %v, want %v", m.D[0][2], wantAC)
	}
}

func TestPairwisePropagatesError(t *testing.T) {
	dists := []Distribution{dist("a", 0.5), dist("empty")}
	if _, err := Pairwise(dists, PaperMAE); err == nil {
		t.Fatal("empty distribution must fail pairwise")
	}
}

func TestMeanOffDiagonal(t *testing.T) {
	m := Matrix{
		Labels: []string{"a", "b", "c"},
		D: [][]float64{
			{0, 1, 2},
			{1, 0, 3},
			{2, 3, 0},
		},
	}
	if got := m.MeanOffDiagonal(); got != 2 {
		t.Fatalf("MeanOffDiagonal = %v, want 2", got)
	}
	single := Matrix{Labels: []string{"a"}, D: [][]float64{{0}}}
	if !math.IsNaN(single.MeanOffDiagonal()) {
		t.Fatal("single-entry matrix mean must be NaN")
	}
}

func TestRowMeans(t *testing.T) {
	m := Matrix{
		Labels: []string{"a", "b", "c"},
		D: [][]float64{
			{0, 1, 2},
			{1, 0, 3},
			{2, 3, 0},
		},
	}
	want := []float64{1.5, 2, 2.5}
	got := m.RowMeans()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("RowMeans = %v, want %v", got, want)
		}
	}
}

func TestAggregate(t *testing.T) {
	reps := []Distribution{
		dist("m", 0.6, 0.4, 0.2),
		dist("m", 0.4, 0.2),
	}
	agg := Aggregate(reps)
	if agg.Label != "m" {
		t.Fatal("label lost")
	}
	want := []float64{0.5, 0.3, 0.2}
	if agg.Len() != 3 {
		t.Fatalf("aggregate length %d", agg.Len())
	}
	for i, w := range want {
		if math.Abs(agg.Freqs[i]-w) > 1e-12 {
			t.Fatalf("Aggregate = %v, want %v", agg.Freqs, want)
		}
	}
	if err := agg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAggregateMonotonicityRepair(t *testing.T) {
	// Rank 2 mean (only first replicate) could exceed rank 1 mean without
	// the repair step.
	reps := []Distribution{
		dist("m", 0.9, 0.85),
		dist("m", 0.1),
	}
	agg := Aggregate(reps)
	if err := agg.Validate(); err != nil {
		t.Fatalf("aggregate violates monotonicity: %v (freqs %v)", err, agg.Freqs)
	}
}

func TestAggregateEmpty(t *testing.T) {
	if got := Aggregate(nil); got.Len() != 0 {
		t.Fatalf("Aggregate(nil) = %v", got)
	}
}
