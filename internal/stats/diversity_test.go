package stats

import (
	"math"
	"testing"
)

func TestVocabularyGrowth(t *testing.T) {
	txs := [][]string{
		{"a", "b"},
		{"b", "c"},
		{"a"},
		{"d", "e", "f"},
	}
	got := VocabularyGrowth(txs)
	want := []int{2, 3, 3, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("growth = %v, want %v", got, want)
		}
	}
}

func TestFitHeapsExact(t *testing.T) {
	// Synthesize V(n) = 3 * n^0.6 exactly.
	curve := make([]int, 200)
	for i := range curve {
		curve[i] = int(math.Round(3 * math.Pow(float64(i+1), 0.6)))
	}
	fit, err := FitHeaps(curve)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Beta-0.6) > 0.02 || math.Abs(fit.K-3) > 0.3 {
		t.Fatalf("Heaps fit = %+v, want K~3 beta~0.6", fit)
	}
	if fit.R2 < 0.99 {
		t.Fatalf("R2 = %v", fit.R2)
	}
}

func TestFitHeapsLinearGrowth(t *testing.T) {
	curve := make([]int, 100)
	for i := range curve {
		curve[i] = 2 * (i + 1)
	}
	fit, err := FitHeaps(curve)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Beta-1) > 0.01 {
		t.Fatalf("linear growth beta = %v, want 1", fit.Beta)
	}
}

func TestFitHeapsShort(t *testing.T) {
	if _, err := FitHeaps([]int{5}); err != ErrShortCurve {
		t.Fatalf("want ErrShortCurve, got %v", err)
	}
	if _, err := FitHeaps(nil); err != ErrShortCurve {
		t.Fatalf("want ErrShortCurve, got %v", err)
	}
}
