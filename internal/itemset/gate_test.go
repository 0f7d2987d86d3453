package itemset

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/randx"
)

// gatedRuns are the mines a gated query is checked on: the kernel and
// the exported entry points, serially and over four workers.
var gatedRuns = []kernelRun{{workers: 1}, {workers: 4}, {auto: true, workers: 1}, {auto: true, workers: 4}}

// assertGatedMines checks the count-gated mines of ix against full, the
// full canonical Result at minSupport: for every run and top, MineTop's
// Result must equal full truncated to top and its total must be
// len(full.Sets); MineSpectrum's counts must be full's counts in order.
func assertGatedMines(t *testing.T, ix *Index, minSupport float64, full *Result, tops []int, label string) {
	t.Helper()
	counts := make([]int, len(full.Sets))
	for i, s := range full.Sets {
		counts[i] = s.Count
	}
	for _, run := range gatedRuns {
		for _, top := range tops {
			got, total, err := run.top(ix, minSupport, top)
			if err != nil {
				t.Fatalf("%s: %v top %d: %v", label, run, top, err)
			}
			want := &Result{N: full.N, Sets: full.Sets[:min(top, len(full.Sets))]}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %v top %d differs from the truncated full mine\ngot:  %v\nwant: %v", label, run, top, got.Sets, want.Sets)
			}
			if total != len(full.Sets) {
				t.Fatalf("%s: %v top %d: total %d, full mine has %d sets", label, run, top, total, len(full.Sets))
			}
		}
		sp, err := run.spectrum(ix, minSupport)
		if err != nil {
			t.Fatalf("%s: %v spectrum: %v", label, run, err)
		}
		if sp.N != full.N || !slices.Equal(sp.Counts, counts) {
			t.Fatalf("%s: %v spectrum N %d %v, want N %d %v", label, run, sp.N, sp.Counts, full.N, counts)
		}
	}
}

// TestGatedMinesMatchFullMine is the gate's differential test: 400
// seed-stable random corpora — duplicate-heavy and not, over small and
// wide universes — at tops across [1, total+2], the ties at c_K
// included.
func TestGatedMinesMatchFullMine(t *testing.T) {
	src := randx.New(20261017)
	supports := []float64{0.02, 0.05, 0.1, 0.3, 1.0}
	for trial := 0; trial < 400; trial++ {
		universe := 3 + src.Intn(40)
		n := 5 + src.Intn(120)
		txs := make([][]ingredient.ID, 0, n)
		for len(txs) < n {
			if trial%2 == 0 && len(txs) > 0 && src.Float64() < 0.6 {
				txs = append(txs, txs[src.Intn(len(txs))])
				continue
			}
			size := min(1+src.Intn(8), universe)
			txs = append(txs, tx(src.SampleInts(universe, size)...))
		}
		sup := supports[trial%len(supports)]
		ix, err := BuildIndex(txs)
		if err != nil {
			t.Fatal(err)
		}
		full, err := Apriori(txs, sup)
		if err != nil {
			t.Fatal(err)
		}
		total := len(full.Sets)
		tops := []int{1, 2, 1 + src.Intn(total+2), total, total + 1, total + 2}
		assertGatedMines(t, ix, sup, full, tops, fmt.Sprintf("trial %d sup %v", trial, sup))
	}
}

// TestGatedMineEdges covers the empty corpus, a corpus with no frequent
// item, the all-ties corpus (every set shares one count, so c_K ties
// every set) and a top of zero, which builds no set.
func TestGatedMineEdges(t *testing.T) {
	cases := []struct {
		name string
		txs  [][]ingredient.ID
		sup  float64
	}{
		{"empty", nil, 0.5},
		{"nothing frequent", [][]ingredient.ID{{1}, {2}, {3}, {4}}, 0.5},
		{"all ties", [][]ingredient.ID{{1, 2, 3, 4}, {1, 2, 3, 4}}, 0.5},
		{"classic", classicTxs(), 2.0 / 9},
	}
	for _, c := range cases {
		ix, err := BuildIndex(c.txs)
		if err != nil {
			t.Fatal(err)
		}
		full, err := MineIndexed(ix, c.sup, MineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		n := len(full.Sets)
		assertGatedMines(t, ix, c.sup, full, []int{1, 3, n, n + 1}, c.name)
		for _, run := range gatedRuns {
			res, total, err := run.top(ix, c.sup, 0)
			if err != nil || len(res.Sets) != 0 || total != n {
				t.Fatalf("%s: %v top 0: %d sets, total %d (want 0, %d), err %v", c.name, run, len(res.Sets), total, n, err)
			}
		}
	}
	if _, _, err := MineTop(&Index{}, 0, 1, MineOptions{}); err != ErrBadSupport {
		t.Fatalf("MineTop support 0: err %v, want ErrBadSupport", err)
	}
	if _, err := MineSpectrum(&Index{}, 1.5, MineOptions{}); err != ErrBadSupport {
		t.Fatalf("MineSpectrum support 1.5: err %v, want ErrBadSupport", err)
	}
}

// TestSinkGateCut follows the cut through one armed sink: it holds at
// the floor until top counts are seen, then tracks the top-th largest,
// never falling; it starts at the top-th largest item count when there
// are top frequent items; and a top of zero keeps nothing.
func TestSinkGateCut(t *testing.T) {
	var s setSink
	s.arm(2, 3, []itemCount{{item: 1, count: 10}, {item: 2, count: 2}})
	for _, step := range []struct {
		count, cut int
		keep       bool
	}{
		{5, 3, true},   // {5}: fewer than two seen
		{4, 4, true},   // {5 4}: second largest 4
		{3, 4, false},  // below the cut
		{9, 5, true},   // {9 5 4}: second largest 5
		{10, 9, true},  // {10 9 ...}
		{9, 9, true},   // ties at the cut are kept
		{6, 9, false},  // below
		{10, 10, true}, // {10 10 ...}
	} {
		if got := s.keep(step.count); got != step.keep || s.cut != step.cut {
			t.Fatalf("keep(%d) = %v with cut %d, want %v with cut %d", step.count, got, s.cut, step.keep, step.cut)
		}
	}
	if want := []int{1, 1, 1, 1, 0, 0, 2, 2}; !slices.Equal(s.hist, want) {
		t.Fatalf("hist %v, want %v", s.hist, want)
	}
	// Two frequent items, counted 10 and 9: the cut starts at 9 and
	// the items themselves are not in the histogram.
	s.arm(2, 3, []itemCount{{item: 1, count: 10}, {item: 2, count: 2}, {item: 3, count: 9}})
	if s.cut != 9 || len(s.hist) != 8 || slices.Max(s.hist) != 0 {
		t.Fatalf("seeded arm: cut %d, hist %v; want cut 9 and 8 empty slots", s.cut, s.hist)
	}
	if s.keep(8) || !s.keep(9) || s.cut != 9 {
		t.Fatalf("seeded gate: cut %d after counts 8 and 9", s.cut)
	}
	s.arm(0, 3, []itemCount{{item: 1, count: 10}})
	for c := 3; c <= 10; c++ {
		if s.keep(c) {
			t.Fatalf("top 0 kept a set of count %d", c)
		}
	}
}

// TestSinkResetAndTrimDisarmGate checks that neither a reset nor a trim
// lets one mine's gate reach the next: a pooled sink must come back
// disarmed, keeping every set whatever its count.
func TestSinkResetAndTrimDisarmGate(t *testing.T) {
	for name, disarm := range map[string]func(*setSink){
		"reset": (*setSink).reset,
		"trim":  (*setSink).trim,
	} {
		var s setSink
		s.arm(1, 5, []itemCount{{item: 1, count: 100}})
		s.keep(100) // cut 100
		disarm(&s)
		if s.gated || s.top != 0 || s.cut != 0 || s.lo != 0 || s.above != 0 {
			t.Fatalf("%s left the gate armed: %+v", name, s)
		}
		if !s.keep(1) || !s.keep(100) {
			t.Fatalf("%s: a disarmed sink dropped a set", name)
		}
	}
	// A trimmed sink also drops a histogram past maxKeptSets.
	var s setSink
	s.arm(1, 1, []itemCount{{item: 1, count: maxKeptSets + 1}})
	s.trim()
	if s.hist != nil {
		t.Fatalf("trim kept a %d-bucket histogram", cap(s.hist))
	}
}

// TestGatedMineLeavesPooledStateClean interleaves gated and full mines
// over the kernel's pooled state — a builder's own Eclat query and the
// Eclat query pool: a full mine after a
// top-1 mine (whose cut sits at the largest count) must still hold
// every set.
func TestGatedMineLeavesPooledStateClean(t *testing.T) {
	a := replicatePool(3, 6, 300, 8, 40)
	b := replicatePool(4, 6, 300, 8, 40)
	want, err := Apriori(b, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	var builder IndexBuilder
	for _, run := range gatedRuns {
		for _, kept := range []bool{false, true} {
			build := func(txs [][]ingredient.ID) *Index {
				if kept {
					return mustIndex(t, txs)
				}
				ix, err := builder.Build(txs)
				if err != nil {
					t.Fatal(err)
				}
				return ix
			}
			ixA := build(a)
			if _, _, err := run.top(ixA, 0.02, 1); err != nil {
				t.Fatal(err)
			}
			if _, err := run.spectrum(ixA, 0.02); err != nil {
				t.Fatal(err)
			}
			got, err := run.indexed(build(b), 0.02)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v (kept index %v): full mine after gated mines differs", run, kept)
			}
		}
	}
}
