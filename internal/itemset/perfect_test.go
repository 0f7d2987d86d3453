package itemset

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/randx"
)

// Perfect extensions. Eclat drops an item whose support equals its
// prefix's from the prefix's class and lets every set found below the
// prefix stand for its unions with the subsets of those items
// (eclatScratch.node). These tests mine corpora where such items are
// the rule — column groups whose items always occur together, over
// duplicate-weighted transactions — and hold every mine to raw Apriori.

// perfectCorpus draws n transactions, each the union of one to three
// column groups (group g is the width items g·width … g·width+width−1,
// always present together) and up to two loose items above them. With
// probability dup a transaction repeats an earlier one, so the index
// carries weights.
func perfectCorpus(src *randx.Source, n, groups, width int, dup float64) [][]ingredient.ID {
	loose := groups * width
	txs := make([][]ingredient.ID, 0, n)
	for len(txs) < n {
		if len(txs) > 0 && src.Float64() < dup {
			txs = append(txs, txs[src.Intn(len(txs))])
			continue
		}
		var items []int
		for _, g := range src.SampleInts(groups, 1+src.Intn(min(3, groups))) {
			for i := range width {
				items = append(items, g*width+i)
			}
		}
		for _, it := range src.SampleInts(10, src.Intn(3)) {
			items = append(items, loose+it)
		}
		slices.Sort(items)
		txs = append(txs, tx(items...))
	}
	return txs
}

// nonClosed counts the sets of a full Result that are not closed: some
// one-item superset in the Result has the same count, so that item is a
// perfect extension of the set.
func nonClosed(full *Result) int {
	count := make(map[string]int, len(full.Sets))
	for _, s := range full.Sets {
		count[fingerprint(s.Items)] = s.Count
	}
	open := make(map[string]bool)
	sub := make([]ingredient.ID, 0, full.MaxSize())
	for _, s := range full.Sets {
		for skip := range s.Items {
			sub = append(append(sub[:0], s.Items[:skip]...), s.Items[skip+1:]...)
			if key := fingerprint(sub); len(sub) > 0 && count[key] == s.Count {
				open[key] = true
			}
		}
	}
	return len(open)
}

// TestPerfectExtensionCorpora checks Eclat, over one and two workers, against raw Apriori on corpora rich in
// perfect extensions: the full Result, MineTop at tops 1, 25 and past
// the total (the head of the full Result, and its size as the total),
// and MineSpectrum (the full Result's counts).
func TestPerfectExtensionCorpora(t *testing.T) {
	src := randx.New(20261019)
	supports := []float64{0.02, 0.05, 0.1, 0.3}
	sets, open := 0, 0
	for trial := 0; trial < 24; trial++ {
		groups, width := 2+src.Intn(5), 2+src.Intn(3)
		dup := []float64{0, 0.5}[trial%2]
		txs := perfectCorpus(src, 20+src.Intn(100), groups, width, dup)
		sup := supports[trial%len(supports)]
		label := fmt.Sprintf("trial %d (%d×%d, dup %v, sup %v)", trial, groups, width, dup, sup)
		full, err := Apriori(txs, sup)
		if err != nil {
			t.Fatal(err)
		}
		sets += len(full.Sets)
		open += nonClosed(full)
		assertMatchesFull(t, txs, sup, full, label)
	}
	// The corpora must exercise the pruning: most of their sets have a
	// perfect extension.
	if 2*open < sets {
		t.Fatalf("only %d of %d sets have a perfect extension", open, sets)
	}
}

// TestPerfectExtensionEveryTop checks MineTop at every top on small
// corpora rich in perfect extensions: wherever the first top sets end
// inside a family, the family's written head must be its canonical one.
func TestPerfectExtensionEveryTop(t *testing.T) {
	src := randx.New(11)
	for trial := 0; trial < 8; trial++ {
		txs := perfectCorpus(src, 30+src.Intn(40), 4, 2+trial%2, 0.3)
		ix, err := BuildIndex(txs)
		if err != nil {
			t.Fatal(err)
		}
		full, err := Apriori(txs, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 2} {
			run := kernelRun{workers: w}
			for top := 1; top <= len(full.Sets); top++ {
				res, total, err := run.top(ix, 0.1, top)
				if err != nil {
					t.Fatal(err)
				}
				if total != len(full.Sets) || !reflect.DeepEqual(res.Sets, full.Sets[:top]) {
					t.Fatalf("trial %d, %d workers, top %d: total %d of %d\ngot:  %v\nwant: %v", trial, w, top, total, len(full.Sets), res.Sets, full.Sets[:top])
				}
			}
		}
	}
}

// TestPerfectExtensionDeepFamily mines a corpus whose every transaction
// holds one 12-item core, so each set the walk visits stands for a
// family of up to 2^12 sets; the gated mines must write their heads in
// canonical order and count the rest.
func TestPerfectExtensionDeepFamily(t *testing.T) {
	src := randx.New(7)
	core := make([]int, 12)
	for i := range core {
		core[i] = 2 * i
	}
	var txs [][]ingredient.ID
	for range 40 {
		items := slices.Clone(core)
		for _, it := range src.SampleInts(12, 1+src.Intn(3)) {
			items = append(items, 2*it+1)
		}
		slices.Sort(items)
		txs = append(txs, tx(items...))
		if src.Float64() < 0.3 {
			txs = append(txs, txs[len(txs)-1])
		}
	}
	for _, sup := range []float64{0.1, 0.3, 1.0} {
		full, err := Apriori(txs, sup)
		if err != nil {
			t.Fatal(err)
		}
		if len(full.Sets) < 1<<12-1 {
			t.Fatalf("sup %v: %d sets, want at least the core's %d", sup, len(full.Sets), 1<<12-1)
		}
		assertMatchesFull(t, txs, sup, full, fmt.Sprintf("deep family sup %v", sup))
	}
}

// assertMatchesFull holds Eclat, serial and over two workers, to full, the raw Apriori Result of txs at sup.
func assertMatchesFull(t *testing.T, txs [][]ingredient.ID, sup float64, full *Result, label string) {
	t.Helper()
	ix, err := BuildIndex(txs)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, len(full.Sets))
	for i, s := range full.Sets {
		counts[i] = s.Count
	}
	for _, w := range []int{1, 2} {
		run := kernelRun{workers: w}
		got, err := run.mine(txs, sup)
		if err != nil {
			t.Fatalf("%s: %v: %v", label, run, err)
		}
		if !reflect.DeepEqual(got, full) {
			t.Fatalf("%s: %v differs from apriori\ngot:  %v\nwant: %v", label, run, got.Sets, full.Sets)
		}
		for _, top := range []int{1, 25, len(full.Sets) + 1} {
			res, total, err := run.top(ix, sup, top)
			if err != nil {
				t.Fatalf("%s: %v top %d: %v", label, run, top, err)
			}
			want := &Result{N: full.N, Sets: full.Sets[:min(top, len(full.Sets))]}
			if !reflect.DeepEqual(res, want) {
				t.Fatalf("%s: %v top %d differs from the head of the full mine\ngot:  %v\nwant: %v", label, run, top, res.Sets, want.Sets)
			}
			if total != len(full.Sets) {
				t.Fatalf("%s: %v top %d: total %d, full mine has %d sets", label, run, top, total, len(full.Sets))
			}
		}
		sp, err := run.spectrum(ix, sup)
		if err != nil {
			t.Fatalf("%s: %v spectrum: %v", label, run, err)
		}
		if sp.N != full.N || !slices.Equal(sp.Counts, counts) {
			t.Fatalf("%s: %v spectrum N %d %v, want N %d %v", label, run, sp.N, sp.Counts, full.N, counts)
		}
	}
}

// TestMineCountOverflow mines a corpus whose one 70-item transaction
// appears twice at min count 2: all 2^70−1 subsets are frequent, more
// than an int counts. The gated mines must say so with ErrTooManySets,
// at once, instead of a wrapped total or spectrum — and the pooled
// query state they leave must mine the next index correctly.
func TestMineCountOverflow(t *testing.T) {
	items := make([]int, 70)
	for i := range items {
		items[i] = i
	}
	big := tx(items...)
	var builder IndexBuilder
	start := time.Now()
	for _, run := range []kernelRun{eclatRun, {workers: 2}, autoRun} {
		ix, err := builder.Build([][]ingredient.ID{big, big})
		if err != nil {
			t.Fatal(err)
		}
		for _, top := range []int{0, 1, 25} {
			if _, _, err := run.top(ix, 1, top); !errors.Is(err, ErrTooManySets) {
				t.Fatalf("%v top %d: err %v, want ErrTooManySets", run, top, err)
			}
		}
		if _, err := run.spectrum(ix, 1); !errors.Is(err, ErrTooManySets) {
			t.Fatalf("%v spectrum: err %v, want ErrTooManySets", run, err)
		}
		small, err := builder.Build(classicTxs())
		if err != nil {
			t.Fatal(err)
		}
		want, err := Apriori(classicTxs(), 2.0/9)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := run.indexed(small, 2.0/9); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: mine after an overflow differs (err %v)", run, err)
		}
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("overflowing mines took %v", d)
	}
}

// TestMineHugeFamilyCounts mines a corpus whose one 40-item
// transaction appears twice at min count 2: 2^40−1 frequent sets, which
// an int counts. MineTop must return the head and that total without
// walking the sets; MineSpectrum, whose counts would fill 8 TiB, must
// refuse with ErrTooManySets.
func TestMineHugeFamilyCounts(t *testing.T) {
	items := make([]int, 40)
	for i := range items {
		items[i] = i
	}
	big := tx(items...)
	ix, err := BuildIndex([][]ingredient.ID{big, big})
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []kernelRun{eclatRun, {workers: 2}} {
		res, total, err := run.top(ix, 1, 3)
		if err != nil || total != 1<<40-1 {
			t.Fatalf("%v: total %d, err %v; want %d", run, total, err, 1<<40-1)
		}
		want := []Itemset{{Items: tx(0), Count: 2}, {Items: tx(1), Count: 2}, {Items: tx(2), Count: 2}}
		if !reflect.DeepEqual(res.Sets, want) {
			t.Fatalf("%v: head %v, want %v", run, res.Sets, want)
		}
		if _, err := run.spectrum(ix, 1); !errors.Is(err, ErrTooManySets) {
			t.Fatalf("%v spectrum: err %v, want ErrTooManySets", run, err)
		}
	}
}

// TestSinkTallyOverflow follows a tally that would wrap an int: the
// sink keeps nothing and marks the overflow, and finish fails whether
// one sink or the sum of several would wrap.
func TestSinkTallyOverflow(t *testing.T) {
	items := []itemCount{{item: 1, count: 10}}
	var s setSink
	s.arm(1, 1, items)
	half := math.MaxInt/2 + 1
	if !s.keepN(10, half) || s.overflow {
		t.Fatalf("a first tally of %d was refused", half)
	}
	if s.keepN(10, half) || !s.overflow {
		t.Fatal("a wrapping tally was kept")
	}
	var o canonOrder
	if _, err := o.finish(items, &gate{top: 1}, &s); !errors.Is(err, ErrTooManySets) {
		t.Fatalf("finish over an overflowed sink: err %v", err)
	}
	var a, b setSink
	a.arm(0, 1, items)
	b.arm(0, 1, items)
	a.keepN(5, half)
	b.keepN(5, half)
	if a.overflow || b.overflow {
		t.Fatal("a sink overflowed on its own tally")
	}
	if _, err := o.finish(items, &gate{}, &a, &b); !errors.Is(err, ErrTooManySets) {
		t.Fatalf("finish over sinks whose sum wraps: err %v", err)
	}
}
