package itemset

import (
	"fmt"
	"reflect"
	"testing"

	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/randx"
)

// allKernelsIndexed mirrors allKernels for the indexed query phase:
// every run of eclatRuns, and MineIndexed itself, must reproduce the raw Apriori Result byte-for-byte on the
// transactions the index was built from.
func allKernelsIndexed(t *testing.T, ix *Index, txs [][]ingredient.ID, minSupport float64, label string) *Result {
	t.Helper()
	base, err := Apriori(txs, minSupport)
	if err != nil {
		t.Fatalf("%s: apriori: %v", label, err)
	}
	for _, run := range append(eclatRuns, autoRun) {
		got, err := run.indexed(ix, minSupport)
		if err != nil {
			t.Fatalf("%s: %v: %v", label, run, err)
		}
		if got.N != base.N {
			t.Fatalf("%s: %v: N = %d, apriori N = %d", label, run, got.N, base.N)
		}
		if !reflect.DeepEqual(base.Sets, got.Sets) {
			t.Fatalf("%s: %v diverges from raw apriori in canonical order\napriori: %v\n%v: %v",
				label, run, base.Sets, run, got.Sets)
		}
	}
	return base
}

func TestBuildIndexStats(t *testing.T) {
	ix, err := BuildIndex(classicTxs())
	if err != nil {
		t.Fatal(err)
	}
	if ix.N() != 9 {
		t.Fatalf("N = %d, want 9", ix.N())
	}
	if ix.DistinctItems() != 5 {
		t.Fatalf("DistinctItems = %d, want 5", ix.DistinctItems())
	}
	if ix.TotalOccurrences() != 23 {
		t.Fatalf("TotalOccurrences = %d, want 23", ix.TotalOccurrences())
	}
	// tx(2,3) and tx(1,3) each appear twice in the classic dataset.
	if ix.UniqueTransactions() != 7 {
		t.Fatalf("UniqueTransactions = %d, want 7", ix.UniqueTransactions())
	}
	for it, want := range map[ingredient.ID]int{1: 6, 2: 7, 3: 6, 4: 2, 5: 2, 99: 0} {
		if got := ix.Support(it); got != want {
			t.Fatalf("Support(%d) = %d, want %d", it, got, want)
		}
	}
	if ix.Bytes() <= 0 {
		t.Fatalf("Bytes = %d, want > 0", ix.Bytes())
	}
	if len(ix.Fingerprint()) != 32 {
		t.Fatalf("Fingerprint length = %d, want 32 hex chars", len(ix.Fingerprint()))
	}
}

func TestBuildIndexValidation(t *testing.T) {
	if _, err := BuildIndex([][]ingredient.ID{{3, 1, 2}}); err == nil {
		t.Fatal("BuildIndex accepted an unsorted transaction")
	}
	if _, err := BuildIndex([][]ingredient.ID{{1, 1, 2}}); err == nil {
		t.Fatal("BuildIndex accepted duplicate items")
	}
	ix, err := BuildIndex(nil)
	if err != nil {
		t.Fatal(err)
	}
	if ix.N() != 0 || ix.DistinctItems() != 0 {
		t.Fatalf("empty index: N=%d distinct=%d", ix.N(), ix.DistinctItems())
	}
	for _, k := range append(eclatRuns, autoRun) {
		res, err := k.indexed(ix, 0.5)
		if err != nil || res.N != 0 || len(res.Sets) != 0 {
			t.Fatalf("empty index, kernel %v: res=%v err=%v", k, res, err)
		}
	}
}

func TestMineIndexedValidation(t *testing.T) {
	ix, err := BuildIndex(classicTxs())
	if err != nil {
		t.Fatal(err)
	}
	for _, sup := range []float64{0, -0.1, 1.01} {
		for _, k := range append(eclatRuns, autoRun) {
			if _, err := k.indexed(ix, sup); err != ErrBadSupport {
				t.Fatalf("support %v kernel %v: want ErrBadSupport, got %v", sup, k, err)
			}
		}
	}
}

// TestIndexFingerprint pins the content-addressing contract: identical
// transaction databases share a fingerprint however they were obtained,
// and any content change — reorder, resize, relabel — changes it.
func TestIndexFingerprint(t *testing.T) {
	a, err := BuildIndex(classicTxs())
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildIndex(classicTxs())
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical databases produced different fingerprints")
	}
	variants := map[string][][]ingredient.ID{
		"reordered": append([][]ingredient.ID{classicTxs()[1], classicTxs()[0]}, classicTxs()[2:]...),
		"truncated": classicTxs()[:8],
		"relabeled": append([][]ingredient.ID{tx(1, 2, 6)}, classicTxs()[1:]...),
		"split":     append([][]ingredient.ID{tx(1, 2), tx(5)}, classicTxs()[1:]...),
	}
	for name, txs := range variants {
		v, err := BuildIndex(txs)
		if err != nil {
			t.Fatal(err)
		}
		if v.Fingerprint() == a.Fingerprint() {
			t.Fatalf("%s database shares the original fingerprint", name)
		}
	}
}

// TestAddSupportCounts checks the index's support counts against a
// direct document-frequency scan — the overrepresentation pipeline's
// consumption pattern, including accumulation across calls.
func TestAddSupportCounts(t *testing.T) {
	txs := replicatePool(11, 10, 400, 7, 90)
	ix, err := BuildIndex(txs)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int, 90)
	for _, tx := range txs {
		for _, it := range tx {
			want[it]++
		}
	}
	got := make([]int, 90)
	ix.AddSupportCounts(got)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("AddSupportCounts disagrees with a direct document-frequency scan")
	}
	// Accumulation: a second call doubles every count.
	ix.AddSupportCounts(got)
	for i := range got {
		if got[i] != 2*want[i] {
			t.Fatalf("item %d: second Add gave %d, want %d", i, got[i], 2*want[i])
		}
	}
}

// TestIndexedDifferentialRandomized is the indexed counterpart of the
// randomized differential sweep: over seed-stable random databases of
// varying shape and duplication, every indexed run must match
// raw Apriori byte-for-byte at every threshold.
func TestIndexedDifferentialRandomized(t *testing.T) {
	src := randx.New(20260808)
	supports := []float64{0.02, 0.05, 0.1, 0.3, 0.75, 1.0}
	for trial := 0; trial < 25; trial++ {
		universe := 3 + src.Intn(60)
		total := 10 + src.Intn(250)
		txs := make([][]ingredient.ID, 0, total)
		if trial%2 == 0 {
			founders := 2 + src.Intn(8)
			for i := 0; i < founders; i++ {
				size := 1 + src.Intn(9)
				if size > universe {
					size = universe
				}
				txs = append(txs, tx(src.SampleInts(universe, size)...))
			}
			for len(txs) < total {
				mother := txs[src.Intn(len(txs))]
				r := append([]ingredient.ID(nil), mother...)
				if src.Float64() < 0.3 {
					r[src.Intn(len(r))] = ingredient.ID(src.Intn(universe))
					r = dedupSorted(r)
				}
				txs = append(txs, r)
			}
		} else {
			for len(txs) < total {
				size := 1 + src.Intn(9)
				if size > universe {
					size = universe
				}
				txs = append(txs, tx(src.SampleInts(universe, size)...))
			}
		}
		// One build, every threshold: the whole point of the index.
		ix, err := BuildIndex(txs)
		if err != nil {
			t.Fatal(err)
		}
		for _, sup := range supports {
			allKernelsIndexed(t, ix, txs, sup, fmt.Sprintf("trial %d sup %v", trial, sup))
		}
	}
}

// TestIndexedDifferentialEdges runs the degenerate corpus shapes
// through the indexed path: empties, singletons, duplicates, and IDs
// straddling the 16-bit key-encoding boundary.
func TestIndexedDifferentialEdges(t *testing.T) {
	big := make([]int, 12)
	for i := range big {
		big[i] = i * 3
	}
	edges := map[string][][]ingredient.ID{
		"empty":        {},
		"empty-txs":    {tx(), tx(), tx()},
		"singleton":    {tx(5)},
		"repeated":     {tx(5), tx(5), tx(5), tx(5)},
		"pairs":        {tx(1), tx(2), tx(1, 2)},
		"one-giant":    {tx(big...)},
		"wide-ids":     {tx(257, 300), tx(65793, 300), tx(257, 65793), tx(257, 65793)},
		"disjoint":     {tx(1, 2), tx(3, 4), tx(5, 6), tx(7, 8)},
		"all-frequent": {tx(1, 2, 3), tx(1, 2, 3), tx(1, 2, 3)},
	}
	for name, txs := range edges {
		ix, err := BuildIndex(txs)
		if err != nil {
			t.Fatal(err)
		}
		for _, sup := range []float64{0.01, 0.05, 0.34, 0.5, 1.0} {
			allKernelsIndexed(t, ix, txs, sup, fmt.Sprintf("edge %s sup %v", name, sup))
		}
	}
}

// TestIndexImmutableAcrossQueries: an Index is never written after
// build, so back-to-back and concurrent queries at mixed thresholds
// must all see the same data — and earlier Results must survive later
// queries (the pooled query scratch may never alias into them).
func TestIndexImmutableAcrossQueries(t *testing.T) {
	txs := replicatePool(5, 20, 800, 8, 120)
	ix, err := BuildIndex(txs)
	if err != nil {
		t.Fatal(err)
	}
	fp := ix.Fingerprint()
	supports := []float64{0.02, 0.05, 0.2, 0.6}
	want := make([]map[string]int, len(supports))
	kept := make([]*Result, len(supports))
	for i, sup := range supports {
		res, err := eclatRun.indexed(ix, sup)
		if err != nil {
			t.Fatal(err)
		}
		kept[i], want[i] = res, setsAsMap(res)
	}
	// Concurrent re-queries over the same index.
	done := make(chan error, 16)
	for g := 0; g < 16; g++ {
		go func(g int) {
			sup := supports[g%len(supports)]
			res, err := MineIndexed(ix, sup, MineOptions{Workers: 1 + g%3})
			if err == nil && !reflect.DeepEqual(setsAsMap(res), want[g%len(supports)]) {
				err = fmt.Errorf("goroutine %d: result drifted at support %v", g, sup)
			}
			done <- err
		}(g)
	}
	for g := 0; g < 16; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	for i, res := range kept {
		if !reflect.DeepEqual(setsAsMap(res), want[i]) {
			t.Fatalf("result %d mutated by later queries", i)
		}
	}
	if ix.Fingerprint() != fp {
		t.Fatal("fingerprint changed across queries")
	}
}

// TestIndexChooseKernelMatchesRaw: the shape statistics a removed
// kernel rule used to read off the index — transaction count, distinct
// items, occurrences and the container mix — must equal those
// recounted from the raw transactions, for every corpus shape, so they
// are exact whichever path computed them.
func TestIndexChooseKernelMatchesRaw(t *testing.T) {
	src := randx.New(99)
	for trial := 0; trial < 30; trial++ {
		universe := 1 + src.Intn(500)
		total := src.Intn(400)
		txs := make([][]ingredient.ID, 0, total)
		for len(txs) < total {
			size := src.Intn(10)
			if size > universe {
				size = universe
			}
			txs = append(txs, tx(src.SampleInts(universe, size)...))
		}
		ix, err := BuildIndex(txs)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[ingredient.ID]bool{}
		occ := 0
		for _, x := range txs {
			occ += len(x)
			for _, it := range x {
				seen[it] = true
			}
		}
		n, distinct := len(txs), len(seen)
		st := ix.ContainerStats()
		if ix.N() != n || ix.DistinctItems() != distinct || ix.TotalOccurrences() != occ ||
			st.Arrays+st.Bitsets+st.Runs != distinct {
			t.Fatalf("trial %d: N %d, distinct %d, occurrences %d, mix %+v; raw recount %d, %d, %d",
				trial, ix.N(), ix.DistinctItems(), ix.TotalOccurrences(), st, n, distinct, occ)
		}
	}
}
