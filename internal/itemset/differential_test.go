package itemset

import (
	"fmt"
	"reflect"
	"testing"

	"cuisinevol/internal/cuisine"
	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/randx"
	"cuisinevol/internal/synth"
)

// The differential layer: the Eclat kernel — serial and
// prefix-partition-parallel, and through the exported entry points —
// must reproduce the raw Apriori oracle's canonical Result on every
// corpus we can throw at it.

// allKernels mines txs with every run of eclatRuns (plus auto) and
// fails the test unless each Result is identical in canonical order to
// raw Apriori's. It returns the agreed-upon result.
func allKernels(t *testing.T, txs [][]ingredient.ID, minSupport float64, label string) *Result {
	t.Helper()
	base, err := Apriori(txs, minSupport)
	if err != nil {
		t.Fatalf("%s: apriori: %v", label, err)
	}
	for _, run := range append(eclatRuns, autoRun) {
		got, err := run.mine(txs, minSupport)
		if err != nil {
			t.Fatalf("%s: %v: %v", label, run, err)
		}
		if got.N != base.N {
			t.Fatalf("%s: %v: N = %d, apriori N = %d", label, run, got.N, base.N)
		}
		if !reflect.DeepEqual(base.Sets, got.Sets) {
			t.Fatalf("%s: %v diverges from apriori in canonical order\napriori: %v\n%v: %v",
				label, run, base.Sets, run, got.Sets)
		}
	}
	return base
}

// kernelsAgreeOnMaps is the weaker (itemset, support)-map agreement;
// canonical-order equality implies it, but asserting it separately
// keeps the failure mode readable when only ordering drifts.
func kernelsAgreeOnMaps(t *testing.T, txs [][]ingredient.ID, minSupport float64, label string) {
	t.Helper()
	resA, errA := Apriori(txs, minSupport)
	resE, errE := Eclat(txs, minSupport)
	if errA != nil || errE != nil {
		t.Fatalf("%s: %v %v", label, errA, errE)
	}
	if !reflect.DeepEqual(setsAsMap(resA), setsAsMap(resE)) {
		t.Fatalf("%s: apriori and eclat (itemset, support) maps differ", label)
	}
}

// TestDifferentialRandomizedCorpora sweeps seed-stable random databases
// across the shape axes that matter to the kernels: universe size,
// transaction count, transaction length, duplication level (replicate
// pools are duplicate-heavy by construction), and support threshold.
func TestDifferentialRandomizedCorpora(t *testing.T) {
	src := randx.New(20260805)
	supports := []float64{0.02, 0.05, 0.1, 0.3, 0.75, 1.0}
	for trial := 0; trial < 40; trial++ {
		universe := 3 + src.Intn(60)
		total := 10 + src.Intn(250)
		dupHeavy := trial%2 == 0
		txs := make([][]ingredient.ID, 0, total)
		if dupHeavy {
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
		for _, sup := range supports {
			label := fmt.Sprintf("trial %d (dup=%v) sup %v", trial, dupHeavy, sup)
			allKernels(t, txs, sup, label)
			kernelsAgreeOnMaps(t, txs, sup, label)
		}
	}
}

// TestDifferentialEdgeCorpora pins the degenerate shapes where kernel
// bookkeeping tends to go wrong: empty databases, empty transactions,
// singletons, one giant transaction, and IDs straddling the 16-bit
// boundary.
func TestDifferentialEdgeCorpora(t *testing.T) {
	// 12 items: every one of the 4095 subsets of the giant transaction
	// is frequent at low support — deep recursion for every kernel, but
	// bounded (2^24 would be a 16M-itemset enumeration, not a test).
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
		for _, sup := range []float64{0.01, 0.05, 0.34, 0.5, 1.0} {
			allKernels(t, txs, sup, fmt.Sprintf("edge %s sup %v", name, sup))
		}
	}
}

// TestDifferentialSynthCorpus mines a seeded synthetic corpus — the
// same generator the experiments run on — per cuisine at the paper's
// 5% threshold and checks all kernels agree on every view, including
// the dense category-transaction projection.
func TestDifferentialSynthCorpus(t *testing.T) {
	gen := synth.DefaultConfig(42)
	gen.RecipeScale = 0.03
	corpus, err := synth.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	for _, region := range cuisine.All() {
		view := corpus.Region(region.Code)
		if view.Len() == 0 {
			t.Fatalf("region %s missing from synth corpus", region.Code)
		}
		allKernels(t, view.Transactions(), 0.05, "synth "+region.Code)
		allKernels(t, view.CategoryTransactions(), 0.05, "synth-cat "+region.Code)
	}
	allKernels(t, corpus.AllView().Transactions(), 0.05, "synth ALL")
}

// TestDifferentialRealCorpus mines the full-scale corpus (the repo's
// stand-in for the paper's 158k scraped recipes) per cuisine at the
// paper's 5% threshold — the exact mines Fig 3a runs — and checks the
// kernels agree on each. The aggregate view rides along in short mode
// for three representative cuisines only, to keep -race runs brisk.
func TestDifferentialRealCorpus(t *testing.T) {
	gen := synth.DefaultConfig(42)
	gen.RecipeScale = 1.0
	if testing.Short() {
		gen.RecipeScale = 0.2
	}
	corpus, err := synth.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	regions := cuisine.Codes()
	if testing.Short() {
		regions = []string{"ITA", "KOR", "USA"}
	}
	for _, code := range regions {
		view := corpus.Region(code)
		txs := view.Transactions()
		// The full per-cuisine mine through every kernel, Apriori
		// included: this is the paper's §IV workload.
		res := allKernels(t, txs, 0.05, "real "+code)
		if len(res.Sets) == 0 {
			t.Fatalf("real %s: no frequent combinations at 5%%", code)
		}
	}
}

// TestEclatScratchReuseIsClean: the pooled Eclat query state, drawn by
// one-shot mines back to back, must match fresh results, and earlier Results
// must stay intact after later mines (no aliasing into recycled
// scratch or set sinks).
func TestEclatScratchReuseIsClean(t *testing.T) {
	src := randx.New(17)
	var kept []*Result
	var want []map[string]int
	for trial := 0; trial < 10; trial++ {
		txs := make([][]ingredient.ID, 80)
		for i := range txs {
			txs[i] = tx(src.SampleInts(12, 1+src.Intn(6))...)
		}
		fresh, err := Apriori(txs, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Eclat(txs, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fresh.Sets, got.Sets) {
			t.Fatalf("trial %d: pooled eclat diverged from apriori", trial)
		}
		kept = append(kept, got)
		want = append(want, setsAsMap(got))
	}
	for i, res := range kept {
		if !reflect.DeepEqual(setsAsMap(res), want[i]) {
			t.Fatalf("result %d mutated by later mines", i)
		}
	}
}

// TestEclatParallelDeterminism: the prefix-partition fan-out must give
// the same canonical Result for every worker count, run after run.
func TestEclatParallelDeterminism(t *testing.T) {
	txs := replicatePool(3, 25, 2000, 9, 250)
	base, err := Eclat(txs, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 16} {
		for run := 0; run < 3; run++ {
			got, err := kernelRun{workers: workers}.mine(txs, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(base.Sets, got.Sets) {
				t.Fatalf("workers=%d run %d changed the result", workers, run)
			}
		}
	}
}

// TestEclatValidation: the kernel enforces the same input contract as
// Apriori.
func TestEclatValidation(t *testing.T) {
	for _, sup := range []float64{0, -0.1, 1.01} {
		if _, err := Eclat(classicTxs(), sup); err != ErrBadSupport {
			t.Fatalf("support %v: want ErrBadSupport, got %v", sup, err)
		}
	}
	if _, err := Eclat([][]ingredient.ID{{3, 1, 2}}, 0.5); err == nil {
		t.Fatal("Eclat accepted unsorted transaction")
	}
	if _, err := Eclat([][]ingredient.ID{{1, 1, 2}}, 0.5); err == nil {
		t.Fatal("Eclat accepted duplicate items")
	}
}

// mustIndex builds txs or fails the test.
func mustIndex(t *testing.T, txs [][]ingredient.ID) *Index {
	t.Helper()
	ix, err := BuildIndex(txs)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestChooseKernelShapes runs the corpus shapes the removed kernel
// heuristic classified (see heuristic_boundary_test.go) through Eclat
// against the Apriori oracle: the empty corpus, a corpus of empty
// transactions, recipe-shaped data, a sparse long tail and a universe
// past edgeDistinct.
func TestChooseKernelShapes(t *testing.T) {
	empties := [][]ingredient.ID{{}, {}, {}}
	// Recipe-shaped: 500 transactions of ~9 items over 300 ingredients.
	src := randx.New(2)
	recipes := make([][]ingredient.ID, 500)
	for i := range recipes {
		recipes[i] = tx(src.SampleInts(300, 9)...)
	}
	// Sparse long-tail: single-item transactions spread over a wide
	// universe — density far below a set bit per word, every posting a
	// one-element array.
	sparse := make([][]ingredient.ID, 3000)
	for i := range sparse {
		sparse[i] = tx(i)
	}
	huge := make([][]ingredient.ID, edgeDistinct+1)
	for i := range huge {
		huge[i] = tx(i)
	}
	for _, c := range []struct {
		name       string
		txs        [][]ingredient.ID
		minSupport float64
	}{
		{"empty", nil, 0.05},
		{"empty-transactions", empties, 0.05},
		{"recipes", recipes, 0.01},
		{"sparse", sparse, 0.05},
		{"huge-universe", huge, 0.05},
	} {
		eclatMatchesApriori(t, mustIndex(t, c.txs), c.txs, c.minSupport, c.name)
	}
}
