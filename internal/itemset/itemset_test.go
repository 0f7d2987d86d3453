package itemset

import (
	"reflect"
	"sort"
	"testing"

	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/randx"
)

// tx builds a sorted transaction from ints.
func tx(items ...int) []ingredient.ID {
	out := make([]ingredient.ID, len(items))
	for i, v := range items {
		out[i] = ingredient.ID(v)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// classic textbook dataset.
func classicTxs() [][]ingredient.ID {
	return [][]ingredient.ID{
		tx(1, 2, 5),
		tx(2, 4),
		tx(2, 3),
		tx(1, 2, 4),
		tx(1, 3),
		tx(2, 3),
		tx(1, 3),
		tx(1, 2, 3, 5),
		tx(1, 2, 3),
	}
}

// setsAsMap converts a result to a map fingerprint->count for comparison.
func setsAsMap(r *Result) map[string]int {
	m := make(map[string]int, len(r.Sets))
	for _, s := range r.Sets {
		m[fingerprint(s.Items)] = s.Count
	}
	return m
}

func TestAprioriClassic(t *testing.T) {
	// minSupport 2/9.
	res, err := Apriori(classicTxs(), 2.0/9)
	if err != nil {
		t.Fatal(err)
	}
	got := setsAsMap(res)
	want := map[string]int{
		fingerprint(tx(1)):       6,
		fingerprint(tx(2)):       7,
		fingerprint(tx(3)):       6,
		fingerprint(tx(4)):       2,
		fingerprint(tx(5)):       2,
		fingerprint(tx(1, 2)):    4,
		fingerprint(tx(1, 3)):    4,
		fingerprint(tx(1, 5)):    2,
		fingerprint(tx(2, 3)):    4,
		fingerprint(tx(2, 4)):    2,
		fingerprint(tx(2, 5)):    2,
		fingerprint(tx(1, 2, 3)): 2,
		fingerprint(tx(1, 2, 5)): 2,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Apriori mismatch:\ngot  %d sets %v\nwant %d sets", len(got), res.Sets, len(want))
	}
}

func TestMinersCanonicalOrderIdentical(t *testing.T) {
	resA, _ := Apriori(classicTxs(), 2.0/9)
	resE, _ := Eclat(classicTxs(), 2.0/9)
	if !reflect.DeepEqual(resA.Sets, resE.Sets) {
		t.Fatal("canonical ordering differs between miners")
	}
}

func TestMinersAgreeOnRandomData(t *testing.T) {
	src := randx.New(99)
	for trial := 0; trial < 30; trial++ {
		nTx := 20 + src.Intn(60)
		universe := 4 + src.Intn(12)
		txs := make([][]ingredient.ID, nTx)
		for i := range txs {
			size := 1 + src.Intn(6)
			if size > universe {
				size = universe
			}
			picks := src.SampleInts(universe, size)
			txs[i] = tx(picks...)
		}
		for _, sup := range []float64{0.05, 0.1, 0.3, 0.6} {
			resA, errA := Apriori(txs, sup)
			resE, errE := Eclat(txs, sup)
			if errA != nil || errE != nil {
				t.Fatal(errA, errE)
			}
			if !reflect.DeepEqual(setsAsMap(resA), setsAsMap(resE)) {
				t.Fatalf("trial %d sup %v: miners disagree\nA: %v\nE: %v", trial, sup, resA.Sets, resE.Sets)
			}
		}
	}
}

func TestSupportBoundary(t *testing.T) {
	// 20 transactions; item 7 appears exactly once (5%). "At least 5%"
	// must include it.
	txs := make([][]ingredient.ID, 20)
	for i := range txs {
		txs[i] = tx(1)
	}
	txs[0] = tx(1, 7)
	res, err := Eclat(txs, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	got := setsAsMap(res)
	if got[fingerprint(tx(7))] != 1 {
		t.Fatalf("item at exactly 5%% support must be frequent: %v", res.Sets)
	}
	// Below the boundary it must be excluded.
	res2, _ := Eclat(txs, 0.051)
	if _, ok := setsAsMap(res2)[fingerprint(tx(7))]; ok {
		t.Fatal("item below threshold included")
	}
}

func TestEmptyTransactions(t *testing.T) {
	for _, mine := range []func([][]ingredient.ID, float64) (*Result, error){Apriori, Eclat} {
		res, err := mine(nil, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Sets) != 0 || res.N != 0 {
			t.Fatalf("empty input: %+v", res)
		}
	}
}

func TestBadSupportRejected(t *testing.T) {
	for _, mine := range []func([][]ingredient.ID, float64) (*Result, error){Apriori, Eclat} {
		for _, s := range []float64{0, -0.1, 1.01} {
			if _, err := mine(classicTxs(), s); err != ErrBadSupport {
				t.Fatalf("support %v: want ErrBadSupport, got %v", s, err)
			}
		}
	}
}

func TestUnsortedTransactionRejected(t *testing.T) {
	bad := [][]ingredient.ID{{3, 1, 2}}
	if _, err := Apriori(bad, 0.5); err == nil {
		t.Fatal("Apriori accepted unsorted transaction")
	}
	if _, err := Eclat(bad, 0.5); err == nil {
		t.Fatal("Eclat accepted unsorted transaction")
	}
	dup := [][]ingredient.ID{{1, 1, 2}}
	if _, err := Eclat(dup, 0.5); err == nil {
		t.Fatal("duplicate items accepted")
	}
}

func TestSingleTransaction(t *testing.T) {
	res, err := Eclat([][]ingredient.ID{tx(1, 2, 3)}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// All 7 non-empty subsets are frequent at support 1/1.
	if len(res.Sets) != 7 {
		t.Fatalf("got %d itemsets, want 7: %v", len(res.Sets), res.Sets)
	}
}

func TestMonotonicity(t *testing.T) {
	// Raising the threshold can only shrink the result set.
	txs := classicTxs()
	prev := -1
	for _, sup := range []float64{0.1, 0.2, 0.3, 0.5, 0.8, 1.0} {
		res, err := Eclat(txs, sup)
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && len(res.Sets) > prev {
			t.Fatalf("itemset count grew from %d to %d when support rose to %v", prev, len(res.Sets), sup)
		}
		prev = len(res.Sets)
	}
}

func TestDownwardClosure(t *testing.T) {
	// Every subset of a frequent itemset must itself be frequent, with
	// count >= the superset's.
	res, err := Eclat(classicTxs(), 2.0/9)
	if err != nil {
		t.Fatal(err)
	}
	counts := setsAsMap(res)
	for _, s := range res.Sets {
		if len(s.Items) < 2 {
			continue
		}
		sub := make([]ingredient.ID, 0, len(s.Items)-1)
		for skip := range s.Items {
			sub = sub[:0]
			for i, it := range s.Items {
				if i != skip {
					sub = append(sub, it)
				}
			}
			c, ok := counts[fingerprint(sub)]
			if !ok {
				t.Fatalf("subset %v of %v missing", sub, s.Items)
			}
			if c < s.Count {
				t.Fatalf("subset %v count %d < superset %v count %d", sub, c, s.Items, s.Count)
			}
		}
	}
}

func TestCountsExact(t *testing.T) {
	// Brute-force verification of all counts on random small data.
	src := randx.New(123)
	txs := make([][]ingredient.ID, 40)
	for i := range txs {
		txs[i] = tx(src.SampleInts(8, 1+src.Intn(5))...)
	}
	res, err := Eclat(txs, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Sets {
		brute := 0
		for _, t := range txs {
			if containsSorted(t, s.Items) {
				brute++
			}
		}
		if brute != s.Count {
			t.Fatalf("itemset %v count %d, brute force %d", s.Items, s.Count, brute)
		}
	}
}

func TestResultSupports(t *testing.T) {
	res, _ := Eclat(classicTxs(), 2.0/9)
	sup := res.Supports()
	if len(sup) != len(res.Sets) {
		t.Fatal("Supports length mismatch")
	}
	for i, s := range res.Sets {
		want := float64(s.Count) / 9
		if sup[i] != want {
			t.Fatalf("support %d = %v, want %v", i, sup[i], want)
		}
	}
	// Canonical order implies non-increasing supports.
	for i := 1; i < len(sup); i++ {
		if sup[i] > sup[i-1] {
			t.Fatal("supports not non-increasing in canonical order")
		}
	}
}

func TestMaxSize(t *testing.T) {
	res, _ := Eclat(classicTxs(), 2.0/9)
	if got := res.MaxSize(); got != 3 {
		t.Fatalf("MaxSize = %d, want 3", got)
	}
	empty := &Result{}
	if empty.MaxSize() != 0 {
		t.Fatal("empty MaxSize must be 0")
	}
}

func TestContainsSorted(t *testing.T) {
	cases := []struct {
		tx, items []ingredient.ID
		want      bool
	}{
		{tx(1, 2, 3), tx(2), true},
		{tx(1, 2, 3), tx(1, 3), true},
		{tx(1, 2, 3), tx(4), false},
		{tx(1, 2, 3), tx(1, 2, 3, 4), false},
		{tx(1, 3), tx(2), false},
		{tx(), tx(), true},
	}
	for _, c := range cases {
		if got := containsSorted(c.tx, c.items); got != c.want {
			t.Errorf("containsSorted(%v, %v) = %v", c.tx, c.items, got)
		}
	}
}

func TestItemsetSupportZeroN(t *testing.T) {
	s := Itemset{Items: tx(1), Count: 5}
	if s.Support(0) != 0 {
		t.Fatal("Support with n=0 must be 0")
	}
	if s.Support(10) != 0.5 {
		t.Fatal("Support(10) wrong")
	}
}

// TestFingerprintWideIDs pins the 65536 boundary: the old 2-byte
// encoding collided ID 65536+x with ID x (e.g. 65793 with 257); the
// 4-byte encoding must keep them distinct and the miners must agree on
// data that straddles the boundary.
func TestFingerprintWideIDs(t *testing.T) {
	pairs := [][2]ingredient.ID{
		{65536, 0},
		{65537, 1},
		{65793, 257},
		{1 << 24, 0},
	}
	for _, p := range pairs {
		if fingerprint(tx(int(p[0]))) == fingerprint(tx(int(p[1]))) {
			t.Fatalf("fingerprint collides for IDs %d and %d", p[0], p[1])
		}
	}
	// A corpus whose IDs straddle the boundary: with the collapsed
	// encoding, Apriori's candidate bookkeeping confused 257 with 65793.
	txs := [][]ingredient.ID{
		tx(257, 300), tx(257, 300), tx(65793, 300), tx(65793, 300),
		tx(257, 65793), tx(257, 65793),
	}
	resA, errA := Apriori(txs, 0.3)
	resE, errE := Eclat(txs, 0.3)
	if errA != nil || errE != nil {
		t.Fatal(errA, errE)
	}
	if !reflect.DeepEqual(resA.Sets, resE.Sets) {
		t.Fatalf("miners disagree on wide IDs:\nA: %v\nE: %v", resA.Sets, resE.Sets)
	}
	got := setsAsMap(resA)
	if got[fingerprint(tx(257))] != 4 || got[fingerprint(tx(65793))] != 4 {
		t.Fatalf("wide-ID singleton counts wrong: %v", resA.Sets)
	}
}

func BenchmarkApriori1000x9(b *testing.B) {
	src := randx.New(7)
	txs := make([][]ingredient.ID, 1000)
	ws := randx.NewWeightedSampler(zipfWeights(400))
	for i := range txs {
		picks := ws.DrawDistinct(src, 9)
		txs[i] = tx(picks...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Apriori(txs, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}

func zipfWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(i+1)
	}
	return w
}
