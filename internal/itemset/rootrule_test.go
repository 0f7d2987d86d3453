package itemset

import (
	"fmt"
	"reflect"
	"testing"

	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/randx"
)

// rootRuleCorpus synthesizes n distinct transactions whose frequent
// items, at a support count of 3 with n near 6,000 (94-word bitmaps),
// hold roots of every container kind and land on both sides of the
// production root rule: 8 staples, two per transaction (bitsets); 8
// block items, each confined to one contiguous eighth of the
// transactions (one run each); a mid tier of 100 items in one
// transaction in three (arrays of ~20 ids, decoded); and a tail of 200
// items over the first 800 transactions (arrays of 4 ids, kept). A
// marker item per transaction, never frequent, keeps the transactions
// distinct. With dups > 0, that many randomly drawn transactions are
// appended again, so the index is weighted.
func rootRuleCorpus(seed uint64, n, dups int) [][]ingredient.ID {
	src := randx.New(seed)
	const staples, blocks, mid, tail, marker = 8, 8, 100, 200, 1000
	txs := make([][]ingredient.ID, 0, n+dups)
	for t := 0; t < n; t++ {
		a, b := src.Intn(staples), src.Intn(staples-1)
		if b >= a {
			b++
		}
		items := []ingredient.ID{ingredient.ID(a), ingredient.ID(b), ingredient.ID(staples + t*blocks/n)}
		if src.Intn(3) == 0 {
			items = append(items, ingredient.ID(staples+blocks+src.Intn(mid)))
		}
		if t < 4*tail {
			items = append(items, ingredient.ID(staples+blocks+mid+t%tail))
		}
		items = append(items, ingredient.ID(marker+t))
		txs = append(txs, dedupSorted(items))
	}
	for i := 0; i < dups; i++ {
		txs = append(txs, txs[src.Intn(n)])
	}
	return txs
}

// rootKinds counts the frequent roots of ix at minSupport per container
// kind, and how many compressed ones the root rule with constant k
// decodes, through densifyRoots itself.
func rootKinds(ix *Index, minSupport float64, k int) (kinds map[containerKind]int, decoded int) {
	var q eclatQuery
	sh := &q.shared
	sh.words = ix.words
	mc := minCount(ix.n, minSupport)
	kinds = map[containerKind]int{}
	var before []containerKind
	for p, ic := range ix.items {
		if ic.count >= mc {
			pt := ix.postingAt(p)
			kinds[pt.kind]++
			before = append(before, pt.kind)
			sh.root = append(sh.root, eclatExt{item: int32(p), p: pt, count: ic.count})
		}
	}
	q.densifyRoots(k)
	for i, r := range sh.root {
		if before[i] != containerBitset && r.p.kind == containerBitset {
			decoded++
		}
	}
	return kinds, decoded
}

// TestRootRuleEquivalence proves that decoding compressed roots to
// bitsets leaves every mine byte-identical: on corpora whose frequent
// roots hold all three container kinds, unweighted and weighted,
// MineIndexed, MineTop and MineSpectrum on one and three workers give
// the same answer with the root rule forced never to decode, forced
// to decode every compressed root, and at densifyK, where some roots
// decode and some keep their arrays. The never-decode run is the
// container dispatch the dense×compressed differential already proves
// against the dense-forced layout and Apriori; the dense-forced index
// is mined here too.
func TestRootRuleEquivalence(t *testing.T) {
	const support = 0.0005 // a support count of 3 on 6,000 transactions
	corpora := []struct {
		name     string
		txs      [][]ingredient.ID
		weighted bool
	}{
		{"unweighted", rootRuleCorpus(5, 6000, 0), false},
		{"weighted", rootRuleCorpus(6, 5600, 400), true},
	}
	for _, c := range corpora {
		ix, err := BuildIndex(c.txs)
		if err != nil {
			t.Fatal(err)
		}
		if ix.weighted != c.weighted {
			t.Fatalf("%s: index weighted = %v", c.name, ix.weighted)
		}
		kinds, decoded := rootKinds(ix, support, densifyK)
		compressed := kinds[containerArray] + kinds[containerRun]
		if kinds[containerArray] == 0 || kinds[containerRun] == 0 || kinds[containerBitset] == 0 {
			t.Fatalf("%s: frequent roots by kind %v, want all three", c.name, kinds)
		}
		if decoded == 0 || decoded == compressed {
			t.Fatalf("%s: densifyK decodes %d of %d compressed roots, want some but not all", c.name, decoded, compressed)
		}
		dense, err := buildIndexWith(c.txs, true)
		if err != nil {
			t.Fatal(err)
		}
		want, err := eclatRun.indexed(dense, support)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, len(want.Sets))
		for i, s := range want.Sets {
			counts[i] = s.Count
		}
		for _, workers := range []int{1, 3} {
			for _, k := range []int{neverDense, densifyK, alwaysDense} {
				run := kernelRun{k: kernelEclat, workers: workers, denseK: k}
				label := fmt.Sprintf("%s %v", c.name, run)
				got, err := run.indexed(ix, support)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: MineIndexed differs from the dense-forced mine", label)
				}
				top, total, err := run.top(ix, support, 25)
				if err != nil {
					t.Fatal(err)
				}
				if total != len(want.Sets) || !reflect.DeepEqual(top.Sets, want.Sets[:25]) {
					t.Fatalf("%s: MineTop total %d (want %d) or its first 25 sets differ", label, total, len(want.Sets))
				}
				sp, err := run.spectrum(ix, support)
				if err != nil {
					t.Fatal(err)
				}
				if sp.N != want.N || !reflect.DeepEqual(sp.Counts, counts) {
					t.Fatalf("%s: MineSpectrum differs", label)
				}
			}
		}
	}
}

// TestRootArenaBound checks maxKeptRootWords: a builder-owned query
// keeps a small decoded-root arena across mines, and drops one that
// outgrew the cap when the mine releases it. The large mine decodes
// 1,040 roots over a 256-word bitmap: 1,024 items in 16 transactions
// each, 1,024 apart (arrays, on the rule's edge: 256 = 16·16), and 16
// items each holding a block of 1,024 transactions (runs) — 266,240
// words, twice the cap.
func TestRootArenaBound(t *testing.T) {
	var b IndexBuilder
	small, err := b.Build(rootRuleCorpus(5, 6000, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eclatMineIndexed(small, 0.0005, 1, nil, densifyK); err != nil {
		t.Fatal(err)
	}
	if n := cap(b.query.rootBits); n == 0 || n > maxKeptRootWords {
		t.Fatalf("after a small mine the arena holds %d words, want 1..%d", n, maxKeptRootWords)
	}

	const n = 1 << 14
	txs := make([][]ingredient.ID, n)
	for i := range txs {
		txs[i] = []ingredient.ID{ingredient.ID(i % 1024), ingredient.ID(1024 + i/1024)}
	}
	large, err := b.Build(txs)
	if err != nil {
		t.Fatal(err)
	}
	if large.words != 256 {
		t.Fatalf("words = %d, want 256", large.words)
	}
	kinds, decoded := rootKinds(large, 0.0009, densifyK)
	if kinds[containerArray] != 1024 || kinds[containerRun] != 16 || decoded != 1040 {
		t.Fatalf("roots by kind %v, %d decoded; want 1024 arrays and 16 runs, all decoded", kinds, decoded)
	}
	res, err := eclatMineIndexed(large, 0.0009, 1, nil, densifyK)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sets) != 1040 {
		t.Fatalf("mined %d sets, want the 1040 singletons", len(res.Sets))
	}
	if b.query.rootBits != nil {
		t.Fatalf("release kept a %d-word arena past the %d-word cap", cap(b.query.rootBits), maxKeptRootWords)
	}
}
