package itemset

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"cuisinevol/internal/cuisine"
	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/randx"
	"cuisinevol/internal/synth"
)

// wideCorpus spreads item IDs over [lo, lo+spread) — negative and
// multi-million-wide ranges included — in duplicate-heavy transactions,
// so the builder takes its wide-range position fallback.
func wideCorpus(seed uint64, lo, spread, n int) [][]ingredient.ID {
	src := randx.New(seed)
	universe := make([]int, 40)
	for i := range universe {
		universe[i] = lo + src.Intn(spread)
	}
	txs := make([][]ingredient.ID, 0, n)
	for len(txs) < n {
		if len(txs) > 0 && src.Float64() < 0.4 {
			txs = append(txs, txs[src.Intn(len(txs))])
			continue
		}
		var ids []int
		for _, k := range src.SampleInts(len(universe), 1+src.Intn(6)) {
			ids = append(ids, universe[k])
		}
		txs = append(txs, dedupSorted(tx(ids...)))
	}
	return txs
}

// distinctCorpus is a corpus of pairwise-distinct transactions, so its
// index is unweighted.
func distinctCorpus(n int) [][]ingredient.ID {
	txs := make([][]ingredient.ID, n)
	for i := range txs {
		txs[i] = tx(i%7, 7+i)
	}
	return txs
}

type namedCorpus struct {
	name string
	txs  [][]ingredient.ID
}

// builderCorpora is the shape sweep the builder identity tests walk, in
// an order that makes every transition the reuse test cares about:
// large then small, weighted then unweighted, ingredients then
// categories, empties, then negative and wide-range IDs.
func builderCorpora(t *testing.T) []namedCorpus {
	t.Helper()
	gen := synth.DefaultConfig(42)
	gen.RecipeScale = 0.03
	corpus, err := synth.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	ita := corpus.Region(cuisine.All()[0].Code)
	return []namedCorpus{
		{"large-replicate-pool", replicatePool(7, 30, 3000, 9, 300)},
		{"small-classic", classicTxs()},
		{"weighted", replicatePool(3, 5, 400, 6, 40)},
		{"unweighted", distinctCorpus(300)},
		{"ingredients", ita.Transactions()},
		{"categories", ita.CategoryTransactions()},
		{"empty-transactions", [][]ingredient.ID{tx(), tx(1, 2), tx(), tx(1, 2), tx()}},
		{"only-empty-transactions", [][]ingredient.ID{tx(), tx(), tx()}},
		{"empty-corpus", nil},
		{"negative-ids", wideCorpus(5, -1000, 600, 200)},
		{"wide-range", wideCorpus(6, -(1 << 22), 1<<23, 300)},
		{"int32-extremes", [][]ingredient.ID{tx(-1<<31, 0, 1<<31-1), tx(-1<<31, 1<<31-1), tx(-1<<31, 0, 1<<31-1)}},
		{"dense-again", replicatePool(11, 20, 1500, 9, 200)},
		{"long-tail", longTailCorpus(3, 4000, 50, 400)},
	}
}

// TestBuildIndexMatchesLegacy pins the one-shot build against the frozen
// map-based implementation it replaced: the Index — fingerprint, item
// order, dedup order, containers, padding, accounting, nil-ness — must
// be reflect.DeepEqual on every corpus shape, in both posting layouts.
func TestBuildIndexMatchesLegacy(t *testing.T) {
	for _, c := range builderCorpora(t) {
		for _, denseOnly := range []bool{false, true} {
			want, err := legacyBuildIndex(c.txs, denseOnly)
			if err != nil {
				t.Fatal(err)
			}
			got, err := buildIndexWith(c.txs, denseOnly)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s (denseOnly=%v): build differs from legacy build", c.name, denseOnly)
			}
		}
	}
}

// withoutQuery returns a copy of a builder's index without its link to
// the builder's Eclat query state — mining scratch, not index content —
// so it can be compared with a kept index, which has none.
func withoutQuery(ix *Index) *Index {
	c := *ix
	c.query = nil
	return &c
}

// TestIndexBuilderReuse feeds one builder the whole corpus sequence
// twice over and requires every index to be reflect.DeepEqual to a
// fresh BuildIndex: no stale count, position, dedup slot, weighted
// flag, weight padding or container may survive from the previous
// build. A failed build in between must not disturb the next one. The
// builder's indexes carry its query state; kept indexes carry none.
func TestIndexBuilderReuse(t *testing.T) {
	corpora := builderCorpora(t)
	var b IndexBuilder
	for round := 0; round < 2; round++ {
		for _, c := range corpora {
			label := fmt.Sprintf("round %d %s", round, c.name)
			want, err := BuildIndex(c.txs)
			if err != nil {
				t.Fatal(err)
			}
			got, err := b.Build(c.txs)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if got.query != &b.query || want.query != nil {
				t.Fatalf("%s: builder index query %p (want %p), kept index query %p (want nil)", label, got.query, &b.query, want.query)
			}
			if !reflect.DeepEqual(withoutQuery(got), want) {
				t.Fatalf("%s: reused build differs from a fresh one", label)
			}
			if _, err := b.Build([][]ingredient.ID{{2, 1}}); err == nil {
				t.Fatalf("%s: reused builder accepted an unsorted transaction", label)
			}
		}
	}
	// The dense-forced layout reuses the same arenas.
	for _, c := range corpora {
		want, err := buildIndexWith(c.txs, true)
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.build(c.txs, true)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(withoutQuery(got), want) {
			t.Fatalf("dense-only %s: reused build differs from a fresh one", c.name)
		}
	}
}

// TestIndexBuilderReuseWeightedMines: one builder mines a weighted
// index, an unweighted one, a weighted one over fewer words, then the
// same transactions reversed, which numbers the unique transactions
// differently over the same words. Each Eclat spectrum and Result must
// equal MineIndexed's on a fresh BuildIndex, and after each weighted
// mine the query's heavy mask must hold exactly the new index's
// weight > 1 transactions — none carried over from an earlier index.
func TestIndexBuilderReuseWeightedMines(t *testing.T) {
	fewer := replicatePool(3, 5, 400, 6, 40)
	reversed := slices.Clone(fewer)
	slices.Reverse(reversed)
	corpora := []namedCorpus{
		{"weighted", replicatePool(7, 30, 3000, 9, 300)},
		{"unweighted", distinctCorpus(300)},
		{"weighted-fewer-words", fewer},
		{"weighted-renumbered", reversed},
	}
	var b IndexBuilder
	var words []int
	for i, c := range corpora {
		fresh, err := BuildIndex(c.txs)
		if err != nil {
			t.Fatal(err)
		}
		if wantWeighted := i != 1; fresh.weighted != wantWeighted {
			t.Fatalf("%s: weighted=%v, want %v", c.name, fresh.weighted, wantWeighted)
		}
		words = append(words, fresh.words)
		if i == 2 && words[2] >= words[0] || i == 3 && words[3] != words[2] {
			t.Fatalf("%s: index words %v, want the third below the first and the fourth equal to the third", c.name, words)
		}
		for _, run := range []kernelRun{eclatRun, {workers: 4}} {
			label := fmt.Sprintf("%s/workers=%d", c.name, run.workers)
			want, err := run.indexed(fresh, 0.02)
			if err != nil {
				t.Fatal(err)
			}
			ix, err := b.Build(c.txs)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := run.spectrum(ix, 0.02)
			if err != nil {
				t.Fatal(err)
			}
			wantCounts := make([]int, len(want.Sets))
			for k, s := range want.Sets {
				wantCounts[k] = s.Count
			}
			if !reflect.DeepEqual(spec, Spectrum{Counts: wantCounts, N: want.N}) {
				t.Fatalf("%s: builder spectrum differs from a fresh index's Result", label)
			}
			if got, err := run.indexed(ix, 0.02); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: builder Result differs from a fresh index's (err %v)", label, err)
			}
			if !fresh.weighted {
				continue
			}
			wantHeavy := make([]uint64, fresh.words)
			for u, w := range fresh.weights[:fresh.uniques] {
				if w > 1 {
					wantHeavy[u>>6] |= 1 << (u & 63)
				}
			}
			if !reflect.DeepEqual(b.query.shared.heavy, wantHeavy) {
				t.Fatalf("%s: heavy mask %x, want %x", label, b.query.shared.heavy, wantHeavy)
			}
		}
	}
}

// TestBuilderQueryConcurrentMines: a builder's index carries the
// builder's query state, and only one mine at a time may use it. Eight
// goroutines mining the same builder index at once, serial and
// parallel Eclat, must each get the Result a kept index gives; the
// losers of the claim mine with pooled state.
func TestBuilderQueryConcurrentMines(t *testing.T) {
	txs := replicatePool(9, 30, 3000, 9, 300)
	kept, err := BuildIndex(txs)
	if err != nil {
		t.Fatal(err)
	}
	var b IndexBuilder
	ix, err := b.Build(txs)
	if err != nil {
		t.Fatal(err)
	}
	supports := []float64{0.02, 0.05, 0.1}
	want := make([]*Result, len(supports))
	for i, sup := range supports {
		if want[i], err = eclatRun.indexed(kept, sup); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 10; round++ {
				i := (g + round) % len(supports)
				got, err := kernelRun{workers: g % 3}.indexed(ix, supports[i])
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d round %d: builder-index mine differs from the kept index's", g, round)
					return
				}
			}
		}()
	}
	wg.Wait()
	if b.query.busy.Load() {
		t.Fatal("the builder's query state is still claimed after every mine returned")
	}
}

// TestMineResultOwnership: a Result mined from a builder's index owns
// its itemsets. Mining corpus B through the same builder must leave
// corpus A's Result untouched, and no Itemset.Items may point into any
// of the builder's arenas.
func TestMineResultOwnership(t *testing.T) {
	a := replicatePool(7, 30, 3000, 9, 300)
	bTxs := replicatePool(8, 25, 2000, 9, 300)
	for _, run := range append(eclatRuns, autoRun) {
		label := run.String()
		fromMine, err := run.mine(a, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		var b IndexBuilder
		ix, err := b.Build(a)
		if err != nil {
			t.Fatal(err)
		}
		res, err := run.indexed(ix, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, fromMine) {
			t.Fatalf("%s: builder mine differs from Mine", label)
		}
		snapshot := deepCopyResult(res)
		assertNoArenaAliasing(t, &b, res, label)

		ixB, err := b.Build(bTxs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := run.indexed(ixB, 0.05); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, snapshot) {
			t.Fatalf("%s: corpus A's result changed after mining corpus B through the same builder", label)
		}
	}
}

func deepCopyResult(r *Result) *Result {
	out := &Result{N: r.N, Sets: make([]Itemset, len(r.Sets))}
	for i, s := range r.Sets {
		out.Sets[i] = Itemset{Items: append([]ingredient.ID(nil), s.Items...), Count: s.Count}
	}
	return out
}

// assertNoArenaAliasing fails if any itemset's backing array overlaps
// the full capacity of any slice the builder holds.
func assertNoArenaAliasing(t *testing.T, b *IndexBuilder, res *Result, label string) {
	t.Helper()
	type span struct {
		name     string
		lo, size uintptr
	}
	var arenas []span
	add := func(name string, p unsafe.Pointer, size uintptr) {
		if p != nil && size > 0 {
			arenas = append(arenas, span{name, uintptr(p), size})
		}
	}
	add("items", unsafe.Pointer(unsafe.SliceData(b.items)), uintptr(cap(b.items))*unsafe.Sizeof(itemCount{}))
	for name, s := range map[string][]int32{
		"rows": b.rows, "rowOff": b.rowOff, "weights": b.weights, "postCard": b.postCard,
		"postOff": b.postOff, "postLen": b.postLen, "counts": b.counts, "slot": b.slot,
		"stamp": b.stamp, "nruns": b.nruns, "last": b.last,
	} {
		add(name, unsafe.Pointer(unsafe.SliceData(s)), uintptr(cap(s))*4)
	}
	add("sorted", unsafe.Pointer(unsafe.SliceData(b.sorted)), uintptr(cap(b.sorted))*4)
	add("idArena", unsafe.Pointer(unsafe.SliceData(b.idArena)), uintptr(cap(b.idArena))*4)
	add("bitsArena", unsafe.Pointer(unsafe.SliceData(b.bitsArena)), uintptr(cap(b.bitsArena))*8)
	add("table", unsafe.Pointer(unsafe.SliceData(b.table)), uintptr(cap(b.table))*4)
	add("keys", unsafe.Pointer(unsafe.SliceData(b.keys)), uintptr(cap(b.keys))*8)
	add("masks", unsafe.Pointer(unsafe.SliceData(b.masks)), uintptr(cap(b.masks))*8)
	for _, s := range res.Sets {
		if len(s.Items) == 0 {
			continue
		}
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(s.Items)))
		hi := lo + uintptr(cap(s.Items))*4
		for _, a := range arenas {
			if lo < a.lo+a.size && a.lo < hi {
				t.Fatalf("%s: itemset %v aliases the builder's %s arena", label, s.Items, a.name)
			}
		}
	}
}

// permutedSets returns a copy of txs with each transaction's items in a
// random order drawn from src.
func permutedSets(src *randx.Source, txs [][]ingredient.ID) [][]ingredient.ID {
	out := make([][]ingredient.ID, len(txs))
	for i, tx := range txs {
		p := slices.Clone(tx)
		src.Shuffle(len(p), func(a, b int) { p[a], p[b] = p[b], p[a] })
		out[i] = p
	}
	return out
}

// nonNegativeIDs reports whether every item of txs is at least 0, and
// the bound one past the largest.
func nonNegativeIDs(txs [][]ingredient.ID) (bound int, ok bool) {
	for _, tx := range txs {
		for _, it := range tx {
			if it < 0 {
				return 0, false
			}
			bound = max(bound, int(it)+1)
		}
	}
	return bound, true
}

// assertSpectrumOfSets requires SpectrumOfSets over permuted, at every
// bound from the tightest up, to return the spectrum MineSpectrum mines
// off BuildIndex over sorted — the same transactions with ascending
// items — and its projected index to mine, serially and over four
// workers, the Result the kept index gives at that support. A bound one below the
// tightest must be an error. It returns the largest number of items
// the projection kept.
func assertSpectrumOfSets(t *testing.T, b *IndexBuilder, sorted, permuted [][]ingredient.ID, sup float64, label string) int {
	t.Helper()
	kept, err := BuildIndex(sorted)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MineSpectrum(kept, sup, MineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := eclatRun.indexed(kept, sup)
	if err != nil {
		t.Fatal(err)
	}
	bound, _ := nonNegativeIDs(sorted)
	for _, bd := range []int{bound, bound + 1, bound + 100} {
		got, err := b.SpectrumOfSets(permuted, bd, sup)
		if err != nil {
			t.Fatalf("%s bound %d support %v: %v", label, bd, sup, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s bound %d support %v: SpectrumOfSets %v, want %v", label, bd, sup, got, want)
		}
	}
	projected := b.ix
	for _, k := range eclatRuns {
		got, err := k.indexed(projected, sup)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, wantRes) {
			t.Fatalf("%s support %v: %v on the projected index differs from a kept index", label, sup, k)
		}
	}
	if bound > 0 {
		if _, err := b.SpectrumOfSets(permuted, bound-1, sup); err == nil {
			t.Fatalf("%s: item %d is outside bound %d, but SpectrumOfSets accepted it", label, bound-1, bound-1)
		}
	}
	return projected.DistinctItems()
}

// TestSpectrumOfSetsMatchesBuild: over every corpus shape with
// non-negative IDs, one reused builder's SpectrumOfSets of randomly
// permuted transactions returns the spectrum of Build over the sorted
// ones. At 2% the wide corpora keep more than 64 items, and the widest
// more than 128, so a mask spans two and three words; at 100% at most
// the items in every transaction are kept. containerMixCorpus projects
// to every container kind, and heavyRecipeCorpus is mostly copies of
// one recipe. A corpus with a negative ID is an error.
func TestSpectrumOfSetsMatchesBuild(t *testing.T) {
	src := randx.New(0x5E75)
	var b IndexBuilder
	widest := 0
	for _, c := range append(builderCorpora(t), namedCorpus{"container-mix", containerMixCorpus()}) {
		permuted := permutedSets(src, c.txs)
		if _, ok := nonNegativeIDs(c.txs); !ok {
			if _, err := b.SpectrumOfSets(permuted, 1<<20, 0.1); err == nil {
				t.Fatalf("%s: negative item accepted", c.name)
			}
			continue
		}
		for _, sup := range []float64{0.02, 0.1, 1} {
			widest = max(widest, assertSpectrumOfSets(t, &b, c.txs, permuted, sup, c.name))
		}
	}
	if widest <= 128 {
		t.Fatalf("the widest projection kept %d items, want a mask of more than two words", widest)
	}
	heavy := heavyRecipeCorpus()
	permuted := permutedSets(src, heavy)
	for _, sup := range []float64{0.05, 1} {
		assertSpectrumOfSets(t, &b, heavy, permuted, sup, "one-heavy-recipe")
	}
}

// heavyRecipeCorpus is 5,000 copies of one six-item recipe shuffled
// among 50 distinct recipes of 3 to 8 items over 60. Every recipe holds
// item 0, so a 100% support keeps one item.
func heavyRecipeCorpus() [][]ingredient.ID {
	src := randx.New(0x4EA7)
	txs := make([][]ingredient.ID, 0, 5050)
	seen := map[string]bool{}
	for len(txs) < 50 {
		r := tx(src.SampleInts(59, 2+src.Intn(6))...)
		for i := range r {
			r[i]++
		}
		r = append([]ingredient.ID{0}, r...)
		if key := fmt.Sprint(r); !seen[key] {
			seen[key] = true
			txs = append(txs, r)
		}
	}
	heavy := tx(0, 8, 15, 21, 30, 42)
	for range 5000 {
		txs = append(txs, slices.Clone(heavy))
	}
	src.Shuffle(len(txs), func(a, b int) { txs[a], txs[b] = txs[b], txs[a] })
	return txs
}

// containerMixCorpus projects to postings of every container kind:
// transaction i holds the items of i's binary digits, so the high
// digits' items form runs of unique transactions, item 13 marks the
// first half, and item 14 is frequent only through one transaction's
// 100 duplicates, so its posting is a one-element array.
func containerMixCorpus() [][]ingredient.ID {
	var txs [][]ingredient.ID
	for i := 0; i < 4096; i++ {
		var tx []ingredient.ID
		for d := 0; d < 12; d++ {
			if i>>d&1 == 1 {
				tx = append(tx, ingredient.ID(d))
			}
		}
		if i < 2048 {
			tx = append(tx, 13)
		}
		txs = append(txs, tx)
	}
	for range 100 {
		txs = append(txs, tx(0, 14))
	}
	return txs
}

// TestSpectrumOfSetsRepeatedItem: a transaction that repeats an item is
// an error when the item, its repeat counted, reaches the threshold,
// and otherwise leaves the spectrum of the transactions without the
// repeat unchanged.
func TestSpectrumOfSetsRepeatedItem(t *testing.T) {
	txs := [][]ingredient.ID{tx(1, 2), tx(1, 3), tx(1, 2), tx(4)}
	var b IndexBuilder
	// Item 1 is in three transactions: frequent at 3/4.
	if _, err := b.SpectrumOfSets(append(slices.Clone(txs), tx(2, 1, 1)), 5, 0.6); err == nil {
		t.Fatal("a repeated frequent item was accepted")
	}
	// Item 5, counted twice, stays below 3 of 5.
	bad := append(slices.Clone(txs), tx(5, 2, 5))
	good := append(slices.Clone(txs), tx(2, 5))
	want, err := b.SpectrumOfSets(good, 6, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := b.SpectrumOfSets(bad, 6, 0.6); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("a repeated infrequent item: spectrum %v (err %v), want %v", got, err, want)
	}
	if _, err := b.SpectrumOfSets(txs, -1, 0.5); err == nil {
		t.Fatal("a negative bound was accepted")
	}
	for _, sup := range []float64{0, -0.1, 1.5} {
		if _, err := b.SpectrumOfSets(txs, 5, sup); err != ErrBadSupport {
			t.Fatalf("support %v: err %v, want ErrBadSupport", sup, err)
		}
	}
}

// TestBuildDedupUnderHashCollisions zeroes a builder's dedup-hash keys,
// so every transaction hashes to the same slot and tag, and only the
// stamped set compare can tell item sets apart: Build must still index
// what a builder with real keys does.
func TestBuildDedupUnderHashCollisions(t *testing.T) {
	src := randx.New(0xC011)
	txs := make([][]ingredient.ID, 0, 300)
	for len(txs) < cap(txs) {
		if len(txs) > 0 && src.Intn(3) == 0 {
			txs = append(txs, slices.Clone(txs[src.Intn(len(txs))]))
			continue
		}
		tx := []ingredient.ID{ingredient.ID(src.Intn(12)), ingredient.ID(12 + src.Intn(12)), ingredient.ID(24 + src.Intn(12))}
		txs = append(txs, tx[:1+src.Intn(3)])
	}
	want, err := buildIndexWith(txs, false)
	if err != nil {
		t.Fatal(err)
	}
	var b IndexBuilder
	b.keys = make([]uint64, 64)
	got, err := b.Build(txs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(withoutQuery(got), want) {
		t.Fatal("Build with colliding dedup hashes differs from a fresh build")
	}
	if want.uniques == len(txs) || want.uniques < 50 {
		t.Fatalf("corpus has %d unique of %d transactions: want both duplicates and many distinct sets", want.uniques, len(txs))
	}
}

// FuzzSpectrumOfSets: decoded transactions, and the same banded so
// that up to 120 items make masks two words wide, each permuted at
// random, must give SpectrumOfSets the spectrum of Build over the
// sorted transactions, through a reused builder, and an ID at the
// bound must be rejected. The same input with one item repeated
// inside one transaction is an error when that item, its repeat
// counted, reaches the threshold, and gives the same spectrum
// otherwise.
func FuzzSpectrumOfSets(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 1, 2, 3, 0xff, 3, 2, 0xff, 2, 3, 0xff, 1, 2, 3})
	f.Add([]byte{2, 5, 6, 7, 0xff, 7, 6, 5, 0xff, 5, 6, 7, 0xff, 7})
	f.Add([]byte{3, 0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33})
	f.Add([]byte{4, 0, 0xff, 1, 0xff, 2, 0xff, 0, 1, 0xff, 1, 0})
	var b IndexBuilder
	f.Fuzz(func(t *testing.T, data []byte) {
		txs, sup := decodeFuzzCorpus(data)
		seed := uint64(len(data))
		for _, x := range data {
			seed = seed*31 + uint64(x)
		}
		src := randx.New(seed)
		banded := make([][]ingredient.ID, len(txs))
		for i, tx := range txs {
			for _, it := range tx {
				banded[i] = append(banded[i], it+ingredient.ID(i%3*fuzzItemAlphabet))
			}
		}
		for _, c := range []namedCorpus{{"decoded", txs}, {"banded", banded}} {
			for _, s := range []float64{sup, 1e-9} {
				permuted := permutedSets(src, c.txs)
				assertSpectrumOfSets(t, &b, c.txs, permuted, s, c.name)
				if len(permuted) == 0 {
					continue
				}
				i := src.Intn(len(permuted))
				if len(permuted[i]) == 0 {
					continue
				}
				it := permuted[i][src.Intn(len(permuted[i]))]
				repeated := append(slices.Clone(permuted[i]), it)
				src.Shuffle(len(repeated), func(a, b int) { repeated[a], repeated[b] = repeated[b], repeated[a] })
				bad := slices.Clone(permuted)
				bad[i] = repeated
				counted := 1
				for _, tx := range c.txs {
					if slices.Contains(tx, it) {
						counted++
					}
				}
				bound, _ := nonNegativeIDs(c.txs)
				got, err := b.SpectrumOfSets(bad, bound, s)
				if counted >= minCount(len(bad), s) {
					if err == nil {
						t.Fatalf("%s: transaction %d %v repeats item %d, counted %d times, but SpectrumOfSets accepted it", c.name, i, repeated, it, counted)
					}
					continue
				}
				want, _ := b.SpectrumOfSets(permuted, bound, s)
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: repeating infrequent item %d in transaction %d: spectrum %v (err %v), want %v", c.name, it, i, got, err, want)
				}
			}
		}
	})
}
