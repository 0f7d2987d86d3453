package itemset

import (
	"fmt"
	"reflect"
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
		if want[i], err = MineIndexed(kept, sup, MineOptions{Kernel: KernelEclat}); err != nil {
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
				got, err := MineIndexed(ix, supports[i], MineOptions{Kernel: KernelEclat, Workers: g % 3})
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
	for _, opts := range []MineOptions{
		{Kernel: KernelFPGrowth},
		{Kernel: KernelEclat},
		{Kernel: KernelEclat, Workers: 4},
		{Kernel: KernelApriori},
		{},
	} {
		label := fmt.Sprintf("%v/workers=%d", opts.Kernel, opts.Workers)
		fromMine, err := Mine(a, 0.05, opts)
		if err != nil {
			t.Fatal(err)
		}
		var b IndexBuilder
		ix, err := b.Build(a)
		if err != nil {
			t.Fatal(err)
		}
		res, err := MineIndexed(ix, 0.05, opts)
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
		if _, err := MineIndexed(ixB, 0.05, opts); err != nil {
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
		"txArena": b.txArena, "txOff": b.txOff, "weights": b.weights, "postCard": b.postCard,
		"postOff": b.postOff, "postLen": b.postLen, "counts": b.counts, "slot": b.slot,
		"table": b.table, "nruns": b.nruns, "last": b.last,
	} {
		add(name, unsafe.Pointer(unsafe.SliceData(s)), uintptr(cap(s))*4)
	}
	add("sorted", unsafe.Pointer(unsafe.SliceData(b.sorted)), uintptr(cap(b.sorted))*4)
	add("idArena", unsafe.Pointer(unsafe.SliceData(b.idArena)), uintptr(cap(b.idArena))*4)
	add("bitsArena", unsafe.Pointer(unsafe.SliceData(b.bitsArena)), uintptr(cap(b.bitsArena))*8)
	add("hashes", unsafe.Pointer(unsafe.SliceData(b.hashes)), uintptr(cap(b.hashes))*8)
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
