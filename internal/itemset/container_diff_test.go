package itemset

import (
	"reflect"
	"runtime"
	"testing"

	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/randx"
)

// The dense×compressed differential layer: the adaptive posting
// containers must be invisible to every consumer. buildIndexWith(txs,
// true) pins the pre-container uniform dense layout, so comparing it
// against the production BuildIndex — container by container and mined
// Result by mined Result — is the identity proof the tentpole rides on.

// corpusFromTidsets builds a corpus whose unique-transaction ids are
// exactly 0..uniques-1 and whose item i has exactly tidsets[i] as its
// tidset: transaction t carries every item whose tidset contains t plus
// a distinct high-ID marker item, so transactions never dedup-collapse
// and transaction order is tid order.
func corpusFromTidsets(uniques int, tidsets [][]int) [][]ingredient.ID {
	const markerBase = 1000
	txs := make([][]ingredient.ID, uniques)
	for t := 0; t < uniques; t++ {
		var tx []ingredient.ID
		for i, tids := range tidsets {
			for _, tid := range tids {
				if tid == t {
					tx = append(tx, ingredient.ID(i))
					break
				}
			}
		}
		txs[t] = append(tx, ingredient.ID(markerBase+t))
	}
	return txs
}

// runsOf counts the maximal runs of consecutive ids in a sorted tidset.
func runsOf(tids []int) int {
	runs := 0
	for i, t := range tids {
		if i == 0 || t != tids[i-1]+1 {
			runs++
		}
	}
	return runs
}

// TestContainerLayoutPins pins the promotion thresholds item by item on
// a 192-unique-transaction corpus (words = 3, so bitset cost = 6
// uint32s): every cost comparison and every tie-break direction gets
// one item sitting exactly on its edge, plus ids straddling 64-bit word
// boundaries. A failure names the container whose choice or contents
// moved.
func TestContainerLayoutPins(t *testing.T) {
	evens := make([]int, 0, 96)
	all := make([]int, 0, 192)
	for i := 0; i < 192; i++ {
		all = append(all, i)
		if i%2 == 0 {
			evens = append(evens, i)
		}
	}
	cases := []struct {
		name string
		tids []int
		kind containerKind
	}{
		{"singleton-array", []int{0}, containerArray},
		{"full-range-run", all, containerRun},
		{"alternating-bitset", evens, containerBitset},                                         // 96 runs of 1: bitset (6) < array (96) < run (192)
		{"short-prefix-run", []int{0, 1, 2, 3, 4, 5}, containerRun},                            // run (2) < array (6) = bitset (6)
		{"scattered-tie-array", []int{0, 32, 64, 96, 128, 160}, containerArray},                // array (6) = bitset (6): array wins ties
		{"paired-tie-array", []int{0, 1, 64, 65, 128, 129}, containerArray},                    // array (6) = run (6): array wins ties
		{"runs-tie-over-bitset", []int{0, 1, 2, 64, 65, 66, 128, 129, 130, 131}, containerRun}, // run (6) = bitset (6) < array (10): run wins
		{"word-edge-array", []int{63, 64}, containerArray},
		{"word-edge-run", []int{63, 64, 65}, containerRun}, // a run crossing the word boundary
		{"second-edge-array", []int{127, 128}, containerArray},
		{"last-id-array", []int{191}, containerArray},
	}
	tidsets := make([][]int, len(cases))
	for i, c := range cases {
		tidsets[i] = c.tids
	}
	txs := corpusFromTidsets(192, tidsets)
	ix, err := BuildIndex(txs)
	if err != nil {
		t.Fatal(err)
	}
	if ix.UniqueTransactions() != 192 || ix.words != 3 {
		t.Fatalf("corpus shape: uniques = %d, words = %d (want 192, 3)", ix.UniqueTransactions(), ix.words)
	}
	for i, c := range cases {
		p, _ := ix.position(ingredient.ID(i))
		if got := ix.postKind[p]; got != c.kind {
			t.Errorf("%s: container kind %d, want %d", c.name, got, c.kind)
		}
		if got := int(ix.postCard[p]); got != len(c.tids) {
			t.Errorf("%s: cardinality %d, want %d", c.name, got, len(c.tids))
		}
		got := appendPostingIDs(nil, ix.postingAt(int(p)), ix.words)
		want := make([]uint32, len(c.tids))
		for j, tid := range c.tids {
			want[j] = uint32(tid)
		}
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Errorf("%s: materialized ids %v, want %v", c.name, got, want)
		}
		if got := choosePostingKind(len(c.tids), runsOf(c.tids), ix.words); got != c.kind {
			t.Errorf("%s: choosePostingKind = %d, want %d", c.name, got, c.kind)
		}
	}
	// The dense-forced twin carries the same content under the uniform
	// layout: same fingerprint, same materialized tidsets, all bitsets.
	dense, err := buildIndexWith(txs, true)
	if err != nil {
		t.Fatal(err)
	}
	assertDenseCompressedTwins(t, dense, ix, "layout-pins")
	allKernelsIndexed(t, ix, txs, 0.02, "layout-pins-compressed")
	allKernelsIndexed(t, dense, txs, 0.02, "layout-pins-dense")
}

// assertDenseCompressedTwins checks the structural identity between a
// dense-forced and a production index over the same corpus: equal
// fingerprints and statistics, item-by-item identical materialized
// tidsets, an all-bitset mix on the dense side, and a compressed side
// that never retains more bytes than the dense one.
func assertDenseCompressedTwins(t *testing.T, dense, comp *Index, label string) {
	t.Helper()
	if dense.Fingerprint() != comp.Fingerprint() {
		t.Fatalf("%s: fingerprints diverge: dense %s, compressed %s", label, dense.Fingerprint(), comp.Fingerprint())
	}
	if dense.N() != comp.N() || dense.UniqueTransactions() != comp.UniqueTransactions() ||
		dense.DistinctItems() != comp.DistinctItems() || dense.TotalOccurrences() != comp.TotalOccurrences() {
		t.Fatalf("%s: shape statistics diverge", label)
	}
	if st := dense.ContainerStats(); st.Arrays != 0 || st.Runs != 0 || st.Bitsets != dense.DistinctItems() {
		t.Fatalf("%s: dense-forced index has mix %+v, want all bitsets", label, st)
	}
	if comp.Bytes() > dense.Bytes() {
		t.Errorf("%s: compressed index retains %d bytes > dense %d — cost minimum violated", label, comp.Bytes(), dense.Bytes())
	}
	for p := 0; p < comp.DistinctItems(); p++ {
		dIDs := appendPostingIDs(nil, dense.postingAt(p), dense.words)
		cIDs := appendPostingIDs(nil, comp.postingAt(p), comp.words)
		if !reflect.DeepEqual(dIDs, cIDs) {
			t.Fatalf("%s: item pos %d: dense tidset %v, compressed %v", label, p, dIDs, cIDs)
		}
		if c := comp.postCard[p]; int(c) != len(cIDs) {
			t.Fatalf("%s: item pos %d: postCard %d, materialized %d ids", label, p, c, len(cIDs))
		}
	}
}

// longTailCorpus synthesizes the sparse shape of the world-recipes
// datasets: 16 staples with two per transaction (dense bitset
// postings), a mid tier of moderately common items in one transaction
// in five (array postings), and a long tail of rare items, one per
// transaction round-robin — sparse arrays that also keep every
// transaction distinct, so the unique-transaction space (and with it
// the dense bitmap width the containers are measured against) scales
// with n. This is the regime where the uniform dense layout wasted
// ~words×8 bytes per tail item and swept mostly-zero words per
// intersection.
func longTailCorpus(seed uint64, n, mid, tail int) [][]ingredient.ID {
	src := randx.New(seed)
	txs := make([][]ingredient.ID, 0, n)
	pick := make(map[ingredient.ID]bool, 8)
	for t := 0; t < n; t++ {
		clear(pick)
		for k := 0; k < 2; k++ {
			pick[ingredient.ID(src.Intn(16))] = true
		}
		if src.Float64() < 0.2 {
			pick[ingredient.ID(16+src.Intn(mid))] = true
		}
		pick[ingredient.ID(16+mid+t%tail)] = true
		tx := make([]ingredient.ID, 0, len(pick))
		for id := range pick {
			tx = append(tx, id)
		}
		sortIDs(tx)
		txs = append(txs, tx)
	}
	return txs
}

// TestDenseCompressedDifferential crosses the dense-forced and
// production layouts over randomized, edge and synthetic-sparse
// corpora: identical fingerprints and tidsets, and byte-identical mined
// Results from the kernel (serial and parallel) on both indexes,
// each chained to the raw Apriori oracle.
func TestDenseCompressedDifferential(t *testing.T) {
	src := randx.New(20260808)
	type corpus struct {
		name string
		txs  [][]ingredient.ID
	}
	corpora := []corpus{
		{"empty", nil},
		{"one-empty-tx", [][]ingredient.ID{{}}},
		{"single", [][]ingredient.ID{tx(1, 2, 3)}},
		{"identical", [][]ingredient.ID{tx(4, 5), tx(4, 5), tx(4, 5), tx(4, 5)}},
		{"long-tail", longTailCorpus(3, 1024, 200, 400)},
		{"replicate-pool", replicatePool(9, 20, 400, 9, 300)},
	}
	for trial := 0; trial < 8; trial++ {
		universe := []int{5, 40, 300, 2000}[trial%4]
		total := src.Intn(200)
		db := make([][]ingredient.ID, 0, total)
		for len(db) < total {
			size := src.Intn(10)
			if size > universe {
				size = universe
			}
			db = append(db, tx(src.SampleInts(universe, size)...))
		}
		corpora = append(corpora, corpus{name: "random", txs: db})
	}
	for _, c := range corpora {
		comp, err := BuildIndex(c.txs)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		dense, err := buildIndexWith(c.txs, true)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		assertDenseCompressedTwins(t, dense, comp, c.name)
		for _, support := range []float64{0.01, 0.1, 0.5} {
			base := allKernelsIndexed(t, comp, c.txs, support, c.name+"-compressed")
			densed := allKernelsIndexed(t, dense, c.txs, support, c.name+"-dense")
			if !reflect.DeepEqual(base.Sets, densed.Sets) {
				t.Fatalf("%s @ %v: compressed and dense results diverge", c.name, support)
			}
		}
	}
}

// TestSparseCompressionWin pins the tentpole's headline number on the
// synthetic long-tail corpus: the adaptive layout must retain at most a
// quarter of the dense layout's bytes (the acceptance bar is 4×), with
// the savings concentrated where they should be — tail items in array
// containers, staples still dense.
func TestSparseCompressionWin(t *testing.T) {
	txs := longTailCorpus(11, 8192, 1024, 2000)
	comp, err := BuildIndex(txs)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := buildIndexWith(txs, true)
	if err != nil {
		t.Fatal(err)
	}
	if comp.Bytes()*4 > dense.Bytes() {
		t.Errorf("compression win %.2fx < 4x (compressed %d bytes, dense %d)",
			float64(dense.Bytes())/float64(comp.Bytes()), comp.Bytes(), dense.Bytes())
	}
	st := comp.ContainerStats()
	if st.Bitsets == 0 || st.Arrays == 0 {
		t.Errorf("container mix %+v: want staples in bitsets and a tail in arrays", st)
	}
	if st.BytesSaved() == 0 {
		t.Error("BytesSaved = 0 on a long-tail corpus")
	}
}

// TestIndexBytesAccounting pins Bytes() against the measured retained
// heap size of a built index: several copies are built and kept alive,
// and the per-copy heap growth after GC must agree with the estimate
// within allocator-rounding tolerance. This is the regression test for
// the old under-accounting (the items table, the position map and the
// struct header were omitted entirely).
func TestIndexBytesAccounting(t *testing.T) {
	txs := longTailCorpus(11, 8192, 1024, 2000)
	const copies = 8
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m0)
	keep := make([]*Index, copies)
	for i := range keep {
		ix, err := BuildIndex(txs)
		if err != nil {
			t.Fatal(err)
		}
		keep[i] = ix
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	measured := (int64(m1.HeapAlloc) - int64(m0.HeapAlloc)) / copies
	est := keep[0].Bytes()
	runtime.KeepAlive(keep)
	if measured <= 0 {
		t.Fatalf("unusable heap measurement: %d bytes per copy", measured)
	}
	// Size-class rounding means the true retained size can exceed the
	// exact-length estimate; the estimate must still land within ±50%.
	if est*2 < measured || est > measured*3/2 {
		t.Errorf("Bytes() = %d, measured retained ≈ %d per copy (outside ±50%%)", est, measured)
	}
}
