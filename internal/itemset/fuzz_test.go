package itemset

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"cuisinevol/internal/ingredient"
)

// fuzzSupports is the support grid the fuzzer selects from. All values
// are valid, so every decoded corpus must mine without error on every
// kernel; the interesting surface is the mining itself, not argument
// validation (which has its own tests).
var fuzzSupports = [...]float64{0.02, 0.05, 0.1, 0.25, 0.5, 1.0}

// Decoder bounds. The per-transaction cap matters most: a single
// transaction of k distinct items makes all 2^k-1 subsets frequent, so
// an unbounded decoder would let the fuzzer synthesize exponential
// enumerations. 12 items caps a pathological input at 4095 itemsets.
const (
	fuzzMaxTxs       = 96
	fuzzMaxTxItems   = 12
	fuzzItemAlphabet = 40
)

// decodeFuzzCorpus maps arbitrary bytes to (transactions, minSupport).
// Byte 0 picks the support; the rest is a 0xff-separated list of
// transactions whose item bytes are folded into a small alphabet, then
// deduped and sorted so every decoded corpus is valid kernel input.
func decodeFuzzCorpus(data []byte) ([][]ingredient.ID, float64) {
	if len(data) == 0 {
		return nil, fuzzSupports[0]
	}
	minSupport := fuzzSupports[int(data[0])%len(fuzzSupports)]
	var txs [][]ingredient.ID
	cur := make(map[ingredient.ID]bool, fuzzMaxTxItems)
	flush := func() {
		if len(cur) == 0 {
			return
		}
		tx := make([]ingredient.ID, 0, len(cur))
		for it := range cur {
			tx = append(tx, it)
		}
		sort.Slice(tx, func(i, j int) bool { return tx[i] < tx[j] })
		txs = append(txs, tx)
		clear(cur)
	}
	for _, b := range data[1:] {
		if len(txs) == fuzzMaxTxs {
			break
		}
		if b == 0xff {
			flush()
			continue
		}
		if len(cur) < fuzzMaxTxItems {
			cur[ingredient.ID(b%fuzzItemAlphabet)] = true
		}
	}
	if len(txs) < fuzzMaxTxs {
		flush()
	}
	return txs, minSupport
}

// FuzzMineKernels decodes arbitrary bytes into a bounded transaction
// corpus and checks that Eclat, on one worker and on four and through
// Mine, reproduces raw Apriori's canonical result, on the decoded IDs and spread over the int32
// range; that the radix assembly orders the mined sets as the
// comparator does; that Eclat with 2, 4 and 8 workers, and with its
// root rule forced each way and to its edge, equals the serial walk;
// that MineTop and MineSpectrum agree with the full mine
// on every run; that every reported itemset's count matches a
// brute-force recount over the raw transactions, and that a reused
// IndexBuilder indexes the input exactly as a fresh build does. The seed corpus in
// testdata/fuzz/FuzzMineKernels covers the shapes that stress the
// kernel: duplicate-heavy (dedup arena + weighted popcounts), dense
// single transactions (deep DFS), sparse long tails, and compressed
// roots on both sides of the root rule's edge.
func FuzzMineKernels(f *testing.F) {
	seed := func(support byte, txs ...[]byte) {
		data := []byte{support}
		for i, tx := range txs {
			if i > 0 {
				data = append(data, 0xff)
			}
			data = append(data, tx...)
		}
		f.Add(data)
	}
	seed(0) // empty corpus
	seed(1, []byte{1, 2, 3}, []byte{1, 2}, []byte{2, 3}, []byte{1, 2, 3})
	// Duplicate-heavy: many identical transactions collapse in the dedup
	// arena, exercising weighted popcount support counting.
	seed(2, []byte{5, 6, 7}, []byte{5, 6, 7}, []byte{5, 6, 7}, []byte{5, 6, 7}, []byte{7})
	// One dense transaction: deep prefix-class recursion.
	seed(3, []byte{0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33})
	// Sparse long tail: mostly infrequent singletons.
	seed(4, []byte{0}, []byte{1}, []byte{2}, []byte{3}, []byte{4}, []byte{0, 1})
	// Separator runs and out-of-alphabet bytes fold without panicking.
	seed(5, []byte{200, 200, 0xfe}, []byte{}, []byte{41, 81, 121})
	// The root rule's edge: 70 distinct transactions (two-word bitmaps)
	// at a support count of 2, where items 0–29 are arrays of 2 ids
	// (decoded at denseK = 1, since 2 words = 1·2) and item 30 an array
	// of 1 id made frequent by a repeated transaction (kept at
	// denseK = 1), beside the bitsets of items 38 and 39.
	var edge [][]byte
	for t := 0; t < 70; t++ {
		edge = append(edge, []byte{byte(t % 40), byte(39 - t/40)})
	}
	edge = append(edge, []byte{30, 39}, []byte{30, 39})
	seed(0, edge...)

	f.Fuzz(func(t *testing.T, data []byte) {
		txs, minSupport := decodeFuzzCorpus(data)
		res := allKernels(t, txs, minSupport, "fuzz")
		// The same corpus over IDs spread across the whole int32 range.
		allKernels(t, spreadIDs(txs), minSupport, "fuzz-spread")
		// Count-gated mines: over one and four workers,
		// the first top sets — top drawn from [1, total+2] — must be the
		// full mine's, with its total, and the spectrum its counts.
		ix, err := BuildIndex(txs)
		if err != nil {
			t.Fatal(err)
		}
		draw := 0
		for _, b := range data {
			draw += int(b)
		}
		assertGatedMines(t, ix, minSupport, res, []int{1 + draw%(len(res.Sets)+2)}, "fuzz")
		// Canonical order: the radix assembly must order the mined sets
		// exactly as the comparator does, with their IDs spread over
		// negative values and the int32 extremes, with their own counts
		// and with every count equal, from one sink and from several.
		c := orderCase{name: "fuzz", items: idTable(fuzzSpreadIDs[:]...)}
		for _, s := range res.Sets {
			set := make([]int32, len(s.Items))
			for i, it := range s.Items {
				set[i] = int32(it)
			}
			c.sets = append(c.sets, set)
			c.counts = append(c.counts, s.Count)
		}
		assertComparatorOrder(t, c, 1)
		assertComparatorOrder(t, c, 3)
		for i := range c.counts {
			c.counts[i] = 1
		}
		c.name = "fuzz, all counts equal"
		assertComparatorOrder(t, c, 1)
		assertComparatorOrder(t, c, 3)
		// Eclat's parallel expansion must reproduce the serial walk
		// whatever the worker count, and so must its root rule, forced
		// never to decode a compressed root, to decode every one, and
		// at denseK = 1, whose edge (words = card) two-word corpora
		// reach.
		serial, err := kernelRun{workers: 1}.mine(txs, minSupport)
		if err != nil {
			t.Fatal(err)
		}
		runs := []kernelRun{{workers: 2}, {workers: 4}, {workers: 8}}
		for _, k := range []int{neverDense, 1, alwaysDense} {
			runs = append(runs, kernelRun{workers: 1, denseK: k}, kernelRun{workers: 3, denseK: k})
		}
		for _, run := range runs {
			got, err := run.mine(txs, minSupport)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, serial) {
				t.Fatalf("%v differs from the serial walk", run)
			}
		}
		// Builder reuse: a builder that has already indexed a different
		// corpus — one per position mode, wide-range and dense — must
		// build this input exactly as a fresh build and the legacy
		// map-based build do.
		want, err := legacyBuildIndex(txs, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, prior := range fuzzPriorCorpora {
			var b IndexBuilder
			if _, err := b.Build(prior); err != nil {
				t.Fatal(err)
			}
			got, err := b.Build(txs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(withoutQuery(got), want) {
				t.Fatal("reused builder's index differs from the legacy build")
			}
		}
		if fresh, err := BuildIndex(txs); err != nil || !reflect.DeepEqual(fresh, want) {
			t.Fatalf("fresh index differs from the legacy build (err %v)", err)
		}
		// Independent recount: every reported itemset must hit its exact
		// support in the raw (pre-dedup) corpus and clear the threshold.
		mc := minCount(len(txs), minSupport)
		for _, s := range res.Sets {
			count := 0
			for _, tx := range txs {
				if containsAll(tx, s.Items) {
					count++
				}
			}
			if count != s.Count {
				t.Fatalf("itemset %v reported count %d, recount %d", s.Items, s.Count, count)
			}
			if count < mc {
				t.Fatalf("itemset %v count %d below minCount %d", s.Items, count, mc)
			}
		}
	})
}

// fuzzSpreadIDs spreads the fuzz alphabet over the int32 range in
// ascending order: mostly negative and wide IDs, both extremes included.
var fuzzSpreadIDs = func() (ids [fuzzItemAlphabet]ingredient.ID) {
	step := int64(1<<32) / fuzzItemAlphabet
	for i := range ids {
		ids[i] = ingredient.ID(math.MinInt32 + int64(i)*step)
	}
	ids[len(ids)-1] = math.MaxInt32
	return ids
}()

// spreadIDs maps a decoded corpus onto fuzzSpreadIDs; the mapping is
// monotone, so transactions stay strictly ascending.
func spreadIDs(txs [][]ingredient.ID) [][]ingredient.ID {
	out := make([][]ingredient.ID, len(txs))
	for i, tx := range txs {
		out[i] = make([]ingredient.ID, len(tx))
		for j, it := range tx {
			out[i][j] = fuzzSpreadIDs[it]
		}
	}
	return out
}

// fuzzPriorCorpora are what FuzzMineKernels's reused builders index
// before each input: a wide-range corpus with negative IDs and a
// duplicate-heavy dense one larger than any decoded input.
var fuzzPriorCorpora = [][][]ingredient.ID{
	{{-1 << 30, -7, 3}, {-7, 1 << 29}, {-1 << 30, -7, 3}, {}},
	replicatePool(5, 10, 200, 8, 60),
}

// containsAll reports whether the sorted transaction contains every
// item of the sorted set (a linear merge).
func containsAll(tx, set []ingredient.ID) bool {
	i := 0
	for _, want := range set {
		for i < len(tx) && tx[i] < want {
			i++
		}
		if i == len(tx) || tx[i] != want {
			return false
		}
		i++
	}
	return true
}
