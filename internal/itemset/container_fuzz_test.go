package itemset

import (
	"reflect"
	"sort"
	"testing"

	"cuisinevol/internal/ingredient"
)

// FuzzPostingContainers fuzzes the container layer end to end: decode
// arbitrary bytes into two tidsets over a 3-word id space and a second
// byte string into per-id weights, materialize each tidset in all three
// container formats, push every format pair through the intersection
// dispatch (unweighted and weighted), and cross-check
// build→intersect→cardinality round-trips against a reference merge —
// then build a real corpus carrying the two tidsets and pin the
// production container choice, the materialized postings, and the
// dense×compressed mined Results. The id space spans three 64-bit
// words so byte values land on and around the word edges (63/64,
// 127/128) the galloping and probe kernels have to get right.

// fuzzTidUniverse is the unique-transaction id space: 3 words, so the
// promotion thresholds sit at cost 6 (bitset) and byte values cover
// every id.
const fuzzTidUniverse = 192

// decodeTidsetPair folds bytes into two sorted deduped tidsets:
// even-index bytes feed set A, odd-index bytes set B, each value mod
// the universe.
func decodeTidsetPair(data []byte) (a, b []uint32) {
	seenA := make(map[uint32]bool)
	seenB := make(map[uint32]bool)
	for i, v := range data {
		id := uint32(v) % fuzzTidUniverse
		if i%2 == 0 {
			seenA[id] = true
		} else {
			seenB[id] = true
		}
	}
	for id := range seenA {
		a = append(a, id)
	}
	for id := range seenB {
		b = append(b, id)
	}
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return a, b
}

// Weight shapes decodeWeights draws from its first byte.
const (
	weightsAllOne   = iota // the weighted path with an empty heavy mask
	weightsAllHeavy        // every id heavy: 2..257
	weightsMixed           // odd bytes heavy (2..129), even bytes 1
	weightsLarge           // powers of two from 1 to 1<<20
	weightShapes
)

// decodeWeights folds bytes into per-id multiplicities over the
// universe: the first byte picks a shape, the rest, cycled over the ids,
// pick each id's value within it. Empty input is all-1.
func decodeWeights(data []byte) []int32 {
	weights := make([]int32, fuzzTidUniverse)
	shape := weightsAllOne
	if len(data) > 0 {
		shape, data = int(data[0])%weightShapes, data[1:]
	}
	for u := range weights {
		v := 0
		if len(data) > 0 {
			v = int(data[u%len(data)])
		}
		switch shape {
		case weightsAllOne:
			weights[u] = 1
		case weightsAllHeavy:
			weights[u] = int32(2 + v)
		case weightsMixed:
			weights[u] = 1
			if v&1 == 1 {
				weights[u] = int32(2 + v>>1)
			}
		default:
			weights[u] = 1 << (v % 21)
		}
	}
	return weights
}

// Manual container builders: each represents the same tidset in a fixed
// format, regardless of what choosePostingKind would pick — the fuzz
// target must hold for every pair the dispatch can ever see.

func fuzzArrayPosting(ids []uint32) posting {
	return posting{kind: containerArray, card: int32(len(ids)), ids: ids}
}

func fuzzBitsetPosting(ids []uint32, words int) posting {
	bits := make([]uint64, words)
	for _, id := range ids {
		bits[id>>6] |= 1 << (id & 63)
	}
	return posting{kind: containerBitset, card: int32(len(ids)), bits: bits}
}

func fuzzRunPosting(ids []uint32) posting {
	var runs []uint32
	for i, id := range ids {
		if i > 0 && id == ids[i-1]+1 {
			runs[len(runs)-1]++
			continue
		}
		runs = append(runs, id, 1)
	}
	return posting{kind: containerRun, card: int32(len(ids)), ids: runs}
}

func FuzzPostingContainers(f *testing.F) {
	f.Add([]byte{}, []byte{})
	// Word-edge ids on both sides: A = {63, 64, 127, 128}, B = {64, 128}.
	// Weights: mixed, heavy exactly on odd ids.
	f.Add([]byte{63, 64, 64, 128, 127, 64, 128, 128}, []byte{weightsMixed, 0, 1})
	// A contiguous run meeting an alternating bitset-shaped set, every
	// id heavy.
	run := make([]byte, 0, 192)
	for i := 0; i < 96; i++ {
		run = append(run, byte(i), byte((2*i)%fuzzTidUniverse))
	}
	f.Add(run, []byte{weightsAllHeavy, 0, 7, 255})
	// Identical sets, including the first, last and word-edge ids, with
	// weights up to 1<<20.
	f.Add([]byte{0, 0, 63, 63, 64, 64, 191, 191}, []byte{weightsLarge, 20, 0, 13})
	// Promotion ties: |A| = 6 scattered (array = bitset cost), |B| = 7
	// scattered (bitset wins by one).
	f.Add([]byte{0, 1, 32, 33, 64, 65, 96, 97, 128, 129, 160, 161, 0, 177}, []byte{weightsAllOne})
	// The run pair again, every weight 1<<20.
	f.Add(run, []byte{weightsLarge, 20})

	f.Fuzz(func(t *testing.T, data, wdata []byte) {
		const words = fuzzTidUniverse / 64
		a, b := decodeTidsetPair(data)

		// Reference intersection and its weighted support.
		inB := make(map[uint32]bool, len(b))
		for _, id := range b {
			inB[id] = true
		}
		var ref []uint32
		for _, id := range a {
			if inB[id] {
				ref = append(ref, id)
			}
		}
		weights := decodeWeights(wdata)
		wantW := 0
		for _, id := range ref {
			wantW += int(weights[id])
		}

		reps := func(ids []uint32) []posting {
			return []posting{fuzzArrayPosting(ids), fuzzBitsetPosting(ids, words), fuzzRunPosting(ids)}
		}
		plain := &eclatShared{words: words}
		weighted := &eclatShared{words: words}
		weighted.setWeights(true, weights, words)
		for _, pa := range reps(a) {
			for _, pb := range reps(b) {
				for _, sh := range []*eclatShared{plain, weighted} {
					var res posting
					var cnt int
					if resultIsBitset(pa, pb) {
						res, cnt = sh.intersectBits(pa, pb, make([]uint64, words))
					} else {
						res, cnt = sh.intersectCompressed(pa, pb, make([]uint32, pairArrayBound(pa, pb)))
						if int(res.card) != len(ref) {
							t.Fatalf("%d×%d: result card %d, want %d", pa.kind, pb.kind, res.card, len(ref))
						}
					}
					got := appendPostingIDs(nil, res, words)
					if len(got) != len(ref) || (len(ref) > 0 && !reflect.DeepEqual(got, ref)) {
						t.Fatalf("%d×%d (weighted=%v): intersection %v, want %v", pa.kind, pb.kind, sh.weighted, got, ref)
					}
					want := len(ref)
					if sh.weighted {
						want = wantW
					}
					if cnt != want {
						t.Fatalf("%d×%d (weighted=%v): support %d, want %d", pa.kind, pb.kind, sh.weighted, cnt, want)
					}
				}
			}
		}

		// End to end through a real corpus: production container choice,
		// materialization, and dense×compressed mined-Result identity.
		txs := corpusFromTidsets(fuzzTidUniverse, [][]int{toInts(a), toInts(b)})
		comp, err := BuildIndex(txs)
		if err != nil {
			t.Fatal(err)
		}
		dense, err := buildIndexWith(txs, true)
		if err != nil {
			t.Fatal(err)
		}
		assertDenseCompressedTwins(t, dense, comp, "fuzz")
		for i, want := range [][]uint32{a, b} {
			p, ok := comp.position(ingredient.ID(i))
			if !ok {
				if len(want) != 0 {
					t.Fatalf("item %d missing from index with %d tids", i, len(want))
				}
				continue
			}
			got := appendPostingIDs(nil, comp.postingAt(int(p)), comp.words)
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("item %d: indexed tidset %v, want %v", i, got, want)
			}
			wantKind := choosePostingKind(len(want), runsOf(toInts(want)), comp.words)
			if gotKind := comp.postKind[p]; gotKind != wantKind {
				t.Fatalf("item %d: container kind %d, want %d", i, gotKind, wantKind)
			}
		}
		allKernelsIndexed(t, comp, txs, 0.02, "fuzz-compressed")
		allKernelsIndexed(t, dense, txs, 0.02, "fuzz-dense")
	})
}

func toInts[T uint32 | int](ids []T) []int {
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = int(id)
	}
	return out
}
