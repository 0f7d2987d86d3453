package itemset

import (
	"unsafe"

	"cuisinevol/internal/ingredient"
)

// Index is the build-once corpus index: the item table (every distinct
// item with its support count, ascending ID), the weights of the
// deduped unique transactions, and one posting container per distinct
// item over the unique-transaction ids — every item, not just the ones
// frequent at some threshold — plus a content fingerprint of the
// indexed transactions. The postings are the index: it keeps no rows.
//
// The index depends only on the corpus, never on a mining threshold,
// so one build amortizes across every minSupport query: MineIndexed
// filters the frequent items at query time and mines straight off the
// posting containers without ever touching raw [][]ingredient.ID
// again. Container intersection is the query primitive.
//
// An Index is immutable once built and safe for concurrent use by any
// number of queries; an IndexBuilder's index lives until that builder's
// next build. A LiveIndex snapshot is a BuildIndex over the live
// transactions: a mutation yields a new Index, never an edit to one.
type Index struct {
	n        int         // transactions indexed, duplicates and empties included
	totalOcc int         // total item occurrences across all indexed transactions
	items    []itemCount // every distinct item with its support count, ascending ID
	uniques  int         // unique transactions after dedup: the posting id space

	weights  []int32 // per unique transaction, its input multiplicity; padded to words*64 when weighted
	weighted bool
	words    int // dense bitmap length in uint64 words

	// Adaptive per-item posting containers (container.go): item position
	// p's tidset occupies postLen[p] elements at postOff[p] of idArena
	// (array/run kinds) or bitsArena (bitset kind), with its exact
	// cardinality in postCard[p].
	postKind  []containerKind
	postCard  []int32
	postOff   []int32
	postLen   []int32
	idArena   []uint32
	bitsArena []uint64

	fp    string // content fingerprint; "" only inside SpectrumOfSets
	bytes int64

	// query is the building IndexBuilder's Eclat query state, reused by
	// every mine of this index that finds it free. Kept indexes
	// (BuildIndex, LiveIndex snapshots) have none and draw from a pool.
	query *eclatQuery
}

// itemCount pairs an ingredient with its support count.
type itemCount struct {
	item  ingredient.ID
	count int
}

// accountBytes computes the index's real retained size: the struct
// header, every slice's backing array at its true element size, and the
// fingerprint string. This is the unit of the IndexCache byte budget, so
// under-accounting here directly translates into budget overshoot
// fleet-wide.
func (ix *Index) accountBytes() int64 {
	b := int64(unsafe.Sizeof(*ix))
	b += int64(len(ix.weights)) * 4
	b += int64(len(ix.items)) * int64(unsafe.Sizeof(itemCount{}))
	b += int64(len(ix.postKind)) + int64(len(ix.postCard)+len(ix.postOff)+len(ix.postLen))*4
	b += int64(len(ix.idArena))*4 + int64(len(ix.bitsArena))*8
	b += int64(len(ix.fp)) + int64(unsafe.Sizeof(""))
	return b
}

// N returns the number of indexed transactions (the denominator of
// every support computed from this index).
func (ix *Index) N() int { return ix.n }

// DistinctItems returns the number of distinct items in the indexed
// transactions.
func (ix *Index) DistinctItems() int { return len(ix.items) }

// Fingerprint returns the 128-bit hex content hash of the indexed
// transactions. Two indexes over identical transaction databases share
// a fingerprint regardless of how the databases were obtained.
func (ix *Index) Fingerprint() string { return ix.fp }

// Bytes returns the index's retained size estimate, the unit of the
// IndexCache byte budget.
func (ix *Index) Bytes() int64 { return ix.bytes }

// Support returns the number of indexed transactions containing the
// item (its absolute support; zero for items never seen).
func (ix *Index) Support(it ingredient.ID) int {
	if p, ok := ix.position(it); ok {
		return ix.items[p].count
	}
	return 0
}

// position returns the item table position of it, and whether the index
// holds it at all.
func (ix *Index) position(it ingredient.ID) (int32, bool) {
	p := itemPosition(ix.items, it)
	return p, int(p) < len(ix.items) && ix.items[p].item == it
}

// AddSupportCounts adds every item's support count into dst, indexed by
// item ID — the per-view document frequencies the overrepresentation
// metric (Eq 1) consumes. Items whose ID falls outside dst are skipped.
func (ix *Index) AddSupportCounts(dst []int) {
	for _, ic := range ix.items {
		if int(ic.item) < len(dst) {
			dst[ic.item] += ic.count
		}
	}
}

// ContainerStats summarizes an index's posting-container mix: how many
// items landed in each format, the bytes the containers retain, and
// what the uniform dense layout would have retained instead.
type ContainerStats struct {
	Arrays  int
	Bitsets int
	Runs    int
	// PostingBytes is the retained size of the posting arenas.
	PostingBytes int64
	// DenseBytes is what one words-wide bitmap per item would retain —
	// the pre-container layout this index's savings are measured against.
	DenseBytes int64
}

// BytesSaved returns the posting bytes the adaptive layout saved over
// the uniform dense one.
func (st ContainerStats) BytesSaved() int64 {
	if d := st.DenseBytes - st.PostingBytes; d > 0 {
		return d
	}
	return 0
}

// ContainerStats returns the index's posting-container mix.
func (ix *Index) ContainerStats() ContainerStats {
	st := ContainerStats{
		PostingBytes: int64(len(ix.idArena))*4 + int64(len(ix.bitsArena))*8,
		DenseBytes:   int64(len(ix.items)) * int64(ix.words) * 8,
	}
	for _, kind := range ix.postKind {
		switch kind {
		case containerArray:
			st.Arrays++
		case containerRun:
			st.Runs++
		default:
			st.Bitsets++
		}
	}
	return st
}

// postingAt returns the tidset container of the item at position p.
func (ix *Index) postingAt(p int) posting {
	off, ln := int(ix.postOff[p]), int(ix.postLen[p])
	pt := posting{kind: ix.postKind[p], card: ix.postCard[p]}
	if pt.kind == containerBitset {
		pt.bits = ix.bitsArena[off : off+ln]
	} else {
		pt.ids = ix.idArena[off : off+ln]
	}
	return pt
}
