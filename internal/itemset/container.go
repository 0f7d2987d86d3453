package itemset

import "math/bits"

// Posting containers: the adaptive per-item tidset layout of the
// build-once Index (DESIGN.md §16). The old layout gave every item a
// dense words-wide []uint64 bitmap, so a long-tail ingredient appearing
// in 3 of 110k recipes cost the same ~1.7 KB as a staple in half of
// them, and every Eclat AND+popcount swept thousands of zero words.
// Roaring-style, each item now gets the cheapest of three formats,
// chosen at build time from its exact cardinality and run count:
//
//   - array:  the sorted uint32 unique-transaction ids themselves —
//     the sparse long tail, intersected by galloping merges;
//   - bitset: the dense words-wide bitmap — unchanged for dense items,
//     so the paper's dense workloads keep the word-AND+popcount path;
//   - run:    (start, length) pairs — clustered ids, e.g. items
//     confined to one region's contiguous id range.
//
// The choice is a pure cost minimum in uint32 units (array = card,
// bitset = 2·words, run = 2·runs), with ties broken array before run
// before bitset, so identical tidsets always pick identical containers.

// containerKind tags one posting container's format.
type containerKind uint8

const (
	containerBitset containerKind = iota // dense []uint64 words
	containerArray                       // sorted unique-transaction ids
	containerRun                         // (start, length) id-range pairs
)

// posting is a read-only view of one tidset container: an item's
// posting inside an Index, or an intermediate produced by intersection
// (always array or bitset — runs exist only at build time). card is the
// exact cardinality of every container.
type posting struct {
	kind containerKind
	card int32
	ids  []uint32 // array: sorted ids; run: flattened (start, length) pairs
	bits []uint64 // bitset: words
}

// choosePostingKind picks the cheapest container for a tidset of the
// given cardinality and run count over a words-wide id space. Costs are
// exact retained sizes in uint32 units; ties prefer array, then run, so
// the choice is a pure function of the tidset.
func choosePostingKind(card, nruns, words int) containerKind {
	costArr := card
	costRun := 2 * nruns
	costBit := 2 * words
	if costArr <= costRun && costArr <= costBit {
		return containerArray
	}
	if costRun <= costBit {
		return containerRun
	}
	return containerBitset
}

// resultIsBitset reports whether intersecting a and b keeps the dense
// representation: only when both sides are dense. Any compressed side
// bounds the result by its own cardinality, so the result stays an
// array and the mine never re-densifies a sparse subtree.
func resultIsBitset(a, b posting) bool {
	return a.kind == containerBitset && b.kind == containerBitset
}

// pairArrayBound returns an upper bound on the cardinality of a ∩ b for
// pairs producing an array result — the scratch the caller must
// reserve. At least one side is compressed by the resultIsBitset
// contract.
func pairArrayBound(a, b posting) int {
	switch {
	case a.kind == containerBitset:
		return int(b.card)
	case b.kind == containerBitset:
		return int(a.card)
	case a.card < b.card:
		return int(a.card)
	default:
		return int(b.card)
	}
}

// gallopTo returns the smallest index i in [lo, len(b)) with b[i] >= x,
// or len(b): exponential probing brackets the answer, binary search
// finishes inside the bracket. O(log distance), which is what makes
// skewed array×array merges cheap.
func gallopTo(b []uint32, lo int, x uint32) int {
	hi := lo
	step := 1
	for hi < len(b) && b[hi] < x {
		lo = hi + 1
		hi += step
		step <<= 1
	}
	if hi > len(b) {
		hi = len(b)
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// gallopArrays writes the intersection of two sorted id arrays into dst
// and returns its length. Comparable sizes take a plain linear merge —
// galloping's probe overhead only pays off when it can leap over long
// stretches of the larger side, so the exponential search is reserved
// for skewed pairs (a tail item against a mid-tier posting).
func gallopArrays(a, b, dst []uint32) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(b) < gallopSkewFactor*len(a) {
		return mergeArrays(a, b, dst)
	}
	n, j := 0, 0
	for _, x := range a {
		j = gallopTo(b, j, x)
		if j == len(b) {
			break
		}
		if b[j] == x {
			dst[n] = x
			n++
			j++
		}
	}
	return n
}

// gallopSkewFactor is the size ratio above which the galloping merge
// beats the linear one: below it, every gallop advances only a step or
// two and the probe bookkeeping is pure overhead.
const gallopSkewFactor = 8

// mergeArrays is the linear two-pointer intersection for
// comparably-sized arrays. The pointer advances compile to conditional
// moves, so the only branch taken unpredictably is the rare equality
// hit — random id streams would mispredict a classic three-way merge on
// nearly every step.
func mergeArrays(a, b, dst []uint32) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		if x == y {
			dst[n] = x
			n++
		}
		if x <= y {
			i++
		}
		if y <= x {
			j++
		}
	}
	return n
}

// probeBits writes the ids of arr whose bit is set in bm into dst and
// returns the count — the array×bitset kernel: one bit probe per sparse
// id instead of a words-wide sweep.
func probeBits(arr []uint32, bm []uint64, dst []uint32) int {
	n := 0
	for _, x := range arr {
		if bm[x>>6]>>(x&63)&1 == 1 {
			dst[n] = x
			n++
		}
	}
	return n
}

// probeRuns writes the ids of arr covered by the (start, length) run
// pairs into dst and returns the count. Both sides ascend, so one
// forward walk over the runs suffices.
func probeRuns(arr, runs, dst []uint32) int {
	n, r := 0, 0
	for _, x := range arr {
		for r < len(runs) && runs[r]+runs[r+1] <= x {
			r += 2
		}
		if r == len(runs) {
			break
		}
		if runs[r] <= x {
			dst[n] = x
			n++
		}
	}
	return n
}

// runsAndBits expands each run range against the bitset, writing
// surviving ids into dst.
func runsAndBits(runs []uint32, bm []uint64, dst []uint32) int {
	n := 0
	for r := 0; r < len(runs); r += 2 {
		for x, e := runs[r], runs[r]+runs[r+1]; x < e; x++ {
			if bm[x>>6]>>(x&63)&1 == 1 {
				dst[n] = x
				n++
			}
		}
	}
	return n
}

// runsAndRuns intersects two run lists by interval overlap, writing the
// member ids of every overlap into dst.
func runsAndRuns(ra, rb, dst []uint32) int {
	n, i, j := 0, 0, 0
	for i < len(ra) && j < len(rb) {
		as, ae := ra[i], ra[i]+ra[i+1]
		bs, be := rb[j], rb[j]+rb[j+1]
		lo, hi := as, ae
		if bs > lo {
			lo = bs
		}
		if be < hi {
			hi = be
		}
		for x := lo; x < hi; x++ {
			dst[n] = x
			n++
		}
		if ae <= be {
			i += 2
		}
		if be <= ae {
			j += 2
		}
	}
	return n
}

// intersectBits is the dense×dense kernel, byte-for-byte the old
// intersectCount: word AND into dst with a popcount. When unique
// transactions carry multiplicities, the weighted support is
// Σ_{u∈A∩B} w_u = |A∩B| + Σ_{u∈A∩B, w_u>1} (w_u − 1): the same popcount
// plus an excess walked only over the surviving bits that are also
// heavy, so a duplicate-light kept index pays a few weight lookups per
// intersection instead of one per set bit. The returned posting's card
// is the exact cardinality either way.
func (sh *eclatShared) intersectBits(a, b posting, dst []uint64) (posting, int) {
	av := a.bits
	bv := b.bits[:len(av)]
	dst = dst[:len(av)]
	card := 0
	if !sh.weighted {
		for i, w := range av {
			w &= bv[i]
			dst[i] = w
			card += bits.OnesCount64(w)
		}
		return posting{kind: containerBitset, card: int32(card), bits: dst}, card
	}
	heavy, weights := sh.heavy[:len(av)], sh.weights
	excess := 0
	for i, w := range av {
		w &= bv[i]
		dst[i] = w
		card += bits.OnesCount64(w)
		base := i << 6
		for h := w & heavy[i]; h != 0; h &= h - 1 {
			excess += int(weights[base+bits.TrailingZeros64(h)]) - 1
		}
	}
	return posting{kind: containerBitset, card: int32(card), bits: dst}, card + excess
}

// intersectCompressed is the container-pair dispatch for every pair with
// a compressed side: galloping merge for array×array, bit probes for
// array×bitset, run-aware walks for the run pairs. The result is always
// an array written into dst (sized by pairArrayBound), and the returned
// count is the weighted support of the intersection.
func (sh *eclatShared) intersectCompressed(a, b posting, dst []uint32) (posting, int) {
	var n int
	switch {
	case a.kind == containerArray && b.kind == containerArray:
		n = gallopArrays(a.ids, b.ids, dst)
	case a.kind == containerArray && b.kind == containerBitset:
		n = probeBits(a.ids, b.bits, dst)
	case a.kind == containerBitset && b.kind == containerArray:
		n = probeBits(b.ids, a.bits, dst)
	case a.kind == containerArray && b.kind == containerRun:
		n = probeRuns(a.ids, b.ids, dst)
	case a.kind == containerRun && b.kind == containerArray:
		n = probeRuns(b.ids, a.ids, dst)
	case a.kind == containerRun && b.kind == containerBitset:
		n = runsAndBits(a.ids, b.bits, dst)
	case a.kind == containerBitset && b.kind == containerRun:
		n = runsAndBits(b.ids, a.bits, dst)
	default: // run × run
		n = runsAndRuns(a.ids, b.ids, dst)
	}
	return posting{kind: containerArray, card: int32(n), ids: dst[:n:n]}, sh.supportOf(dst[:n])
}

// supportOf returns the weighted support of a set of unique-transaction
// ids: the id count itself when every unique transaction occurred once.
func (sh *eclatShared) supportOf(ids []uint32) int {
	if !sh.weighted {
		return len(ids)
	}
	cnt := 0
	for _, t := range ids {
		cnt += int(sh.weights[t])
	}
	return cnt
}

// setPostingBits sets the bit of every member id of an array or run
// container in bm, a words-wide bitmap.
func setPostingBits(p posting, bm []uint64) {
	if p.kind == containerArray {
		for _, x := range p.ids {
			bm[x>>6] |= 1 << (x & 63)
		}
		return
	}
	for r := 0; r < len(p.ids); r += 2 {
		for x, e := p.ids[r], p.ids[r]+p.ids[r+1]; x < e; x++ {
			bm[x>>6] |= 1 << (x & 63)
		}
	}
}

// appendPostingIDs appends a container's member ids to out in ascending
// order: the enumeration FP-Growth transposes postings with, and the
// reference the differential and fuzz layers compare container pairs
// through.
func appendPostingIDs(out []uint32, p posting, words int) []uint32 {
	switch p.kind {
	case containerArray:
		out = append(out, p.ids...)
	case containerRun:
		for r := 0; r < len(p.ids); r += 2 {
			for x, e := p.ids[r], p.ids[r]+p.ids[r+1]; x < e; x++ {
				out = append(out, x)
			}
		}
	default:
		for w := 0; w < len(p.bits) && w < words; w++ {
			for m := p.bits[w]; m != 0; m &= m - 1 {
				out = append(out, uint32(w<<6+bits.TrailingZeros64(m)))
			}
		}
	}
	return out
}
