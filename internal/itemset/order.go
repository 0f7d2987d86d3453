package itemset

import (
	"math"
	"math/bits"
	"slices"
	"sort"

	"cuisinevol/internal/ingredient"
)

// Canonical order without comparisons. The indexed kernel never builds
// Itemsets while it mines: each worker emits into a setSink, which
// stores each set as its ascending Index item positions. canonOrder
// then assembles the Result from the sinks with stable counting passes
// only:
//
//  1. one pass groups the sets by size;
//  2. within each size group, one pass per item position, from the
//     last position to the first (LSD radix), leaves the group in
//     lexicographic order — positions rise with the ID, so this is the
//     lexicographic order of the IDs, whatever their range or sign;
//  3. over the groups concatenated by ascending size, one pass on
//     descending count keeps size-then-lexicographic order among equal
//     counts.
//
// The result is sortCanonical's order, in time linear in the emitted
// positions. It is gathered straight into one exact-size []Itemset
// whose Items are carved from one exact-size ID arena. A key wider
// than one pass's histogram is split into equal chunks, least
// significant first, so a histogram never grows past 2^16 buckets nor
// much past the number of keys it sorts.

// setSink collects one kernel worker's emitted itemsets, behind an
// optional count gate (see keep).
type setSink struct {
	pos  []int32   // every set's ascending positions, back to back
	sets []sinkSet // per set, in emission order

	// wantPos and wantSets size the buffers of the next mine after trim
	// dropped them: the dropped mine's sizes plus half, so the next large
	// mine allocates each buffer once instead of doubling up to it, even
	// when the parallel walk hands this worker a larger share.
	wantPos, wantSets int

	// The count gate. Armed, it tallies every emitted count c in
	// hist[c-lo] and keeps a set only if its count reaches cut, which
	// never falls below the top-th largest count tallied so far (above
	// of the tallied counts reach cut, tallied in all). Disarmed, every
	// set is kept.
	gated                        bool
	top, cut, lo, above, tallied int
	hist                         []int

	// overflow marks a mine whose sets outnumber an int: a family too
	// large to count (eclatScratch.emitWith) or a tally that would wrap.
	overflow bool
}

type sinkSet struct {
	size  int32
	count int
}

// minSinkCap is a sink's first capacity in sets; growth then doubles,
// so a fresh sink reaches a mine's size in a handful of allocations.
const minSinkCap = 512

// reset empties the sink and disarms its gate, keeping its buffers.
func (s *setSink) reset() {
	s.pos, s.sets = s.pos[:0], s.sets[:0]
	s.gated, s.top, s.cut, s.lo, s.above, s.tallied = false, 0, 0, 0, 0, 0
	s.overflow = false
}

// arm resets the sink and arms its count gate for a mine at minimum
// count lo of an index with the given item counts. With top > 0 the
// sink keeps every set that can be among the mine's first top; with
// top 0 it keeps none and only tallies.
//
// A set's count is at most each of its items' counts, so the
// histogram spans [lo, largest item count]. Every frequent item is a
// set of the mine, so the top-th largest item count is at most c_K and
// cut starts there: a kernel that emits singletons in ascending count
// then keeps no more than the sets that can win.
func (s *setSink) arm(top, lo int, items []itemCount) {
	s.reset()
	hi := 0
	for _, ic := range items {
		hi = max(hi, ic.count)
	}
	s.gated, s.top, s.lo, s.cut = true, top, lo, math.MaxInt
	s.hist = zeroed(s.hist, max(hi-lo+1, 0))
	if top > 0 {
		for _, ic := range items {
			if ic.count >= lo {
				s.hist[ic.count-lo]++
			}
		}
		s.cut = kthCount(s.hist, lo, top)
		clear(s.hist)
	}
}

// kthCount returns the top-th largest count the histogram holds
// (hist[c-lo] counts of c), or lo when it holds fewer.
func kthCount(hist []int, lo, top int) int {
	seen := 0
	for i := len(hist) - 1; i >= 0; i-- {
		if seen += hist[i]; seen >= top {
			return lo + i
		}
	}
	return lo
}

// keep tallies count if the gate is armed and reports whether the
// kernel should add the set. The kernel asks before it writes or
// orders any position, so a dropped set costs one histogram increment.
func (s *setSink) keep(count int) bool {
	return s.keepN(count, 1)
}

// keepN is keep for n sets that share one count, such as a set and its
// unions with the subsets of its perfect extensions (see
// eclatScratch.emitWith): it tallies all n, and when it reports true
// the kernel adds those of the n that can be among the mine's first
// top — at most top of them. The multiplicity is the gate's whole
// contract with the kernel: every set of the full mine is tallied
// exactly once, in some sink, whether or not it is written. A tally
// that would wrap an int marks the sink's overflow and keeps nothing.
//
// cut rises while the tallied counts above it alone number top, so it
// is the larger of its start (see arm) and the top-th largest count
// seen. It never falls: over a mine the loop advances at most once per
// count in the histogram's range, which makes keepN amortized O(1).
func (s *setSink) keepN(count, n int) bool {
	if !s.gated {
		return true
	}
	if n > math.MaxInt-s.tallied {
		s.overflow = true
		return false
	}
	s.tallied += n
	s.hist[count-s.lo] += n
	if count < s.cut {
		return false
	}
	s.above += n
	for s.above-s.hist[s.cut-s.lo] >= s.top {
		s.above -= s.hist[s.cut-s.lo]
		s.cut++
	}
	return count >= s.cut
}

// add appends a size-k set with the given count and returns its k
// position slots, which the caller fills in ascending order.
func (s *setSink) add(k, count int) []int32 {
	n := len(s.pos)
	s.pos = roomFor(s.pos, k, max(4*minSinkCap, s.wantPos))[:n+k]
	s.sets = append(roomFor(s.sets, 1, max(minSinkCap, s.wantSets)), sinkSet{size: int32(k), count: count})
	return s.pos[n:]
}

// roomFor returns s with room for n more elements, at least doubling
// its capacity (to no less than floor) when it has to grow.
func roomFor[T any](s []T, n, floor int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	return slices.Grow(s, max(n, len(s), floor))
}

// maxKeptSets bounds how many sets' worth of sink and assembly scratch
// a pooled query or miner keeps between mines (at most ~90 bytes a
// set, so under 1 MiB): the small mines of the replicate ensembles and
// warm queries reuse their scratch, while a large mine's scratch, a few
// MiB, is not pinned in a pool between requests.
const maxKeptSets = 1 << 13

// trim drops the sink's buffers if they outgrew maxKeptSets,
// remembering their sizes, and disarms its gate.
func (s *setSink) trim() {
	if cap(s.sets) > maxKeptSets {
		s.wantPos, s.wantSets = len(s.pos)*3/2, len(s.sets)*3/2
		s.pos, s.sets = nil, nil
	}
	if cap(s.hist) > maxKeptSets {
		s.hist = nil
	}
	s.reset()
}

// canonOrder is the reusable scratch of the assembly.
type canonOrder struct {
	pos       []int32 // every set's positions, grouped by ascending size
	counts    []int   // every set's count, in the same order
	starts    []int   // starts[k]: index of the first size-k set; starts[maxK+1] = total
	posStarts []int   // posStarts[k]: offset of the size-k group in pos
	fill      []int   // per size: the next set index the grouping pass fills
	perm      []int32 // refs, tmp and keys: set indices being permuted and their digits
	hist      []int32
}

// trim drops the per-set buffers if they outgrew maxKeptSets.
func (o *canonOrder) trim() {
	if cap(o.counts) > maxKeptSets {
		o.pos, o.counts, o.perm = nil, nil, nil
	}
}

// A gate asks a mine for less than its full Result (see setSink.keep).
// top is how many leading sets of the canonical Result to build: none
// when 0. The mine reports in total how many sets the full Result
// holds and, when top is 0, in spectrum their counts in Result order.
// A nil gate asks for the full Result.
type gate struct {
	top      int
	total    int
	spectrum []int
}

// maxSpectrum bounds the counts a spectrum holds, 1 GiB of them. With
// perfect extensions a walk reaches a count of 2^k sets in a time
// polynomial in k, so a corpus of two identical 38-item recipes at
// support 1 would otherwise ask for a 2 TiB slice at once.
const maxSpectrum = 1 << 27

// finish builds a mine's answer from its kernel's sinks, which g armed
// (setSink.arm) when it is not nil. The sinks' histograms merge into
// the counts of every set the full mine holds, the spectrum comes
// straight from them, highest count first, and c_K, the top-th largest
// count, is read off them. No sink's cut exceeds c_K — the top-th
// largest of a subset of the counts is at most that of all of them —
// so every set counted c_K or more is in a sink, and the first top
// sets of those are the first top of the full Result. A mine whose
// sets outnumber an int, or a spectrum maxSpectrum, fails with
// ErrTooManySets.
func (o *canonOrder) finish(items []itemCount, g *gate, sinks ...*setSink) ([]Itemset, error) {
	total := 0
	for _, s := range sinks {
		if s.overflow || s.tallied > math.MaxInt-total {
			return nil, ErrTooManySets
		}
		total += s.tallied
	}
	if g == nil {
		return o.assemble(items, sinks...), nil
	}
	hist, lo := sinks[0].hist, sinks[0].lo
	for _, s := range sinks[1:] {
		for i, c := range s.hist {
			hist[i] += c
		}
	}
	g.total = total
	if g.top == 0 {
		if total > maxSpectrum {
			return nil, ErrTooManySets
		}
		g.spectrum = make([]int, 0, g.total)
		for i := len(hist) - 1; i >= 0; i-- {
			for range hist[i] {
				g.spectrum = append(g.spectrum, lo+i)
			}
		}
		return nil, nil
	}
	return o.assembleTop(items, kthCount(hist, lo, g.top), g.top, sinks...), nil
}

// assemble returns every set the sinks hold in canonical order, with
// positions translated to IDs through items (the Index's item table),
// or nil when the sinks are empty. The Result's slices are fresh; the
// sinks and the scratch can be reused right away.
func (o *canonOrder) assemble(items []itemCount, sinks ...*setSink) []Itemset {
	return o.assembleTop(items, 0, math.MaxInt, sinks...)
}

// assembleTop is assemble restricted to the first limit of the sets
// counted floor or more.
func (o *canonOrder) assembleTop(items []itemCount, floor, limit int, sinks ...*setSink) []Itemset {
	maxK, m, np := 0, 0, 0
	for _, s := range sinks {
		for _, r := range s.sets {
			if r.count >= floor {
				maxK = max(maxK, int(r.size))
				m++
				np += int(r.size)
			}
		}
	}
	if m == 0 {
		return nil
	}

	// 1. Group by size: starts and posStarts from the size counts, then
	// one stable scatter of every sink's sets into their groups.
	starts, posStarts := zeroed(o.starts, maxK+2), grown(o.posStarts, maxK+1)
	for _, s := range sinks {
		for _, r := range s.sets {
			if r.count >= floor {
				starts[r.size+1]++
			}
		}
	}
	posStarts[0] = 0
	for k := 1; k <= maxK; k++ {
		posStarts[k] = posStarts[k-1] + (k-1)*(starts[k]-starts[k-1])
		starts[k+1] += starts[k]
	}
	fill := append(o.fill[:0], starts[:maxK+1]...)
	pos, counts := grown(o.pos, np), grown(o.counts, m)
	for _, s := range sinks {
		off := 0
		for _, r := range s.sets {
			k := int(r.size)
			if r.count < floor {
				off += k
				continue
			}
			i := fill[k]
			fill[k]++
			copy(pos[posStarts[k]+(i-starts[k])*k:], s.pos[off:off+k])
			counts[i] = r.count
			off += k
		}
	}
	o.starts, o.posStarts, o.fill, o.pos, o.counts = starts, posStarts, fill, pos, counts

	minC, maxC := counts[0], counts[0]
	for _, c := range counts {
		minC, maxC = min(minC, c), max(maxC, c)
	}
	posBits, countBits := bits.Len(uint(len(items)-1)), bits.Len(uint(maxC-minC))
	_, lexWidth := chunking(posBits, m)
	_, countWidth := chunking(countBits, m)
	o.hist = grown(o.hist, 1<<max(lexWidth, countWidth))
	o.perm = grown(o.perm, 3*m)
	refs, tmp, keys := o.perm[:m], o.perm[m:2*m], o.perm[2*m:]

	// 2. Lexicographic order within each size group.
	for k := 1; k <= maxK; k++ {
		lo, hi := starts[k], starts[k+1]
		if lo == hi {
			continue
		}
		refs, tmp, keys := refs[lo:hi], tmp[lo:hi], keys[lo:hi]
		for i := range refs {
			refs[i] = int32(i)
		}
		grp := pos[posStarts[k]:]
		passes, width := chunking(posBits, hi-lo)
		for j := k - 1; j >= 0; j-- {
			for c := 0; c < passes; c++ {
				shift, mask := uint(c*width), int32(1)<<width-1
				for i, r := range refs {
					keys[i] = grp[int(r)*k+j] >> shift & mask
				}
				o.scatter(refs, tmp, keys, 1<<width)
				refs, tmp = tmp, refs
			}
		}
		// Local indices to global ones, landing in the first buffer
		// whichever one the last pass wrote.
		dst := o.perm[lo:hi]
		for i, r := range refs {
			dst[i] = r + int32(lo)
		}
	}

	// 3. Descending count across the concatenated groups.
	passes, width := chunking(countBits, m)
	for c := 0; c < passes; c++ {
		shift, mask := uint(c*width), uint64(1)<<width-1
		for i, r := range refs {
			keys[i] = int32(uint64(maxC-counts[r]) >> shift & mask)
		}
		o.scatter(refs, tmp, keys, 1<<width)
		refs, tmp = tmp, refs
	}

	// Gather the first limit.
	sizeOf := func(r int32) int { return sort.SearchInts(starts, int(r)+1) - 1 }
	if limit < m {
		refs, np = refs[:limit], 0
		for _, r := range refs {
			np += sizeOf(r)
		}
	}
	sets := make([]Itemset, len(refs))
	arena := make([]ingredient.ID, np)
	off := 0
	for i, r := range refs {
		k := sizeOf(r)
		src := pos[posStarts[k]+(int(r)-starts[k])*k:][:k]
		dst := arena[off : off+k : off+k]
		for j, p := range src {
			dst[j] = items[p].item
		}
		sets[i] = Itemset{Items: dst, Count: counts[r]}
		off += k
	}
	return sets
}

// scatter is one stable counting pass: it moves src's refs to dst in
// ascending key order (keys[i] is src[i]'s digit, below buckets), refs
// with equal keys keeping their order in src.
func (o *canonOrder) scatter(src, dst, keys []int32, buckets int) {
	hist := o.hist[:buckets]
	clear(hist)
	for _, k := range keys {
		hist[k]++
	}
	sum := int32(0)
	for i, c := range hist {
		hist[i], sum = sum, sum+c
	}
	for i, r := range src {
		dst[hist[keys[i]]] = r
		hist[keys[i]]++
	}
}

// chunking splits a key of the given bit width into the fewest equal
// chunks, one counting pass each, whose histograms stay within 2^16
// buckets and within a small multiple of the n keys sorted (but at
// least 2^8). A zero width needs no pass.
func chunking(width, n int) (passes, chunk int) {
	if width == 0 {
		return 0, 0
	}
	limit := min(max(bits.Len(uint(n)), 8), 16)
	passes = (width + limit - 1) / limit
	return passes, (width + passes - 1) / passes
}
