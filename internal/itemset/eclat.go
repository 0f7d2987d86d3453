package itemset

import (
	"cmp"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"cuisinevol/internal/sched"
)

// The vertical kernel (Zaki's Eclat over tidset containers) mines
// straight off an Index: each frequent item's posting container is its
// tidset over the deduped unique transactions, and the support of an
// extension is one container intersection (weight-summed when
// duplicates exist). Depth-first expansion walks prefix equivalence
// classes; all intersection and class scratch is kept per depth in the
// query state, so steady-state mining allocates almost nothing beyond
// the Result.
//
// Dense short transactions — bounded-size recipes over a few hundred
// ingredients, the regime of every pipeline in this repo — are exactly
// where the vertical kernel beats the FP-tree; Index.chooseKernel
// encodes that heuristic.

// eclatShared is the read-only mining state the expansion workers
// consume: the frequent items' positions and zero-copy posting views
// into the Index, built once per mine and then shared across the
// top-level prefix partitions (safely — nothing here is written after
// construction).
type eclatShared struct {
	pos      []int32    // frequent item positions, ascending count then position
	words    int        // dense bitmap length in uint64 words
	weighted bool       // any unique transaction with weight > 1
	weights  []int32    // per unique-transaction multiplicity
	heavy    []uint64   // weighted only: bit u set iff weights[u] > 1
	root     []eclatExt // per frequent item: its tidset container, or its decoded bitset (densifyRoots), and count
	mc       int
}

// setWeights points the state at the multiplicities of an index's
// unique transactions, over a words-wide id space. On a weighted index
// it also derives heavy, the mask of weight > 1 transactions whose
// excess intersectBits adds to a popcount. The mask lives in an arena
// the query keeps across mines and is cleared first, so no bit of an
// earlier index survives. It is not part of the Index, so index bytes
// and cache budgets do not count it.
func (sh *eclatShared) setWeights(weighted bool, weights []int32, words int) {
	sh.weighted = weighted
	sh.weights = nil
	if !weighted {
		return
	}
	sh.weights = weights
	sh.heavy = zeroed(sh.heavy, words)
	for u, w := range weights {
		if w > 1 {
			sh.heavy[u>>6] |= 1 << (u & 63)
		}
	}
}

// eclatExt is one member of a prefix equivalence class: an extension
// item with the tidset container and support of prefix∪{item}.
type eclatExt struct {
	item  int32
	p     posting
	count int
}

// eclatScratch is the per-worker expansion state: the suffix stack, the
// perfect-extension stack, one bitset buffer, one id buffer and one
// class slice per recursion depth, and the sink the worker's itemsets
// go to. The query owns one scratch per worker and keeps them across
// partitions and mines.
type eclatScratch struct {
	sh              *eclatShared
	suffix          []int32
	pe              []int32      // perfect extensions of the prefixes on the suffix stack
	levels          [][]uint64   // per-depth word buffers for bitset candidates
	levelIDs        [][]uint32   // per-depth id buffers for array candidates
	class           [][]eclatExt // per-depth class scratch
	base, ext, comb []int32      // emitUnions scratch: the set, the extensions' sorted positions, a subset
	out             setSink
}

// levelAt returns the depth's bitset buffer with room for n words.
func (s *eclatScratch) levelAt(depth, n int) []uint64 {
	return depthBuf(&s.levels, depth, n)
}

// levelIDsAt returns the depth's id buffer with room for n ids.
func (s *eclatScratch) levelIDsAt(depth, n int) []uint32 {
	return depthBuf(&s.levelIDs, depth, n)
}

// classAt returns the depth's class scratch, emptied, with room for n
// members.
func (s *eclatScratch) classAt(depth, n int) []eclatExt {
	return depthBuf(&s.class, depth, n)[:0]
}

// Depth buffers that must grow at least double, from no fewer than
// minDepthBuf elements, so a fresh scratch — every IndexBuilder's
// first mine — settles in a few allocations; past maxDoubledBuf
// elements they grow to the exact need.
const (
	minDepthBuf   = 256
	maxDoubledBuf = 1 << 20
)

// depthBuf returns (*bufs)[depth] at its full capacity, at least n,
// with unspecified contents.
func depthBuf[T any](bufs *[][]T, depth, n int) []T {
	for len(*bufs) <= depth {
		*bufs = append(*bufs, nil)
	}
	b := (*bufs)[depth]
	if cap(b) < n {
		size := max(n, minDepthBuf)
		if d := 2 * cap(b); d > size && d <= maxDoubledBuf {
			size = d
		}
		b = make([]T, size)
		(*bufs)[depth] = b
	}
	return b[:cap(b)]
}

// maxFamilyBits bounds the perfect extensions one emitted set may stand
// with: a family of 2^maxFamilyBits sets still leaves an int room to
// add others. A larger family makes the mine fail with ErrTooManySets.
const maxFamilyBits = bits.UintSize - 3

// emitWith records the family of suffix∪{item}: the set and its unions
// with the non-empty subsets of the perfect-extension stack, 2^len(pe)
// sets that all have the given count. The sink's gate tallies them all
// at once; when it keeps the count, the set is written first and its
// unions after it (emitUnions).
func (s *eclatScratch) emitWith(item int32, count int) {
	e := len(s.pe)
	if e > maxFamilyBits {
		s.out.overflow = true
		return
	}
	if !s.out.keepN(count, 1<<e) {
		return
	}
	sh := s.sh
	n := len(s.suffix) + 1
	set := s.out.add(n, count)
	for i, idx := range s.suffix {
		set[i] = sh.pos[idx]
	}
	set[n-1] = sh.pos[item]
	sortInt32s(set)
	if e > 0 {
		s.emitUnions(set, count)
	}
}

// emitUnions writes the unions of the ascending set with the non-empty
// subsets of the perfect-extension stack in canonical order — by size,
// then lexicographically over the extensions' positions, which for
// unions of one size is the order of the unions themselves — until the
// family, set included, numbers the gate's top: no later member can be
// among the mine's first top, since every member before it in this
// order precedes it in the Result too. Ungated, every union is written.
func (s *eclatScratch) emitUnions(set []int32, count int) {
	e := len(s.pe)
	limit := 1 << e
	if s.out.gated {
		limit = min(limit, s.out.top)
	}
	// set lives in the sink, which the writes below may move.
	base := append(s.base[:0], set...)
	ext := s.ext[:0]
	for _, it := range s.pe {
		ext = append(ext, s.sh.pos[it])
	}
	sortInt32s(ext)
	s.base, s.ext = base, ext
	written := 1
	for k := 1; k <= e; k++ {
		comb := s.comb[:0]
		for i := range int32(k) {
			comb = append(comb, i)
		}
		s.comb = comb
		for {
			if written == limit {
				return
			}
			written++
			// Merge the set with the chosen extensions.
			dst := s.out.add(len(base)+k, count)
			i, j := 0, 0
			for d := range dst {
				if j == k || (i < len(base) && base[i] < ext[comb[j]]) {
					dst[d] = base[i]
					i++
				} else {
					dst[d] = ext[comb[j]]
					j++
				}
			}
			// The next k-subset in lexicographic order.
			c := k - 1
			for c >= 0 && int(comb[c]) == e-k+c {
				c--
			}
			if c < 0 {
				break
			}
			comb[c]++
			for j := c + 1; j < k; j++ {
				comb[j] = comb[j-1] + 1
			}
		}
	}
}

// node expands the prefix suffix∪{exts[a].item}, the class member a of
// a depth's class exts: every later member b is intersected against a
// via the container-pair dispatch. A member whose support equals the
// prefix's is a perfect extension (Borgelt): every transaction of the
// prefix holds it, so it joins every set below the prefix for free. It
// is emitted at once, as the family of prefix∪{b} over the extensions
// found before it, and pushed on the perfect-extension stack instead
// of joining the next class. The other frequent members form the next
// class; once the class loop knows all of the prefix's extensions,
// each member is emitted as the family over the whole stack and
// expanded in turn. So every frequent set below the prefix is emitted
// exactly once, as a member of one family, and the walk visits only
// the sets without perfect extensions — at low support, a fraction of
// them.
//
// A sizing pass over the candidates reserves the depth's scratch
// exactly — words for every bitset×bitset pair, the pair's cardinality
// bound for every pair with a compressed side — so every candidate
// container is carved from a stable buffer: a failed or perfect
// candidate's space is simply reused for the next one, and a whole
// depth's buffers are reused across siblings once their subtree is
// done. Sparse subtrees stay sparse: once an intersection drops to an
// array it never re-densifies, so the per-pair cost follows the
// shrinking cardinalities instead of the fixed bitmap width. Which
// roots start dense is the root rule's choice (densifyRoots).
func (s *eclatScratch) node(exts []eclatExt, a, depth int) {
	if s.out.overflow {
		return
	}
	sh := s.sh
	pa, own := exts[a].p, exts[a].count
	s.suffix = append(s.suffix, exts[a].item)
	pe := len(s.pe)
	needW, needI := 0, 0
	for b := a + 1; b < len(exts); b++ {
		if resultIsBitset(pa, exts[b].p) {
			needW += sh.words
		} else {
			needI += pairArrayBound(pa, exts[b].p)
		}
	}
	wbuf := s.levelAt(depth, needW)
	ibuf := s.levelIDsAt(depth, needI)
	class := s.classAt(depth, len(exts)-a-1)
	woff, ioff := 0, 0
	for b := a + 1; b < len(exts); b++ {
		pb := exts[b].p
		var res posting
		var cnt int
		if resultIsBitset(pa, pb) {
			res, cnt = sh.intersectBits(pa, pb, wbuf[woff:woff+sh.words])
		} else {
			bound := pairArrayBound(pa, pb)
			res, cnt = sh.intersectCompressed(pa, pb, ibuf[ioff:ioff+bound])
		}
		switch {
		case cnt == own:
			s.emitWith(exts[b].item, cnt)
			s.pe = append(s.pe, exts[b].item)
		case cnt >= sh.mc:
			class = append(class, eclatExt{item: exts[b].item, p: res, count: cnt})
			if res.kind == containerBitset {
				woff += sh.words
			} else {
				ioff += len(res.ids)
			}
		}
	}
	s.class[depth] = class
	for _, x := range class {
		s.emitWith(x.item, x.count)
	}
	for c := 0; c+1 < len(class); c++ {
		s.node(class, c, depth+1)
	}
	s.pe = s.pe[:pe]
	s.suffix = s.suffix[:len(s.suffix)-1]
}

// eclatQuery is the per-query state of indexed mining: the shared view
// (frequent items and posting refs into the Index), one expansion
// scratch per worker and the assembly scratch. All of it survives
// across queries, keeping back-to-back indexed mines allocation-flat.
// An IndexBuilder owns one for the indexes it builds; kept indexes
// draw one from eclatQueryPool.
type eclatQuery struct {
	shared   eclatShared
	workers  []eclatScratch // workers[0] also mines the serial path
	sinks    []*setSink
	order    canonOrder
	rootBits []uint64 // the bitsets of the roots densifyRoots decoded
	// busy is claimed by the mine using a builder-owned query, so a
	// concurrent mine of the same index falls back to the pool.
	busy atomic.Bool
}

var eclatQueryPool = sync.Pool{New: func() any { return &eclatQuery{} }}

// acquireEclatQuery returns the query state of the index's builder if
// no other mine holds it, else a pooled one.
func acquireEclatQuery(ix *Index) *eclatQuery {
	if q := ix.query; q != nil && q.busy.CompareAndSwap(false, true) {
		return q
	}
	return eclatQueryPool.Get().(*eclatQuery)
}

// release drops every reference into the Index, so a kept query never
// pins evicted index memory, trims oversized scratch, and hands the
// query back to its builder or the pool.
func (q *eclatQuery) release(ix *Index) {
	sh := &q.shared
	clear(sh.root)
	sh.root = sh.root[:0]
	sh.weights = nil
	for i := range q.workers {
		q.workers[i].sh = nil
		q.workers[i].out.trim()
	}
	clear(q.sinks)
	q.order.trim()
	if cap(q.rootBits) > maxKeptRootWords {
		q.rootBits = nil
	}
	if q == ix.query {
		q.busy.Store(false)
		return
	}
	eclatQueryPool.Put(q)
}

// eclatMineIndexed runs the vertical kernel's query phase over a
// prebuilt Index: frequent items are filtered from the index's support
// counts at the requested threshold and their posting containers are
// used in place, or decoded to bitsets where the root rule with
// constant denseK says so (see densifyRoots) — no counting pass, no
// dedup, no raw transactions. A non-nil gate arms every worker's sink.
func eclatMineIndexed(ix *Index, minSupport float64, workers int, g *gate, denseK int) (*Result, error) {
	if minSupport <= 0 || minSupport > 1 {
		return nil, ErrBadSupport
	}
	res := &Result{N: ix.n}
	if ix.n == 0 {
		return res, nil
	}
	q := acquireEclatQuery(ix)
	defer q.release(ix)
	sh := &q.shared
	sh.mc = minCount(ix.n, minSupport)
	sh.words = ix.words
	sh.setWeights(ix.weighted, ix.weights[:ix.uniques], ix.words)

	// Frequent item positions in the standard Eclat order (ascending
	// count, ties by ascending ID — positions ascend with IDs, so the
	// tie-break is the position itself).
	f := 0
	for _, ic := range ix.items {
		if ic.count >= sh.mc {
			f++
		}
	}
	sh.pos = reuse(sh.pos, f)
	for p, ic := range ix.items {
		if ic.count >= sh.mc {
			sh.pos = append(sh.pos, int32(p))
		}
	}
	slices.SortFunc(sh.pos, func(a, b int32) int {
		if c := cmp.Compare(ix.items[a].count, ix.items[b].count); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	sh.root = reuse(sh.root, f)
	for i, p := range sh.pos {
		sh.root = append(sh.root, eclatExt{item: int32(i), p: ix.postingAt(int(p)), count: ix.items[p].count})
	}
	q.densifyRoots(denseK)

	if err := q.run(ix, workers, g); err != nil {
		return nil, err
	}
	sets, err := q.order.finish(ix.items, g, q.sinks...)
	if err != nil {
		return nil, err
	}
	res.Sets = sets
	return res, nil
}

// densifyK is the root rule's constant: a frequent item whose posting
// is an array or run container is mined from a words-wide bitset
// decoded for the query when words <= densifyK·card. Below the root
// every pair of dense members then takes intersectBits' word AND and
// popcount instead of a merge, which on a narrow bitmap costs a few
// words where the merge walks both arrays; a long tail of postings
// small against the bitmap width keeps its arrays, whose cost tracks
// their cardinality. The value comes from BenchmarkRootRuleSweep (see
// DESIGN.md §16).
const densifyK = 16

// maxKeptRootWords bounds the decoded-root arena a query keeps between
// mines, 1 MiB: a query that outgrew it drops the arena in release, so
// a builder-owned or pooled query does not pin bytes that no index
// budget counts.
const maxKeptRootWords = 1 << 17

// densifyRoots applies the root rule with constant k: every compressed
// root posting with words <= k·card is decoded into a bitset carved
// from the query's rootBits arena and replaces the container view in
// sh.root. The arena is sized to the decoded roots alone, so a mine
// that decodes none allocates nothing. The index is never written.
func (q *eclatQuery) densifyRoots(k int) {
	sh := &q.shared
	words := sh.words
	decodes := func(p posting) bool { return p.kind != containerBitset && words <= k*int(p.card) }
	n := 0
	for _, r := range sh.root {
		if decodes(r.p) {
			n++
		}
	}
	if n == 0 {
		return
	}
	arena := zeroed(q.rootBits, n*words)
	q.rootBits = arena
	for i, r := range sh.root {
		if !decodes(r.p) {
			continue
		}
		bm := arena[:words:words]
		arena = arena[words:]
		setPostingBits(r.p, bm)
		sh.root[i].p = posting{kind: containerBitset, card: r.p.card, bits: bm}
	}
}

// run is the expansion phase: singletons from the frequent-item counts,
// then every top-level prefix partition, serially or fanned out over
// the scheduler, each worker emitting into its own sink.
func (q *eclatQuery) run(ix *Index, workers int, g *gate) error {
	sh := &q.shared
	k := len(sh.pos)
	if workers < 1 || k < 3 {
		workers = 1
	}
	workers = min(workers, max(k-1, 1))
	for len(q.workers) < workers {
		q.workers = append(q.workers, eclatScratch{})
	}
	q.sinks = q.sinks[:0]
	for i := range q.workers[:workers] {
		w := &q.workers[i]
		w.sh = sh
		// A stack or family holds at most every frequent item once, so
		// sized to k up front, none of them grows during the walk: a
		// warm worker's allocations do not depend on which partitions
		// it happens to claim.
		w.suffix, w.pe = reuse(w.suffix, k), reuse(w.pe, k)
		w.base, w.ext, w.comb = reuse(w.base, k), reuse(w.ext, k), reuse(w.comb, k)
		w.out.reset()
		if g != nil {
			w.out.arm(g.top, sh.mc, ix.items)
		}
		q.sinks = append(q.sinks, &w.out)
	}
	// Singletons come straight from the global counts.
	out := &q.workers[0].out
	for _, p := range sh.pos {
		if c := ix.items[p].count; out.keep(c) {
			out.add(1, c)[0] = p
		}
	}

	if workers == 1 {
		for a := 0; a+1 < k; a++ {
			q.workers[0].node(sh.root, a, 0)
		}
		return nil
	}
	// Top-level prefix partitions are independent subtrees: each worker
	// takes the next unclaimed one until none are left. Which worker
	// mines which partition does not matter — assembly orders the sets
	// canonically whatever sink they are in.
	var next atomic.Int64
	return sched.Run(workers, workers, func(w int) error {
		s := &q.workers[w]
		for a := int(next.Add(1)) - 1; a+1 < k; a = int(next.Add(1)) - 1 {
			s.node(sh.root, a, 0)
		}
		return nil
	})
}
