package itemset

import (
	"cmp"
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
// where the vertical kernel beats the FP-tree; Index.ChooseKernel
// encodes that heuristic.

// eclatShared is the read-only mining state the expansion workers
// consume: the frequent items' positions and zero-copy posting views
// into the Index, built once per mine and then shared across the
// top-level prefix partitions (safely — nothing here is written after
// construction).
type eclatShared struct {
	pos      []int32   // frequent item positions, ascending count then position
	words    int       // dense bitmap length in uint64 words
	weighted bool      // any unique transaction with weight > 1
	weights  []int32   // per unique-transaction multiplicity
	heavy    []uint64  // weighted only: bit u set iff weights[u] > 1
	posts    []posting // per frequent item: its tidset container
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

// eclatScratch is the per-worker expansion state: the suffix stack, one
// bitset buffer, one id buffer and one class slice per recursion depth,
// and the sink the worker's itemsets go to. The query owns one scratch
// per worker and keeps them across partitions and mines.
type eclatScratch struct {
	sh       *eclatShared
	suffix   []int32
	levels   [][]uint64   // per-depth word buffers for bitset candidates
	levelIDs [][]uint32   // per-depth id buffers for array candidates
	class    [][]eclatExt // per-depth class scratch
	out      setSink
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

// emitWith records the itemset suffix∪{item} with the given count as
// its ascending item positions, unless the sink's gate drops it.
func (s *eclatScratch) emitWith(item int32, count int) {
	if !s.out.keep(count) {
		return
	}
	dst := s.out.add(len(s.suffix)+1, count)
	for i, idx := range s.suffix {
		dst[i] = s.sh.pos[idx]
	}
	dst[len(dst)-1] = s.sh.pos[item]
	sortInt32s(dst)
}

// top expands the top-level prefix partition rooted at frequent item a:
// all itemsets whose first (in item order) member is a and that contain
// at least one later item. Partitions are independent, which is what
// the parallel path exploits.
//
// A sizing pass over the candidates reserves the depth's scratch
// exactly — words for every bitset×bitset pair, the pair's cardinality
// bound for every pair with a compressed side — so every candidate
// container is carved from a stable buffer: a failed candidate's space
// is simply reused for the next one, and a whole depth's buffers are
// reused across siblings once their subtree is done.
func (s *eclatScratch) top(a int) {
	sh := s.sh
	k := len(sh.pos)
	s.suffix = append(s.suffix[:0], int32(a))
	pa := sh.posts[a]
	needW, needI := 0, 0
	for b := a + 1; b < k; b++ {
		if resultIsBitset(pa, sh.posts[b]) {
			needW += sh.words
		} else {
			needI += pairArrayBound(pa, sh.posts[b])
		}
	}
	wbuf := s.levelAt(0, needW)
	ibuf := s.levelIDsAt(0, needI)
	class := s.classAt(0, k-a-1)
	woff, ioff := 0, 0
	for b := a + 1; b < k; b++ {
		pb := sh.posts[b]
		var res posting
		var cnt int
		if resultIsBitset(pa, pb) {
			res, cnt = sh.intersectBits(pa, pb, wbuf[woff:woff+sh.words])
		} else {
			bound := pairArrayBound(pa, pb)
			res, cnt = sh.intersectCompressed(pa, pb, ibuf[ioff:ioff+bound])
		}
		if cnt >= sh.mc {
			s.emitWith(int32(b), cnt)
			class = append(class, eclatExt{item: int32(b), p: res, count: cnt})
			if res.kind == containerBitset {
				woff += sh.words
			} else {
				ioff += len(res.ids)
			}
		}
	}
	s.class[0] = class
	if len(class) >= 2 {
		s.expand(class, 1)
	}
	s.suffix = s.suffix[:0]
}

// expand walks one prefix equivalence class depth-first: for each
// member a, the prefix grows by a's item and every later member b is
// intersected against it via the container-pair dispatch; survivors
// form the next class. Candidate containers for a depth live in that
// depth's buffers (see top for the sizing discipline). Sparse subtrees
// stay sparse: once an intersection drops to an array it never
// re-densifies, so the per-pair cost follows the shrinking
// cardinalities instead of the fixed bitmap width.
func (s *eclatScratch) expand(exts []eclatExt, depth int) {
	sh := s.sh
	for a := 0; a+1 < len(exts); a++ {
		s.suffix = append(s.suffix, exts[a].item)
		pa := exts[a].p
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
			if cnt >= sh.mc {
				s.emitWith(exts[b].item, cnt)
				class = append(class, eclatExt{item: exts[b].item, p: res, count: cnt})
				if res.kind == containerBitset {
					woff += sh.words
				} else {
					ioff += len(res.ids)
				}
			}
		}
		s.class[depth] = class
		if len(class) >= 2 {
			s.expand(class, depth+1)
		}
		s.suffix = s.suffix[:len(s.suffix)-1]
	}
}

// eclatQuery is the per-query state of indexed mining: the shared view
// (frequent items and posting refs into the Index), one expansion
// scratch per worker and the assembly scratch. All of it survives
// across queries, keeping back-to-back indexed mines allocation-flat.
// An IndexBuilder owns one for the indexes it builds; kept indexes
// draw one from eclatQueryPool.
type eclatQuery struct {
	shared  eclatShared
	workers []eclatScratch // workers[0] also mines the serial path
	sinks   []*setSink
	order   canonOrder
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
	clear(sh.posts)
	sh.posts = sh.posts[:0]
	sh.weights = nil
	for i := range q.workers {
		q.workers[i].sh = nil
		q.workers[i].out.trim()
	}
	clear(q.sinks)
	q.order.trim()
	if q == ix.query {
		q.busy.Store(false)
		return
	}
	eclatQueryPool.Put(q)
}

// eclatMineIndexed runs the vertical kernel's query phase over a
// prebuilt Index: frequent items are filtered from the index's support
// counts at the requested threshold and their posting bitmaps are used
// in place — no counting pass, no dedup, no bitmap build, no raw
// transactions. A non-nil gate arms every worker's sink.
func eclatMineIndexed(ix *Index, minSupport float64, workers int, g *gate) (*Result, error) {
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
	sh.posts = reuse(sh.posts, f)
	for _, p := range sh.pos {
		sh.posts = append(sh.posts, ix.postingAt(int(p)))
	}

	if err := q.run(ix, workers, g); err != nil {
		return nil, err
	}
	res.Sets = q.order.finish(ix.items, g, q.sinks...)
	return res, nil
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
		w.suffix = w.suffix[:0]
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
			q.workers[0].top(a)
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
			s.top(a)
		}
		return nil
	})
}
