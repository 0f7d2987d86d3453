package itemset

import (
	"sort"
	"sync"

	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/sched"
)

// The vertical kernel (Zaki's Eclat over tidset containers) mines
// straight off an Index: each frequent item's posting container is its
// tidset over the deduped unique transactions, and the support of an
// extension is one container intersection (weight-summed when
// duplicates exist). Depth-first expansion walks prefix equivalence
// classes; all intersection and class scratch is pooled per depth, so
// steady-state mining allocates almost nothing beyond the Result.
//
// Dense short transactions — bounded-size recipes over a few hundred
// ingredients, the regime of every pipeline in this repo — are exactly
// where the vertical kernel beats the FP-tree; Index.ChooseKernel
// encodes that heuristic.

// eclatShared is the read-only mining state the expansion workers
// consume: the frequent-item filter and zero-copy posting views into
// the Index, built once per mine and then shared across the top-level
// prefix partitions (safely — nothing here is written after
// construction).
type eclatShared struct {
	freq     []itemCount // frequent items, ascending count then ID
	words    int         // dense bitmap length in uint64 words
	weighted bool        // any unique transaction with weight > 1
	weights  []int32     // per unique-transaction multiplicity
	posts    []posting   // per frequent item: its tidset container
	mc       int
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
// an emit arena, and the output slice. Serial mining uses the query's
// own scratch; the parallel path draws one per top-level partition from
// a pool.
type eclatScratch struct {
	sh       *eclatShared
	suffix   []int32
	levels   [][]uint64   // per-depth word buffers for bitset candidates
	levelIDs [][]uint32   // per-depth id buffers for array candidates
	class    [][]eclatExt // per-depth class scratch

	// arenaFree is the unused tail of the current emit-arena chunk (the
	// same carve-and-never-touch-again scheme as fpMiner.emit).
	arenaFree []ingredient.ID
	sets      []Itemset
}

// levelAt returns the depth's bitset buffer with room for n words.
func (s *eclatScratch) levelAt(depth, n int) []uint64 {
	for len(s.levels) <= depth {
		s.levels = append(s.levels, nil)
	}
	if cap(s.levels[depth]) < n {
		s.levels[depth] = make([]uint64, n)
	}
	return s.levels[depth][:cap(s.levels[depth])]
}

// levelIDsAt returns the depth's id buffer with room for n ids.
func (s *eclatScratch) levelIDsAt(depth, n int) []uint32 {
	for len(s.levelIDs) <= depth {
		s.levelIDs = append(s.levelIDs, nil)
	}
	if cap(s.levelIDs[depth]) < n {
		s.levelIDs[depth] = make([]uint32, n)
	}
	return s.levelIDs[depth][:cap(s.levelIDs[depth])]
}

// classAt returns the depth's class scratch, emptied.
func (s *eclatScratch) classAt(depth int) []eclatExt {
	for len(s.class) <= depth {
		s.class = append(s.class, nil)
	}
	return s.class[depth][:0]
}

// emitWith records the itemset suffix∪{item} with the given count,
// translating item order indices back to ingredient IDs sorted
// ascending (the canonical itemset representation all kernels share).
func (s *eclatScratch) emitWith(item int32, count int) {
	k := len(s.suffix) + 1
	if len(s.arenaFree) < k {
		size := emitArenaChunk
		if k > size {
			size = k
		}
		s.arenaFree = make([]ingredient.ID, size)
	}
	items := s.arenaFree[:k:k]
	s.arenaFree = s.arenaFree[k:]
	for i, idx := range s.suffix {
		items[i] = s.sh.freq[idx].item
	}
	items[k-1] = s.sh.freq[item].item
	// Insertion sort: itemsets are small (recipe-bounded).
	for i := 1; i < len(items); i++ {
		for j := i; j > 0 && items[j] < items[j-1]; j-- {
			items[j], items[j-1] = items[j-1], items[j]
		}
	}
	s.sets = append(s.sets, Itemset{Items: items, Count: count})
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
	k := len(sh.freq)
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
	class := s.classAt(0)
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
		class := s.classAt(depth)
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

// eclatWorkerPool recycles expansion scratch for the parallel path; the
// serial path uses the query's embedded scratch.
var eclatWorkerPool = sync.Pool{New: func() any { return &eclatScratch{} }}

// eclatRun is the expansion phase: singletons from the frequent-item
// counts, then every top-level prefix partition, serially or fanned out
// over the scheduler, leaving res.Sets canonically sorted.
func eclatRun(sh *eclatShared, s *eclatScratch, res *Result, workers int) error {
	s.sh = sh
	s.sets = s.sets[:0]
	s.suffix = s.suffix[:0]
	// Singletons come straight from the global counts.
	for _, ic := range sh.freq {
		s.emitSingleton(ic)
	}

	k := len(sh.freq)
	if workers > 1 && k > 2 {
		// Top-level prefix partitions are independent subtrees; fan them
		// out through the shared scheduler. Partition results are collected
		// by index and concatenated in order, and the canonical sort below
		// makes the Result identical to the serial walk regardless.
		serialSets := s.sets
		parts, err := sched.Collect(workers, k-1, func(a int) ([]Itemset, error) {
			w := eclatWorkerPool.Get().(*eclatScratch)
			w.sh = sh
			w.sets = nil // results are returned; never recycle them
			w.top(a)
			sets := w.sets
			w.sets = nil
			w.sh = nil
			eclatWorkerPool.Put(w)
			return sets, nil
		})
		if err != nil {
			s.sets = nil
			return err
		}
		res.Sets = serialSets
		for _, p := range parts {
			res.Sets = append(res.Sets, p...)
		}
		s.sets = nil // handed to the caller; don't retain in the pool
	} else {
		for a := 0; a+1 < k; a++ {
			s.top(a)
		}
		res.Sets = s.sets
		s.sets = nil
	}
	sortCanonical(res.Sets)
	return nil
}

// eclatQuery is the pooled per-query state of indexed mining: the
// shared view (frequent-item filter + bitmap refs into the Index) and
// an expansion scratch whose per-depth buffers and emit arena survive
// across queries, keeping back-to-back indexed mines allocation-flat.
type eclatQuery struct {
	shared  eclatShared
	scratch eclatScratch
	posBuf  []int32 // frequent item positions, sorted into mining order
}

var eclatQueryPool = sync.Pool{New: func() any { return &eclatQuery{} }}

// release returns the query state to the pool, dropping every reference
// into the Index so a pooled query never pins evicted index memory.
func (q *eclatQuery) release() {
	sh := &q.shared
	clear(sh.posts)
	sh.posts = sh.posts[:0]
	sh.weights = nil
	eclatQueryPool.Put(q)
}

// eclatMineIndexed runs the vertical kernel's query phase over a
// prebuilt Index: frequent items are filtered from the index's support
// counts at the requested threshold and their posting bitmaps are used
// in place — no counting pass, no dedup, no bitmap build, no raw
// transactions.
func eclatMineIndexed(ix *Index, minSupport float64, workers int) (*Result, error) {
	if minSupport <= 0 || minSupport > 1 {
		return nil, ErrBadSupport
	}
	res := &Result{N: ix.n}
	if ix.n == 0 {
		return res, nil
	}
	q := eclatQueryPool.Get().(*eclatQuery)
	defer q.release()
	sh := &q.shared
	sh.mc = minCount(ix.n, minSupport)
	sh.words = ix.words
	sh.weighted = ix.weighted
	sh.weights = ix.weights

	// Frequent item positions in the standard Eclat order (ascending
	// count, ties by ascending ID — positions ascend with IDs, so the
	// tie-break is the position itself).
	q.posBuf = q.posBuf[:0]
	for p, ic := range ix.items {
		if ic.count >= sh.mc {
			q.posBuf = append(q.posBuf, int32(p))
		}
	}
	sort.Slice(q.posBuf, func(i, j int) bool {
		a, b := q.posBuf[i], q.posBuf[j]
		if ix.items[a].count != ix.items[b].count {
			return ix.items[a].count < ix.items[b].count
		}
		return a < b
	})
	sh.freq = sh.freq[:0]
	sh.posts = sh.posts[:0]
	for _, p := range q.posBuf {
		sh.freq = append(sh.freq, ix.items[p])
		sh.posts = append(sh.posts, ix.postingAt(int(p)))
	}

	if err := eclatRun(sh, &q.scratch, res, workers); err != nil {
		return nil, err
	}
	return res, nil
}

// emitSingleton records a size-1 itemset from the global count pass.
func (s *eclatScratch) emitSingleton(ic itemCount) {
	if len(s.arenaFree) < 1 {
		s.arenaFree = make([]ingredient.ID, emitArenaChunk)
	}
	items := s.arenaFree[:1:1]
	s.arenaFree = s.arenaFree[1:]
	items[0] = ic.item
	s.sets = append(s.sets, Itemset{Items: items, Count: ic.count})
}
