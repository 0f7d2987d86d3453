package itemset

import (
	"cmp"
	"slices"
	"sync"

	"cuisinevol/internal/ingredient"
)

// The FP-Growth kernel (Han et al.) mines off an Index's weighted unique
// transactions, read by transposing its postings. It is flat-memory:
// FP-tree nodes live in a single arena slice with index links, and all
// scratch is pooled across calls, so steady-state mining allocates
// almost nothing beyond the returned Result.

var minerPool = sync.Pool{New: func() any { return new(fpMiner) }}

// nilIdx is the arena's null link.
const nilIdx = int32(-1)

// fpNode is one FP-tree node, stored by value in a flatTree's arena.
// Links are arena indices (first-child/next-sibling instead of per-node
// child maps); item is an index into the miner's global frequency order,
// not an ingredient ID.
type fpNode struct {
	parent int32
	child  int32 // first child
	sib    int32 // next sibling under the same parent
	hnext  int32 // next node in the header-table chain for item
	item   int32
	count  int
}

// flatTree is an FP-tree whose nodes live in one contiguous arena;
// nodes[0] is the root. The tree is sized to the item range it actually
// holds (conditional trees for item i only ever contain items < i).
type flatTree struct {
	nodes    []fpNode
	heads    []int32 // per item: first node of the header chain
	tails    []int32 // per item: last node of the header chain
	counts   []int   // per item: total count in this tree
	numItems int
}

// reset clears the tree for reuse with the given item range, recycling
// all backing storage.
func (t *flatTree) reset(numItems int) {
	t.nodes = append(t.nodes[:0], fpNode{parent: nilIdx, child: nilIdx, sib: nilIdx, hnext: nilIdx, item: -1})
	if cap(t.heads) < numItems {
		t.heads = make([]int32, numItems)
		t.tails = make([]int32, numItems)
		t.counts = make([]int, numItems)
	}
	t.heads = t.heads[:numItems]
	t.tails = t.tails[:numItems]
	t.counts = t.counts[:numItems]
	for i := range t.heads {
		t.heads[i] = nilIdx
		t.counts[i] = 0
	}
	t.numItems = numItems
}

// insert adds one transaction (item indices sorted ascending, i.e. most
// frequent first) with the given count.
func (t *flatTree) insert(items []int32, count int) {
	node := int32(0)
	for _, it := range items {
		// Find the child carrying it by walking the sibling list; fanout
		// is bounded by the (small) frequent-item count, and the scan
		// touches one contiguous arena, so this beats a per-node map.
		child := nilIdx
		for c := t.nodes[node].child; c != nilIdx; c = t.nodes[c].sib {
			if t.nodes[c].item == it {
				child = c
				break
			}
		}
		if child == nilIdx {
			child = int32(len(t.nodes))
			t.nodes = append(t.nodes, fpNode{
				parent: node,
				child:  nilIdx,
				sib:    t.nodes[node].child,
				hnext:  nilIdx,
				item:   it,
			})
			t.nodes[node].child = child
			if t.heads[it] == nilIdx {
				t.heads[it] = child
			} else {
				t.nodes[t.tails[it]].hnext = child
			}
			t.tails[it] = child
		}
		t.nodes[child].count += count
		t.counts[it] += count
		node = child
	}
}

// singlePath appends the node chain to buf and reports true if the tree
// is a single path; buf is left partially filled on failure.
func (t *flatTree) singlePath(buf []int32) ([]int32, bool) {
	node := int32(0)
	for {
		c := t.nodes[node].child
		if c == nilIdx {
			return buf, true
		}
		if t.nodes[c].sib != nilIdx {
			return buf, false
		}
		buf = append(buf, c)
		node = c
	}
}

// itemCount pairs an ingredient with its global occurrence count.
type itemCount struct {
	item  ingredient.ID
	count int
}

// fpMiner is the reusable FP-Growth kernel state: the frequent-item
// order, the transposed rows, the FP-tree arenas (one per recursion
// depth), the suffix/prefix buffers, the set sink and the assembly
// scratch all
// survive across calls, so a worker mining index after index reaches a
// steady state with near-zero allocation per mine. Not safe for
// concurrent use; fpGrowthIndexed draws miners from a pool.
type fpMiner struct {
	// freqPos holds the frequent items' Index positions in frequency
	// order; tree items are indices into it.
	freqPos []int32

	// rows are the unique transactions' frequent items as indices into
	// freqPos, ascending (see rowScratch).
	rows rowScratch

	trees  []*flatTree // conditional-tree scratch, one per depth
	suffix []int32
	prefix []int32
	combo  []int32
	path   []int32

	out   setSink
	order canonOrder

	mc int
}

// fpGrowthIndexed mines an Index with the FP-tree kernel: frequent
// items come from the index's support counts and the initial tree is
// built from their transposed postings, weighted — no counting pass, no
// second dedup (identical projected prefixes merge on insertion), and
// no per-row sort.
func fpGrowthIndexed(ix *Index, minSupport float64, g *gate) (*Result, error) {
	m := minerPool.Get().(*fpMiner)
	res, err := m.mineIndexed(ix, minSupport, g)
	m.out.trim()
	m.order.trim()
	minerPool.Put(m)
	return res, err
}

func (m *fpMiner) mineIndexed(ix *Index, minSupport float64, g *gate) (*Result, error) {
	if minSupport <= 0 || minSupport > 1 {
		return nil, ErrBadSupport
	}
	res := &Result{N: ix.n}
	if ix.n == 0 {
		return res, nil
	}
	m.mc = minCount(ix.n, minSupport)

	// Global item order: descending count, ties by ascending ID (and so
	// by ascending position). Items below the threshold are dropped up
	// front.
	m.freqPos = m.freqPos[:0]
	for p, ic := range ix.items {
		if ic.count >= m.mc {
			m.freqPos = append(m.freqPos, int32(p))
		}
	}
	slices.SortFunc(m.freqPos, func(a, b int32) int {
		if c := cmp.Compare(ix.items[b].count, ix.items[a].count); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})

	// The frequent items' postings, transposed in frequency order, give
	// each unique transaction's frequent items already in tree order.
	m.rows.transpose(ix, m.freqPos)
	tree := m.treeAt(0)
	tree.reset(len(m.freqPos))
	for u := 0; u < ix.uniques; u++ {
		if row := m.rows.row(u); len(row) > 0 {
			tree.insert(row, int(ix.weights[u]))
		}
	}

	m.suffix = m.suffix[:0]
	m.out.reset()
	if g != nil {
		m.out.arm(g.top, m.mc, ix.items)
	}
	m.mine(tree, 1)
	sets, err := m.order.finish(ix.items, g, &m.out)
	if err != nil {
		return nil, err
	}
	res.Sets = sets
	return res, nil
}

// treeAt returns the reusable tree scratch for the given recursion depth.
func (m *fpMiner) treeAt(depth int) *flatTree {
	for len(m.trees) <= depth {
		m.trees = append(m.trees, &flatTree{})
	}
	return m.trees[depth]
}

// maxSinglePath bounds the single-path shortcut: enumerating 2^k - 1
// combinations is only taken for short paths; longer ones (impossible at
// a 5% threshold on bounded-size recipes, but reachable in principle)
// fall through to the generic per-item recursion, which handles
// single-path trees correctly, just more slowly.
const maxSinglePath = 20

// mine recursively extracts frequent itemsets from the tree; the items
// already fixed live on m.suffix, and depth indexes the conditional-tree
// scratch for the next level.
func (m *fpMiner) mine(tree *flatTree, depth int) {
	path, single := tree.singlePath(m.path[:0])
	m.path = path
	if single && len(path) <= maxSinglePath {
		m.emitPathCombinations(tree, path)
		return
	}
	// Process items from least to most frequent (bottom of the order).
	for it := tree.numItems - 1; it >= 0; it-- {
		if tree.counts[it] < m.mc {
			continue
		}
		m.suffix = append(m.suffix, int32(it))
		if m.out.keep(tree.counts[it]) {
			m.emit(m.suffix, tree.counts[it])
		}

		// Conditional pattern base for it. Every ancestor has a smaller
		// item index, so the conditional tree only needs the range [0, it).
		cond := m.treeAt(depth)
		cond.reset(it)
		for node := tree.heads[it]; node != nilIdx; node = tree.nodes[node].hnext {
			m.prefix = m.prefix[:0]
			for p := tree.nodes[node].parent; p != 0; p = tree.nodes[p].parent {
				m.prefix = append(m.prefix, tree.nodes[p].item)
			}
			if len(m.prefix) == 0 {
				continue
			}
			// prefix was collected leaf→root; reverse to ascending order.
			for l, r := 0, len(m.prefix)-1; l < r; l, r = l+1, r-1 {
				m.prefix[l], m.prefix[r] = m.prefix[r], m.prefix[l]
			}
			cond.insert(m.prefix, tree.nodes[node].count)
		}
		m.mine(cond, depth+1)
		m.suffix = m.suffix[:len(m.suffix)-1]
	}
}

// emitPathCombinations adds every non-empty combination of the single
// path's nodes (with the path's minimum count along the combination)
// appended to the current suffix. The count comes first, so a set the
// gate drops is never built.
func (m *fpMiner) emitPathCombinations(tree *flatTree, path []int32) {
	n := len(path)
	for mask := 1; mask < 1<<n; mask++ {
		count := 1 << 62
		for b := 0; b < n; b++ {
			if mask&(1<<b) != 0 {
				count = min(count, tree.nodes[path[b]].count)
			}
		}
		if count < m.mc || !m.out.keep(count) {
			continue
		}
		m.combo = append(m.combo[:0], m.suffix...)
		for b := 0; b < n; b++ {
			if mask&(1<<b) != 0 {
				m.combo = append(m.combo, tree.nodes[path[b]].item)
			}
		}
		m.emit(m.combo, count)
	}
}

// emit records a frequent itemset the sink's gate kept, translating
// item indices back to ascending Index positions.
func (m *fpMiner) emit(itemIdx []int32, count int) {
	dst := m.out.add(len(itemIdx), count)
	for i, idx := range itemIdx {
		dst[i] = m.freqPos[idx]
	}
	sortInt32s(dst)
}

// sortInt32s sorts small index slices in place (insertion sort; filtered
// transactions are recipe-sized).
func sortInt32s(xs []int32) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// rowScratch holds the rows FP-Growth mines from: unique transaction
// u's row is rows[off[u]:off[u+1]]. A miner keeps one and refills it
// per mine, so its arenas are reused.
type rowScratch struct {
	off  []int32
	rows []int32
	ids  []uint32 // one posting's ids, expanded from a run or bitset
}

// transpose fills the rows from the postings of the items at the
// positions in order, walked in that order: row u lists the indices
// into order of the items unique transaction u holds, ascending. Items
// not in order are never read, and a transaction holding none of them
// gets an empty row.
func (s *rowScratch) transpose(ix *Index, order []int32) {
	off := zeroed(s.off, ix.uniques+1)
	for _, p := range order {
		for _, t := range s.tids(ix.postingAt(int(p)), ix.words) {
			off[t+1]++
		}
	}
	for u := 0; u < ix.uniques; u++ {
		off[u+1] += off[u]
	}
	rows := grown(s.rows, int(off[ix.uniques]))
	// Fill with off[u] as row u's cursor: afterwards off[u] is where row
	// u+1 starts, so one shift restores the offsets.
	for o, p := range order {
		for _, t := range s.tids(ix.postingAt(int(p)), ix.words) {
			rows[off[t]] = int32(o)
			off[t]++
		}
	}
	copy(off[1:], off[:ix.uniques])
	off[0] = 0
	s.off, s.rows = off, rows
}

// row returns unique transaction u's row.
func (s *rowScratch) row(u int) []int32 { return s.rows[s.off[u]:s.off[u+1]] }

// tids returns a posting's ids ascending: an array container's own ids,
// or the others expanded into the scratch.
func (s *rowScratch) tids(pt posting, words int) []uint32 {
	if pt.kind == containerArray {
		return pt.ids
	}
	s.ids = appendPostingIDs(s.ids[:0], pt, words)
	return s.ids
}
