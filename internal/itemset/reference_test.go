package itemset

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"cuisinevol/internal/ingredient"
)

// The reference miner the tests check the indexed kernel against: raw
// level-wise Apriori, with the comparator sort that defines the
// canonical order. The kernel runs (kernelRun) mine an index at a
// chosen worker count and root rule.

// Apriori mines all frequent itemsets of size >= 1 with relative support
// >= minSupport using the classical level-wise algorithm. Transactions
// must be sorted ascending without duplicates.
func Apriori(txs [][]ingredient.ID, minSupport float64) (*Result, error) {
	if minSupport <= 0 || minSupport > 1 {
		return nil, ErrBadSupport
	}
	if err := validateTransactions(txs); err != nil {
		return nil, err
	}
	n := len(txs)
	res := &Result{N: n}
	if n == 0 {
		return res, nil
	}
	mc := minCount(n, minSupport)

	// L1.
	counts := make(map[ingredient.ID]int)
	for _, tx := range txs {
		for _, it := range tx {
			counts[it]++
		}
	}
	var level []Itemset
	for it, c := range counts {
		if c >= mc {
			level = append(level, Itemset{Items: []ingredient.ID{it}, Count: c})
		}
	}
	sortLexical(level)
	res.Sets = append(res.Sets, level...)

	// Filter transactions down to frequent singletons once.
	frequent := make(map[ingredient.ID]bool, len(level))
	for _, s := range level {
		frequent[s.Items[0]] = true
	}
	filtered := make([][]ingredient.ID, 0, n)
	for _, tx := range txs {
		ftx := make([]ingredient.ID, 0, len(tx))
		for _, it := range tx {
			if frequent[it] {
				ftx = append(ftx, it)
			}
		}
		if len(ftx) >= 2 {
			filtered = append(filtered, ftx)
		}
	}

	for len(level) >= 2 {
		candidates := aprioriGen(level)
		if len(candidates) == 0 {
			break
		}
		countCandidates(candidates, filtered)
		next := candidates[:0]
		for _, c := range candidates {
			if c.Count >= mc {
				next = append(next, c)
			}
		}
		level = append([]Itemset(nil), next...)
		sortLexical(level)
		res.Sets = append(res.Sets, level...)
	}

	sortCanonical(res.Sets)
	return res, nil
}

// sortCanonical orders itemsets by descending count, then ascending size,
// then lexicographically — a total order that makes results comparable
// across miners and runs. Raw Apriori uses it; the indexed kernels reach
// the same order through canonOrder, and the tests check the two agree.
func sortCanonical(sets []Itemset) {
	slices.SortFunc(sets, func(a, b Itemset) int {
		if a.Count != b.Count {
			return cmp.Compare(b.Count, a.Count)
		}
		if len(a.Items) != len(b.Items) {
			return cmp.Compare(len(a.Items), len(b.Items))
		}
		return slices.Compare(a.Items, b.Items)
	})
}

// kernelRun is one way the tests mine: the Eclat kernel at a worker
// count and root rule, or, with auto, through the exported entry
// points, as every mine outside the tests runs.
type kernelRun struct {
	workers int
	auto    bool
	// denseK, when non-zero, replaces densifyK as the root rule
	// constant: neverDense keeps every compressed root posting,
	// alwaysDense decodes them all.
	denseK int
}

const (
	neverDense  = -1
	alwaysDense = 1 << 30
)

var (
	eclatRun = kernelRun{}
	autoRun  = kernelRun{auto: true}
)

// eclatRuns are the runs every test corpus takes: the kernel on one
// worker and on four.
var eclatRuns = []kernelRun{{workers: 1}, {workers: 4}}

func (r kernelRun) String() string {
	name := "eclat"
	if r.auto {
		name = "auto"
	}
	if r.denseK != 0 {
		return fmt.Sprintf("%s/workers=%d/denseK=%d", name, r.workers, r.denseK)
	}
	return fmt.Sprintf("%s/workers=%d", name, r.workers)
}

// gated is the kernel at r's worker count and root rule.
func (r kernelRun) gated(ix *Index, minSupport float64, g *gate) (*Result, error) {
	k := densifyK
	if r.denseK != 0 {
		k = r.denseK
	}
	return eclatMineIndexed(ix, minSupport, r.workers, g, k)
}

// indexed is MineIndexed run as r says.
func (r kernelRun) indexed(ix *Index, minSupport float64) (*Result, error) {
	if r.auto {
		return MineIndexed(ix, minSupport, MineOptions{Workers: r.workers})
	}
	return r.gated(ix, minSupport, nil)
}

// mine is Mine run as r says.
func (r kernelRun) mine(txs [][]ingredient.ID, minSupport float64) (*Result, error) {
	if r.auto {
		return Mine(txs, minSupport, MineOptions{Workers: r.workers})
	}
	if minSupport <= 0 || minSupport > 1 {
		return nil, ErrBadSupport
	}
	ix, err := new(IndexBuilder).Build(txs)
	if err != nil {
		return nil, err
	}
	ix.query = nil
	return r.gated(ix, minSupport, nil)
}

// top is MineTop run as r says.
func (r kernelRun) top(ix *Index, minSupport float64, top int) (*Result, int, error) {
	if r.auto {
		return MineTop(ix, minSupport, top, MineOptions{Workers: r.workers})
	}
	g := gate{top: max(top, 0)}
	res, err := r.gated(ix, minSupport, &g)
	return res, g.total, err
}

// spectrum is MineSpectrum run as r says.
func (r kernelRun) spectrum(ix *Index, minSupport float64) (Spectrum, error) {
	if r.auto {
		return MineSpectrum(ix, minSupport, MineOptions{Workers: r.workers})
	}
	var g gate
	res, err := r.gated(ix, minSupport, &g)
	if err != nil {
		return Spectrum{}, err
	}
	return Spectrum{Counts: g.spectrum, N: res.N}, nil
}

// Eclat is Mine with the kernel run serially off a one-shot builder.
func Eclat(txs [][]ingredient.ID, minSupport float64) (*Result, error) {
	return eclatRun.mine(txs, minSupport)
}

// sortLexical orders same-size itemsets lexicographically, the order
// aprioriGen's prefix join requires.
func sortLexical(sets []Itemset) {
	sort.Slice(sets, func(i, j int) bool {
		a, b := sets[i].Items, sets[j].Items
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
}

// aprioriGen joins size-k itemsets sharing a (k-1)-prefix and prunes
// candidates with an infrequent k-subset.
func aprioriGen(level []Itemset) []Itemset {
	k := len(level[0].Items)
	known := make(map[string]bool, len(level))
	for _, s := range level {
		known[fingerprint(s.Items)] = true
	}
	var out []Itemset
	for i := 0; i < len(level); i++ {
		for j := i + 1; j < len(level); j++ {
			a, b := level[i].Items, level[j].Items
			if !samePrefix(a, b, k-1) {
				break // lexical order: once prefixes diverge, no more joins for i
			}
			cand := make([]ingredient.ID, k+1)
			copy(cand, a)
			if a[k-1] < b[k-1] {
				cand[k] = b[k-1]
			} else {
				cand[k-1], cand[k] = b[k-1], a[k-1]
			}
			if prune(cand, known) {
				continue
			}
			out = append(out, Itemset{Items: cand})
		}
	}
	return out
}

func samePrefix(a, b []ingredient.ID, k int) bool {
	for i := 0; i < k; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// prune reports whether any k-subset of the (k+1)-candidate is not known
// frequent.
func prune(cand []ingredient.ID, known map[string]bool) bool {
	sub := make([]ingredient.ID, 0, len(cand)-1)
	for skip := range cand {
		sub = sub[:0]
		for i, it := range cand {
			if i != skip {
				sub = append(sub, it)
			}
		}
		if !known[fingerprint(sub)] {
			return true
		}
	}
	return false
}

// fingerprint encodes a sorted itemset as a compact map key. Each ID is
// encoded in full (4 bytes — ingredient.ID is int32), so distinct
// itemsets never collide; the 2-byte encoding this replaces silently
// collided for IDs >= 65536.
func fingerprint(items []ingredient.ID) string {
	b := make([]byte, 0, len(items)*4)
	for _, it := range items {
		b = append(b, byte(it>>24), byte(it>>16), byte(it>>8), byte(it))
	}
	return string(b)
}

// countCandidates sets Count on each candidate by scanning the filtered
// transactions. Candidates (all the same size k within a level) are
// bucketed by their first item, so each transaction only tests
// candidates whose head it actually contains — instead of the full
// O(|C|·|T|) cross product — and transactions shorter than k are skipped
// outright.
func countCandidates(candidates []Itemset, txs [][]ingredient.ID) {
	if len(candidates) == 0 {
		return
	}
	k := len(candidates[0].Items)
	byHead := make(map[ingredient.ID][]int32, len(candidates))
	for ci := range candidates {
		h := candidates[ci].Items[0]
		byHead[h] = append(byHead[h], int32(ci))
	}
	for _, tx := range txs {
		if len(tx) < k {
			continue
		}
		// A candidate headed at position i needs k-1 more items after it,
		// so only heads up to len(tx)-k can match.
		for i := 0; i+k <= len(tx); i++ {
			for _, ci := range byHead[tx[i]] {
				c := &candidates[ci]
				if containsSorted(tx[i+1:], c.Items[1:]) {
					c.Count++
				}
			}
		}
	}
}

// containsSorted reports whether the sorted transaction contains every
// item of the sorted candidate.
func containsSorted(tx, items []ingredient.ID) bool {
	if len(items) > len(tx) {
		return false
	}
	i := 0
	for _, want := range items {
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
