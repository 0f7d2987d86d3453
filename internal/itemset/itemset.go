// Package itemset implements frequent-itemset mining over recipe
// transactions: the combinations "of size 1 and greater which appeared in
// at least 5% of all recipes in a cuisine" (paper, §IV).
//
// Every mine has one shape: an IndexBuilder turns the transactions into
// an Index — validated, fingerprinted, deduped into weighted unique
// transactions, with one posting container per item — and MineIndexed
// runs a kernel over it: FP-Growth, the Eclat vertical kernel, or
// level-wise Apriori, all producing byte-identical canonical results.
// IndexBuilder.BuildSets indexes unsorted item sets, such as a model's
// recipes, without a fingerprint. Mine is the one-shot
// form (build, then mine); BuildIndex and IndexCache serve indexes that
// are queried many times; the replicate ensembles reuse one builder per
// worker. Index.ChooseKernel picks the cheaper kernel for the corpus
// shape unless MineOptions.Kernel forces one. Apriori over raw
// transactions, in the package's tests, is the independent oracle the
// differential and fuzz tests check every kernel against.
//
// Most answers need less than a full Result: MineTop builds only the
// first K sets (and counts the rest), MineSpectrum only the counts, in
// order. Both run the same kernels behind a count gate that drops a set
// before it is written (order.go).
//
// Canonical order: every Result lists its sets by count descending,
// then size ascending, then items in lexicographic order — a total
// order, so Results are reflect.DeepEqual across kernels, worker counts
// and runs. The indexed kernels reach it without comparisons: they emit
// item positions into set sinks, and a linear-time radix assembly
// (order.go) orders and gathers them into the Result. Only the tests'
// raw Apriori sorts with the comparator, sortCanonical, which is also
// their reference for the radix order.
package itemset

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"cuisinevol/internal/ingredient"
)

// Itemset is a frequent combination of items with its absolute occurrence
// count. Items are sorted ascending and never aliased with caller data.
type Itemset struct {
	Items []ingredient.ID
	Count int
}

// Support returns the itemset's relative support given the transaction
// count n.
func (s Itemset) Support(n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(s.Count) / float64(n)
}

// String renders the itemset as "{a, b}×count" using raw IDs.
func (s Itemset) String() string {
	return fmt.Sprintf("%v x%d", s.Items, s.Count)
}

// Result is the outcome of a mining run.
type Result struct {
	Sets []Itemset // in canonical order (see the package doc)
	N    int       // number of transactions mined
}

// Supports returns the relative supports of the frequent itemsets in
// result order — the series from which rank-frequency distributions are
// built (frequencies normalized by the total number of recipes, Fig 3).
func (r *Result) Supports() []float64 {
	out := make([]float64, len(r.Sets))
	for i, s := range r.Sets {
		out[i] = s.Support(r.N)
	}
	return out
}

// MaxSize returns the size of the largest frequent itemset.
func (r *Result) MaxSize() int {
	m := 0
	for _, s := range r.Sets {
		if len(s.Items) > m {
			m = len(s.Items)
		}
	}
	return m
}

// ErrBadSupport is returned when minSupport lies outside (0, 1].
var ErrBadSupport = errors.New("itemset: minSupport must be in (0, 1]")

// ErrTooManySets is returned by a mine whose frequent sets outnumber an
// int, so that neither their total nor their spectrum can be told, and
// by MineSpectrum when the spectrum would not fit in memory: a support
// so low that the many items some transactions share make 2^k of their
// combinations frequent.
var ErrTooManySets = errors.New("itemset: too many frequent sets to count at this support")

// minCount converts a relative threshold to the smallest absolute count
// satisfying count/n >= minSupport.
func minCount(n int, minSupport float64) int {
	mc := int(math.Ceil(minSupport*float64(n) - 1e-9))
	if mc < 1 {
		mc = 1
	}
	return mc
}

// validateTransactions checks that every transaction is strictly
// ascending (sorted, duplicate-free), as produced by recipe.View.
func validateTransactions(txs [][]ingredient.ID) error {
	for i, tx := range txs {
		for j := 1; j < len(tx); j++ {
			if tx[j-1] >= tx[j] {
				return errNotAscending(i)
			}
		}
	}
	return nil
}

func errNotAscending(i int) error {
	return fmt.Errorf("itemset: transaction %d is not strictly ascending", i)
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
// outright. weights carries per-transaction multiplicities for deduped
// databases (the indexed path); nil means every transaction counts once.
func countCandidates(candidates []Itemset, txs [][]ingredient.ID, weights []int32) {
	if len(candidates) == 0 {
		return
	}
	k := len(candidates[0].Items)
	byHead := make(map[ingredient.ID][]int32, len(candidates))
	for ci := range candidates {
		h := candidates[ci].Items[0]
		byHead[h] = append(byHead[h], int32(ci))
	}
	for ti, tx := range txs {
		if len(tx) < k {
			continue
		}
		w := 1
		if weights != nil {
			w = int(weights[ti])
		}
		// A candidate headed at position i needs k-1 more items after it,
		// so only heads up to len(tx)-k can match.
		for i := 0; i+k <= len(tx); i++ {
			for _, ci := range byHead[tx[i]] {
				c := &candidates[ci]
				if containsSorted(tx[i+1:], c.Items[1:]) {
					c.Count += w
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
