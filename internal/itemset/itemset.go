// Package itemset implements frequent-itemset mining over recipe
// transactions: the combinations "of size 1 and greater which appeared in
// at least 5% of all recipes in a cuisine" (paper, §IV).
//
// Every mine has one shape: an IndexBuilder turns the transactions into
// an Index — validated, fingerprinted, deduped into weighted unique
// transactions, with one posting container per item — and MineIndexed
// runs the Eclat vertical kernel over it. There is one kernel; no
// caller chooses one.
// IndexBuilder.SpectrumOfSets mines unsorted item sets, such as a
// model's recipes, at one support: it indexes only their frequent
// items, one unweighted transaction per set with any, and returns the
// spectrum. Mine is the one-shot form (build,
// then mine); BuildIndex and IndexCache serve indexes that are queried
// many times; the replicate ensembles reuse one builder per worker.
// Apriori over raw transactions, in the package's tests, is the
// independent oracle the differential and fuzz tests check the kernel
// against.
//
// Most answers need less than a full Result: MineTop builds only the
// first K sets (and counts the rest), MineSpectrum only the counts, in
// order. Both run the same kernel behind a count gate that drops a set
// before it is written (order.go).
//
// Canonical order: every Result lists its sets by count descending,
// then size ascending, then items in lexicographic order — a total
// order, so Results are reflect.DeepEqual across worker counts, root
// rules and runs. The kernel reaches it without comparisons: it emits
// item positions into set sinks, and a linear-time radix assembly
// (order.go) orders and gathers them into the Result. Only the tests'
// raw Apriori sorts with the comparator, sortCanonical, which is also
// their reference for the radix order.
package itemset

import (
	"errors"
	"fmt"
	"math"

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
