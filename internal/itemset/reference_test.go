package itemset

import (
	"cmp"
	"slices"

	"cuisinevol/internal/ingredient"
)

// The reference miners the tests check the indexed kernels against:
// raw level-wise Apriori, with the comparator sort that defines the
// canonical order, and the one-line forced-kernel wrappers.

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
		countCandidates(candidates, filtered, nil)
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

// FPGrowth is Mine with the FP-tree kernel forced.
func FPGrowth(txs [][]ingredient.ID, minSupport float64) (*Result, error) {
	return Mine(txs, minSupport, MineOptions{Kernel: KernelFPGrowth})
}

// Eclat is Mine with the vertical kernel forced.
func Eclat(txs [][]ingredient.ID, minSupport float64) (*Result, error) {
	return Mine(txs, minSupport, MineOptions{Kernel: KernelEclat})
}
