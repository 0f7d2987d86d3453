package itemset

import "cuisinevol/internal/ingredient"

// MineOptions tunes a Mine call.
type MineOptions struct {
	// Workers > 1 fans the Eclat kernel's top-level prefix partitions
	// over that many scheduler workers; <= 1 mines serially. The
	// pipelines get their parallelism from fanning out independent
	// mines instead, so they leave this at 0.
	Workers int
}

// Mine mines all frequent itemsets of size >= 1 with relative support
// >= minSupport: a one-shot index build followed by MineIndexed, so
// every mine runs off the same weighted posting containers.
// Transactions must be sorted strictly ascending; they are read, never
// retained or modified.
func Mine(txs [][]ingredient.ID, minSupport float64, opts MineOptions) (*Result, error) {
	if minSupport <= 0 || minSupport > 1 {
		return nil, ErrBadSupport
	}
	ix, err := new(IndexBuilder).Build(txs)
	if err != nil {
		return nil, err
	}
	// The one-shot builder's query state would start empty; the pooled
	// one is warm.
	ix.query = nil
	return MineIndexed(ix, minSupport, opts)
}

// MineIndexed mines all frequent itemsets of size >= 1 with relative
// support >= minSupport off a prebuilt Index — the query phase of
// index/query-split mining. Frequent items are filtered from the
// index's support counts at the requested threshold; the kernel never
// touches raw [][]ingredient.ID. The Result is in canonical order
// (pinned against raw Apriori by the differential layer).
func MineIndexed(ix *Index, minSupport float64, opts MineOptions) (*Result, error) {
	return eclatMineIndexed(ix, minSupport, opts.Workers, nil, densifyK)
}

// MineTop returns the first top sets of MineIndexed's Result, and how
// many sets the full Result holds, without building the rest: a count
// gate (see setSink.keep) drops every set that cannot be among the
// first top before the kernel writes it. top <= 0 builds no set.
func MineTop(ix *Index, minSupport float64, top int, opts MineOptions) (res *Result, total int, err error) {
	g := gate{top: max(top, 0)}
	res, err = eclatMineIndexed(ix, minSupport, opts.Workers, &g, densifyK)
	return res, g.total, err
}

// Spectrum is a mine's rank-frequency spectrum: the counts of its
// Result's sets in Result order, highest first, without the sets.
type Spectrum struct {
	Counts []int
	N      int // transactions mined, the Result's N
}

// MineSpectrum returns the spectrum of MineIndexed's Result. The
// kernel only tallies counts into a histogram, which yields the
// descending spectrum with no sort; no set is built.
func MineSpectrum(ix *Index, minSupport float64, opts MineOptions) (Spectrum, error) {
	var g gate
	res, err := eclatMineIndexed(ix, minSupport, opts.Workers, &g, densifyK)
	if err != nil {
		return Spectrum{}, err
	}
	return Spectrum{Counts: g.spectrum, N: res.N}, nil
}
