package itemset

import "cuisinevol/internal/ingredient"

// MineOptions tunes a Mine call.
type MineOptions struct {
	// Workers > 1 fans the Eclat kernel's top-level prefix partitions
	// over that many scheduler workers; <= 1 mines serially. Only the
	// vertical kernel parallelizes a single mine — the pipelines get
	// their parallelism from fanning out independent mines instead, so
	// they leave this at 0.
	Workers int
}

// Mine mines all frequent itemsets of size >= 1 with relative support
// >= minSupport: a one-shot index build followed by MineIndexed, so
// every kernel mines off the same weighted posting containers.
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
// index's support counts at the requested threshold; no kernel touches
// raw [][]ingredient.ID. Every kernel returns the same canonical Result
// (pinned against raw Apriori by the differential layer).
func MineIndexed(ix *Index, minSupport float64, opts MineOptions) (*Result, error) {
	return mineGated(ix, minSupport, opts, nil)
}

// MineTop returns the first top sets of MineIndexed's Result, and how
// many sets the full Result holds, without building the rest: a count
// gate (see setSink.keep) drops every set that cannot be among the
// first top before the kernel writes it. top <= 0 builds no set.
func MineTop(ix *Index, minSupport float64, top int, opts MineOptions) (res *Result, total int, err error) {
	g := gate{top: max(top, 0)}
	res, err = mineGated(ix, minSupport, opts, &g)
	return res, g.total, err
}

// Spectrum is a mine's rank-frequency spectrum: the counts of its
// Result's sets in Result order, highest first, without the sets.
type Spectrum struct {
	Counts []int
	N      int // transactions mined, the Result's N
}

// MineSpectrum returns the spectrum of MineIndexed's Result. The
// kernels only tally counts into a histogram, which yields the
// descending spectrum with no sort; no set is built.
func MineSpectrum(ix *Index, minSupport float64, opts MineOptions) (Spectrum, error) {
	var g gate
	res, err := mineGated(ix, minSupport, opts, &g)
	if err != nil {
		return Spectrum{}, err
	}
	return Spectrum{Counts: g.spectrum, N: res.N}, nil
}

// kernel names a mining algorithm. The two produce byte-identical
// Results (pinned by the cross-kernel differential tests); they differ
// only in how fast they get there on a given corpus shape.
type kernel uint8

const (
	// kernelFPGrowth is the flat-memory FP-tree kernel, the fallback
	// for large or sparse corpora.
	kernelFPGrowth kernel = iota
	// kernelEclat is the vertical kernel, fastest on dense short
	// transactions over a modest item universe.
	kernelEclat
)

// mineGated runs the kernel the index chooses for itself (see
// Index.chooseKernel), the one place a mine's kernel is picked; a nil
// gate mines the full Result.
func mineGated(ix *Index, minSupport float64, opts MineOptions, g *gate) (*Result, error) {
	if ix.chooseKernel() == kernelEclat {
		return eclatMineIndexed(ix, minSupport, opts.Workers, g)
	}
	return fpGrowthIndexed(ix, minSupport, g)
}

// Adaptive-selection thresholds (see DESIGN.md §10). The vertical
// kernel's cost is bitmap words × items: it wins while the item
// universe is modest and the columns are dense enough that popcount
// sweeps do real work per word; past these bounds the FP-tree's
// prefix sharing wins.
const (
	// maxEclatDistinct bounds the distinct-item count: above it the
	// per-item bitmaps outgrow cache and the tree wins.
	maxEclatDistinct = 4096
	// maxEclatTxs bounds the transaction count, capping worst-case
	// bitmap memory at maxEclatDistinct × maxEclatTxs/64 words.
	maxEclatTxs = 1 << 20
	// minEclatDensity is the minimum average column density
	// (occurrences / (transactions × distinct items)): below ~1 set bit
	// per word the AND sweeps are mostly zero work.
	minEclatDensity = 1.0 / 64
	// minEclatCompressedShare is the container-aware relaxation of the
	// density bound: a corpus too sparse for dense sweeps still
	// mines well vertically when at least this fraction of its items
	// sit in array/run containers, because galloping intersections cost
	// per posting, not per bitmap word. Inclusive edge, pinned one off
	// each side by TestChooseKernelCompressedShareBoundary.
	minEclatCompressedShare = 0.75
)
