package itemset

import (
	"reflect"
	"testing"

	"cuisinevol/internal/ingredient"
)

// Boundary corpora for the adaptive-kernel thresholds. Each corpus is
// engineered to sit exactly on (or one off) a single threshold edge
// while keeping the other two statistics safely inside Eclat territory,
// so a test failure names the edge that moved. Construction notes:
// density = totalOccurrences / (n × distinct) = meanTxSize / distinct,
// and a transaction's subsets must never all become frequent when the
// transaction is wide (a frequent 64-item transaction means 2^64
// itemsets).

// distinctBoundaryCorpus has exactly `distinct` distinct items: a
// frequent 8-item core duplicated 32 times plus wide one-off filler
// transactions packing the remaining IDs densely enough to keep column
// density above 1/64. At minSupport 0.3 only the core's 255 subsets
// are frequent, so forced-kernel mining stays cheap.
func distinctBoundaryCorpus(distinct int) [][]ingredient.ID {
	var txs [][]ingredient.ID
	core := make([]ingredient.ID, 8)
	for i := range core {
		core[i] = ingredient.ID(i)
	}
	for i := 0; i < 32; i++ {
		txs = append(txs, core)
	}
	// Filler: IDs [8, distinct) in one-off transactions of 128 items.
	for lo := 8; lo < distinct; lo += 128 {
		hi := lo + 128
		if hi > distinct {
			hi = distinct
		}
		f := make([]ingredient.ID, 0, hi-lo)
		for id := lo; id < hi; id++ {
			f = append(f, ingredient.ID(id))
		}
		txs = append(txs, f)
	}
	return txs
}

func TestChooseKernelDistinctBoundary(t *testing.T) {
	at := distinctBoundaryCorpus(maxEclatDistinct)
	over := distinctBoundaryCorpus(maxEclatDistinct + 1)
	ixAt, ixOver := mustIndex(t, at), mustIndex(t, over)
	if got := ixAt.chooseKernel(); got != kernelEclat {
		t.Fatalf("distinct = max: %v, want eclat", got)
	}
	if got := ixOver.chooseKernel(); got != kernelFPGrowth {
		t.Fatalf("distinct = max+1: %v, want fpgrowth", got)
	}
	// Forced kernels must agree on the result on both sides of the edge.
	forcedKernelsAgree(t, ixAt, at, 0.3, "distinct-at")
	forcedKernelsAgree(t, ixOver, over, 0.3, "distinct-over")
}

func TestChooseKernelTxCountBoundary(t *testing.T) {
	// Single-item transactions sharing one backing slice: n is the only
	// statistic that moves across the edge (distinct = 1, density = 1).
	one := []ingredient.ID{1}
	txs := make([][]ingredient.ID, maxEclatTxs+1)
	for i := range txs {
		txs[i] = one
	}
	ixAt, ixOver := mustIndex(t, txs[:maxEclatTxs]), mustIndex(t, txs)
	if got := ixAt.chooseKernel(); got != kernelEclat {
		t.Fatalf("n = max: %v, want eclat", got)
	}
	if got := ixOver.chooseKernel(); got != kernelFPGrowth {
		t.Fatalf("n = max+1: %v, want fpgrowth", got)
	}
	forcedKernelsAgree(t, ixAt, txs[:maxEclatTxs], 0.5, "txcount-at")
	forcedKernelsAgree(t, ixOver, txs, 0.5, "txcount-over")
}

func TestChooseKernelDensityBoundary(t *testing.T) {
	// 64 disjoint 64-item transactions over 4096 items: density is
	// exactly 1/64 (the edge is inclusive — the check is density < min),
	// with distinct sitting exactly at its own edge too. Appending one
	// empty transaction drops density to 1/65 without touching distinct.
	var at [][]ingredient.ID
	for lo := 0; lo < 4096; lo += 64 {
		f := make([]ingredient.ID, 64)
		for i := range f {
			f[i] = ingredient.ID(lo + i)
		}
		at = append(at, f)
	}
	under := append(append([][]ingredient.ID{}, at...), []ingredient.ID{})
	ixAt, ixUnder := mustIndex(t, at), mustIndex(t, under)
	if !densityClears(ixAt) {
		t.Fatal("density = 1/64: below the density bound, want exactly on it")
	}
	if densityClears(ixUnder) {
		t.Fatal("density = 1/65: clears the density bound, want one off under")
	}
	if got := ixAt.chooseKernel(); got != kernelEclat {
		t.Fatalf("density = 1/64: %v, want eclat", got)
	}
	// Under the density bound the posting mix decides: every item here
	// appears in exactly one transaction, so the whole mix is array
	// containers and the compressed-share rule keeps Eclat.
	if st := ixUnder.ContainerStats(); st.Arrays != 4096 || st.Bitsets != 0 || st.Runs != 0 {
		t.Fatalf("under: container mix %+v, want all arrays", st)
	}
	if got := ixUnder.chooseKernel(); got != kernelEclat {
		t.Fatalf("density = 1/65: %v, want eclat (compressed-share rule)", got)
	}
	// Disjoint transactions: nothing reaches a 0.5 threshold, but the
	// kernels must agree on that emptiness too.
	forcedKernelsAgree(t, ixAt, at, 0.5, "density-at")
	forcedKernelsAgree(t, ixUnder, under, 0.5, "density-under")
}

// compressedShareBoundaryCorpus engineers a posting mix sitting exactly
// on the minEclatCompressedShare edge. 192 transactions over 256 items:
// items 0–63 each hit 7 transactions spread ≡ 0 (mod 3) so their
// tidsets have 7 runs over words = 3 — bitset wins (cost 6 uint32s vs 7
// array, 14 run) — while item 64+t appears only in transaction t, a
// cardinality-1 array container. Share = 192/256 = 0.75 exactly, and
// density 640/(192·256) sits under minEclatDensity, so the posting mix
// alone decides on both sides of the edge. Dropping the last
// transaction (drop=true) removes one array item and no bitset members
// (191 is not a multiple of 3): share slips to 191/255, one off under.
func compressedShareBoundaryCorpus(drop bool) [][]ingredient.ID {
	const n, dense = 192, 64
	members := make([][]ingredient.ID, n)
	for j := 0; j < dense; j++ {
		for s := 0; s < 7; s++ {
			members[(3*(j+9*s))%n] = append(members[(3*(j+9*s))%n], ingredient.ID(j))
		}
	}
	last := n
	if drop {
		last = n - 1
	}
	txs := make([][]ingredient.ID, 0, last)
	for t := 0; t < last; t++ {
		tx := append([]ingredient.ID{}, members[t]...) // ascending: filled in j order
		txs = append(txs, append(tx, ingredient.ID(dense+t)))
	}
	return txs
}

func TestChooseKernelCompressedShareBoundary(t *testing.T) {
	at := compressedShareBoundaryCorpus(false)
	under := compressedShareBoundaryCorpus(true)
	ixAt, ixUnder := mustIndex(t, at), mustIndex(t, under)
	// Both corpora sit below the density bound, so the container-aware
	// branch is the only thing deciding here.
	if densityClears(ixAt) || densityClears(ixUnder) {
		t.Fatal("share corpora clear the density bound; the share edge is untested")
	}
	if st := ixAt.ContainerStats(); st.Bitsets != 64 || st.Arrays != 192 || st.Runs != 0 {
		t.Fatalf("at: container mix %+v, want 64 bitsets + 192 arrays", st)
	}
	if got := ixAt.chooseKernel(); got != kernelEclat {
		t.Fatalf("share = 0.75 exactly: indexed %v, want eclat (edge is inclusive)", got)
	}
	if st := ixUnder.ContainerStats(); st.Bitsets != 64 || st.Arrays != 191 || st.Runs != 0 {
		t.Fatalf("under: container mix %+v, want 64 bitsets + 191 arrays", st)
	}
	if got := ixUnder.chooseKernel(); got != kernelFPGrowth {
		t.Fatalf("share = 191/255: indexed %v, want fpgrowth (one off under)", got)
	}
	// The flip never affects results, only speed.
	forcedKernelsAgree(t, ixAt, at, 0.03, "share-at")
	forcedKernelsAgree(t, ixUnder, under, 0.03, "share-under")
}

// forcedKernelsAgree pins result equality across explicitly forced
// kernels at a boundary corpus — the auto heuristic may flip here by
// design, so equality of forced runs is what proves the flip harmless.
func forcedKernelsAgree(t *testing.T, ix *Index, txs [][]ingredient.ID, minSupport float64, label string) {
	t.Helper()
	base, err := Apriori(txs, minSupport)
	if err != nil {
		t.Fatalf("%s: apriori: %v", label, err)
	}
	for _, k := range []kernelRun{fpRun, eclatRun} {
		indexed, err := k.indexed(ix, minSupport)
		if err != nil {
			t.Fatalf("%s: indexed %v: %v", label, k, err)
		}
		if !reflect.DeepEqual(base.Sets, indexed.Sets) {
			t.Fatalf("%s: indexed %v diverges from apriori", label, k)
		}
		mined, err := k.mine(txs, minSupport)
		if err != nil {
			t.Fatalf("%s: Mine %v: %v", label, k, err)
		}
		if !reflect.DeepEqual(base.Sets, mined.Sets) {
			t.Fatalf("%s: Mine %v diverges from apriori", label, k)
		}
	}
}

// densityClears reports whether the index's column density reaches
// minEclatDensity — the dense-sweep bound, evaluated independently of
// chooseKernel so each boundary test names the statistic it moves.
func densityClears(ix *Index) bool {
	return float64(ix.TotalOccurrences()) >= minEclatDensity*float64(ix.N())*float64(ix.DistinctItems())
}
