package itemset

import (
	"reflect"
	"testing"

	"cuisinevol/internal/ingredient"
)

// Boundary corpora of the shape rule that once sent some indexes to a
// second kernel, FP-Growth: more than edgeDistinct distinct items or
// edgeTxs transactions, or a column density under edgeDensity with
// less than edgeCompressedShare of the postings in array or run
// containers. The rule and that kernel are gone, so nothing here checks
// a choice; the tests keep the rule's name because their corpora sit
// exactly on (or one off) one of its edges, the shapes where the two
// kernels split the traffic. Eclat, on one worker and on four, must
// match the Apriori oracle on each. Construction notes:
// density = totalOccurrences / (n × distinct) = meanTxSize / distinct,
// and a transaction's subsets must never all become frequent when the
// transaction is wide (a frequent 64-item transaction means 2^64
// itemsets).
const (
	edgeDistinct        = 4096
	edgeTxs             = 1 << 20
	edgeDensity         = 1.0 / 64
	edgeCompressedShare = 0.75
)

// distinctBoundaryCorpus has exactly `distinct` distinct items: a
// frequent 8-item core duplicated 32 times plus wide one-off filler
// transactions packing the remaining IDs densely enough to keep column
// density above 1/64. At minSupport 0.3 only the core's 255 subsets
// are frequent, so mining stays cheap.
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
	at := distinctBoundaryCorpus(edgeDistinct)
	over := distinctBoundaryCorpus(edgeDistinct + 1)
	ixAt, ixOver := mustIndex(t, at), mustIndex(t, over)
	if ixAt.DistinctItems() != edgeDistinct || ixOver.DistinctItems() != edgeDistinct+1 {
		t.Fatalf("distinct items %d and %d, want %d and %d", ixAt.DistinctItems(), ixOver.DistinctItems(), edgeDistinct, edgeDistinct+1)
	}
	eclatMatchesApriori(t, ixAt, at, 0.3, "distinct-at")
	eclatMatchesApriori(t, ixOver, over, 0.3, "distinct-over")
}

func TestChooseKernelTxCountBoundary(t *testing.T) {
	// Single-item transactions sharing one backing slice: n is the only
	// statistic that moves across the edge (distinct = 1, density = 1).
	one := []ingredient.ID{1}
	txs := make([][]ingredient.ID, edgeTxs+1)
	for i := range txs {
		txs[i] = one
	}
	ixAt, ixOver := mustIndex(t, txs[:edgeTxs]), mustIndex(t, txs)
	eclatMatchesApriori(t, ixAt, txs[:edgeTxs], 0.5, "txcount-at")
	eclatMatchesApriori(t, ixOver, txs, 0.5, "txcount-over")
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
	// Every item here appears in exactly one transaction, so the whole
	// posting mix is array containers.
	if st := ixUnder.ContainerStats(); st.Arrays != 4096 || st.Bitsets != 0 || st.Runs != 0 {
		t.Fatalf("under: container mix %+v, want all arrays", st)
	}
	// Disjoint transactions: nothing reaches a 0.5 threshold, but Eclat
	// must agree with Apriori on that emptiness too.
	eclatMatchesApriori(t, ixAt, at, 0.5, "density-at")
	eclatMatchesApriori(t, ixUnder, under, 0.5, "density-under")
}

// compressedShareBoundaryCorpus engineers a posting mix sitting exactly
// on the edgeCompressedShare edge. 192 transactions over 256 items:
// items 0–63 each hit 7 transactions spread ≡ 0 (mod 3) so their
// tidsets have 7 runs over words = 3 — bitset wins (cost 6 uint32s vs 7
// array, 14 run) — while item 64+t appears only in transaction t, a
// cardinality-1 array container. Share = 192/256 = 0.75 exactly, and
// density 640/(192·256) sits under edgeDensity, so the posting mix
// alone decided on both sides of the edge. Dropping the last
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
	// Both corpora sit below the density bound, so the posting mix is
	// the only statistic on the edge here.
	if densityClears(ixAt) || densityClears(ixUnder) {
		t.Fatal("share corpora clear the density bound; the share edge is untested")
	}
	if st := ixAt.ContainerStats(); st.Bitsets != 64 || st.Arrays != 192 || st.Runs != 0 {
		t.Fatalf("at: container mix %+v, want 64 bitsets + 192 arrays", st)
	}
	if st := ixUnder.ContainerStats(); st.Bitsets != 64 || st.Arrays != 191 || st.Runs != 0 {
		t.Fatalf("under: container mix %+v, want 64 bitsets + 191 arrays", st)
	}
	eclatMatchesApriori(t, ixAt, at, 0.03, "share-at")
	eclatMatchesApriori(t, ixUnder, under, 0.03, "share-under")
}

// eclatMatchesApriori mines ix, and txs through Mine, with every run
// of eclatRuns and fails the test unless each Result is the Apriori
// oracle's, in canonical order; MineTop and MineSpectrum off ix must
// agree with it too.
func eclatMatchesApriori(t *testing.T, ix *Index, txs [][]ingredient.ID, minSupport float64, label string) {
	t.Helper()
	base, err := Apriori(txs, minSupport)
	if err != nil {
		t.Fatalf("%s: apriori: %v", label, err)
	}
	for _, k := range eclatRuns {
		indexed, err := k.indexed(ix, minSupport)
		if err != nil {
			t.Fatalf("%s: indexed %v: %v", label, k, err)
		}
		if indexed.N != base.N || !reflect.DeepEqual(base.Sets, indexed.Sets) {
			t.Fatalf("%s: indexed %v diverges from apriori", label, k)
		}
		mined, err := k.mine(txs, minSupport)
		if err != nil {
			t.Fatalf("%s: Mine %v: %v", label, k, err)
		}
		if mined.N != base.N || !reflect.DeepEqual(base.Sets, mined.Sets) {
			t.Fatalf("%s: Mine %v diverges from apriori", label, k)
		}
	}
	assertGatedMines(t, ix, minSupport, base, []int{1, 25}, label)
}

// densityClears reports whether the index's column density reaches
// edgeDensity, so each boundary test can check that its corpus sits on
// the edge it names.
func densityClears(ix *Index) bool {
	return float64(ix.TotalOccurrences()) >= edgeDensity*float64(ix.N())*float64(ix.DistinctItems())
}
