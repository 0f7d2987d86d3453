package server

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"cuisinevol/internal/corpusstore"
	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/itemset"
	"cuisinevol/internal/kit"
	"cuisinevol/internal/recipe"
)

var updateGolden = flag.Bool("update", false, "regenerate the testdata/*.golden files")

// metricsGoldenPath is the committed /metrics exposition, relative to
// this package.
const metricsGoldenPath = "testdata/metrics.golden"

// TestMetricsExpositionGolden pins the whole /metrics exposition byte
// for byte: family order, HELP text, TYPE lines, label order and value
// formatting. Every source is driven by fixed operations chosen so that
// neighbouring families read different values wherever their source
// allows it, so a family wired to the wrong counter changes the bytes.
// Regenerate with `go test ./internal/server -run MetricsExpositionGolden -update`.
func TestMetricsExpositionGolden(t *testing.T) {
	m := newMetrics()
	for _, o := range []struct {
		endpoint string
		status   int
		seconds  float64
	}{
		{"mine", 200, 0.0004},
		{"mine", 200, 0.003},
		{"mine", 304, 0.02},
		{"mine", 400, 0.0009},
		{"fig4", 200, 7.5},
		{"fig4", 503, 0.25},
		{"fig4", 504, 400},
	} {
		m.observe(o.endpoint, o.status, o.seconds)
	}
	for i, c := range []*atomic.Uint64{
		&m.coalesced, &m.computations,
		&m.liveAppends, &m.liveAppendedTx, &m.liveSeeds, &m.liveSnapshots,
		&m.peerProxied, &m.peerFallback, &m.peerFallbackShed, &m.peerRingMoves,
		&m.peerSnapshotSaves, &m.peerSnapshotLoads, &m.peerSnapshotLoadErrors, &m.peerSnapshotEntries,
		&m.shedComputations, &m.deadlineTimeouts,
	} {
		c.Add(uint64(1001 + i))
	}
	m.inflight.Add(2001)
	m.waiting.Add(2002)
	for f := range m.chaosInjected {
		m.chaosInjected[f].Add(uint64(3001 + f))
	}

	var buf bytes.Buffer
	if err := m.WriteTo(&buf, goldenResultCache(), goldenIndexCache(t), goldenRegistry(t), goldenLiveHeads(t)); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()
	if *updateGolden {
		if err := os.WriteFile(metricsGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(metricsGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("exposition differs from %s at line %d:\n got: %s\nwant: %s", metricsGoldenPath, i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("exposition has %d lines, %s has %d", len(gotLines), metricsGoldenPath, len(wantLines))
	}
}

// goldenResultCache reads 7 hits, 8 misses, 9 evictions, 20 bytes and
// 10 entries: 19 two-byte puts into a 20-byte budget.
func goldenResultCache() *kit.LRU[[]byte] {
	cache := kit.NewLRU[[]byte](20)
	for i := 0; i < 19; i++ {
		cache.Put(fmt.Sprintf("k%d", i), []byte("ab"), 2)
	}
	for i := 0; i < 7; i++ {
		cache.Get("k18")
	}
	for i := 0; i < 8; i++ {
		cache.Get("k0")
	}
	return cache
}

// goldenTxs is a transaction database whose postings take every
// container kind: item 1 covers one contiguous block of transactions
// (a run), item 2 every other transaction (a bitset), item 3 three
// scattered ones (an array) and item 4 a second block (another run, so
// the run and bitset totals differ). Item 10+i keeps transaction i
// unique.
func goldenTxs(n int) [][]ingredient.ID {
	txs := make([][]ingredient.ID, n)
	for i := range txs {
		var tx []ingredient.ID
		if i < n/8 {
			tx = append(tx, 1)
		}
		if i%2 == 0 {
			tx = append(tx, 2)
		}
		if i == 3 || i == n/2 || i == n-3 {
			tx = append(tx, 3)
		}
		if i >= n-n/8 {
			tx = append(tx, 4)
		}
		txs[i] = append(tx, ingredient.ID(10+i))
	}
	return txs
}

// goldenIndexCache builds four indexes under a byte budget that evicts
// two of them, serves five hits, inserts a snapshot-style index with Put
// and invalidates its fingerprint.
func goldenIndexCache(t *testing.T) *itemset.IndexCache {
	t.Helper()
	sizes := []int{96, 160, 224}
	var budget int64
	for _, n := range sizes[1:] {
		ix, err := itemset.BuildIndex(goldenTxs(n))
		if err != nil {
			t.Fatal(err)
		}
		budget += ix.Bytes()
	}
	small, err := itemset.BuildIndex(goldenTxs(8))
	if err != nil {
		t.Fatal(err)
	}
	budget += small.Bytes()
	indexes := itemset.NewIndexCache(budget)
	for i, n := range sizes {
		n := n
		if _, err := indexes.Get(fmt.Sprintf("fp%d|ALL", i), func() ([][]ingredient.ID, error) { return goldenTxs(n), nil }); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if _, err := indexes.Get("fp2|ALL", nil); err != nil {
			t.Fatal(err)
		}
	}
	indexes.Put("fp9|ITA", small)
	if _, err := indexes.Get("fp3|ALL", func() ([][]ingredient.ID, error) { return goldenTxs(8), nil }); err != nil {
		t.Fatal(err)
	}
	indexes.InvalidateFingerprint("fp9")
	return indexes
}

// goldenCorpus is a corpus of n distinct one-region recipes.
func goldenCorpus(n int) *recipe.Corpus {
	c := recipe.NewCorpus(ingredient.Builtin())
	for i := 0; i < n; i++ {
		c.MustAdd(recipe.Recipe{Region: "ITA", Ingredients: []ingredient.ID{ingredient.ID(i), ingredient.ID(i + 1)}})
	}
	return c
}

// goldenRegistry is a registry reopened over a store that already holds
// three corpora: 2 loads (one of them a missing fingerprint), 3 memo
// hits, 2 misses, 4 puts and 1 delete, leaving 5 corpora memoized and 6
// stored.
func goldenRegistry(t *testing.T) *corpusstore.Registry {
	t.Helper()
	store := corpusstore.NewMemStore(0)
	seed, err := corpusstore.NewRegistry(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"a", "b", "c"} {
		if _, err := seed.Register(name, goldenCorpus(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	reg, err := corpusstore.NewRegistry(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, _, err := reg.Resolve("a"); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := reg.Resolve(strings.Repeat("0", 32)); err == nil {
		t.Fatal("missing fingerprint resolved")
	}
	for i, name := range []string{"d", "e", "f", "g"} {
		if _, err := reg.Register(name, goldenCorpus(i+4)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := reg.Delete("c"); err != nil {
		t.Fatal(err)
	}
	return reg
}

// goldenLiveHeads retains two live heads at epochs 3 and 4.
func goldenLiveHeads(t *testing.T) *kit.LRU[*itemset.LiveIndex] {
	t.Helper()
	live := kit.NewLRU[*itemset.LiveIndex](8)
	for i, epochs := range []int{3, 4} {
		li := itemset.NewLiveIndex()
		for e := 0; e < epochs; e++ {
			if _, err := li.Append([][]ingredient.ID{{ingredient.ID(e)}}); err != nil {
				t.Fatal(err)
			}
		}
		live.Put(fmt.Sprintf("head%d", i), li, 1)
	}
	return live
}
