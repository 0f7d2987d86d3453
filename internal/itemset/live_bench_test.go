package itemset

import (
	"fmt"
	"testing"

	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/randx"
)

// liveBenchTxs draws n ingredient-like transactions (universe 300,
// length 3..10, duplicate-free within a transaction).
func liveBenchTxs(src *randx.Source, n int) [][]ingredient.ID {
	txs := make([][]ingredient.ID, n)
	for i := range txs {
		txs[i] = tx(src.SampleInts(300, 3+src.Intn(8))...)
	}
	return txs
}

// BenchmarkLiveAppend measures the steady-state cost of one
// append+delete churn step at several corpus sizes. The O(delta)
// contract is the acceptance criterion: ns/op must stay flat as the
// corpus grows 64×; an accidental O(n) write path shows up as a
// corpus-proportional slope across the size points.
func BenchmarkLiveAppend(b *testing.B) {
	for _, base := range []int{1000, 8000, 64000} {
		b.Run(fmt.Sprintf("corpus=%d", base), func(b *testing.B) {
			src := randx.New(20260811)
			li := NewLiveIndex()
			ids, err := li.Append(liveBenchTxs(src, base))
			if err != nil {
				b.Fatal(err)
			}
			pool := liveBenchTxs(src, 1024)
			batch := make([][]ingredient.ID, 1)
			oldest := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch[0] = pool[i%len(pool)]
				newIDs, err := li.Append(batch)
				if err != nil {
					b.Fatal(err)
				}
				if err := li.Delete(ids[oldest : oldest+1]); err != nil {
					b.Fatal(err)
				}
				ids = append(ids, newIDs[0])
				oldest++
			}
		})
	}
}

// BenchmarkMineWarmUnderWrites is the write-stream serving benchmark:
// each op is one append + one delete + a fresh epoch snapshot + a warm
// indexed mine — the full latency of a query that must observe the
// latest write. The snapshot rebuild is the dominant O(corpus) term;
// the number contrasts with BenchmarkMineWarmIndex (reads between
// writes are memoized) and is alloc-gated in CI.
func BenchmarkMineWarmUnderWrites(b *testing.B) {
	src := randx.New(20260812)
	li := NewLiveIndex()
	ids, err := li.Append(liveBenchTxs(src, 4096))
	if err != nil {
		b.Fatal(err)
	}
	pool := liveBenchTxs(src, 1024)
	batch := make([][]ingredient.ID, 1)
	oldest := 0
	step := func(i int) error {
		batch[0] = pool[i%len(pool)]
		newIDs, err := li.Append(batch)
		if err != nil {
			return err
		}
		if err := li.Delete(ids[oldest : oldest+1]); err != nil {
			return err
		}
		ids = append(ids, newIDs[0])
		oldest++
		if _, err := eclatRun.indexed(li.Snapshot(), 0.05); err != nil {
			return err
		}
		return nil
	}
	// One warm-up step so the timed region starts from steady state.
	if err := step(0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := step(i); err != nil {
			b.Fatal(err)
		}
	}
}
