package corpusstore

import (
	"bytes"
	"sync"
	"testing"

	"cuisinevol/internal/ingest"
	"cuisinevol/internal/synth"
)

// benchInput is a ≥100k-record raw JSONL file rendered once per test
// binary: the full synthetic corpus, rawified back into noisy scraped
// records (aliases, quantities, descriptors), then serialized. Both
// benchmarks parse the exact same bytes.
var benchInput struct {
	once    sync.Once
	data    []byte
	records int
}

func benchJSONL(b *testing.B) ([]byte, int) {
	benchInput.once.Do(func() {
		cfg := synth.DefaultConfig(42)
		cfg.RecipeScale = 0.7
		corpus, err := synth.Generate(cfg)
		if err != nil {
			b.Fatalf("generating benchmark corpus: %v", err)
		}
		raws := ingest.Rawify(corpus, 7)
		var buf bytes.Buffer
		if err := ingest.WriteRawJSONL(&buf, raws); err != nil {
			b.Fatalf("serializing benchmark records: %v", err)
		}
		benchInput.data = buf.Bytes()
		benchInput.records = len(raws)
	})
	if benchInput.records < 100_000 {
		b.Fatalf("benchmark input has %d records, want >= 100000", benchInput.records)
	}
	return benchInput.data, benchInput.records
}

// BenchmarkImportStreamJSONL measures the streaming importer: records
// flow one at a time from the reader through resolution into the
// corpus, so live memory is the output corpus plus one record.
func BenchmarkImportStreamJSONL(b *testing.B) {
	data, records := benchJSONL(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Import(bytes.NewReader(data), ImportOptions{
			Format:        FormatJSONL,
			MaxTotalBytes: -1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.RawRecipes != records {
			b.Fatalf("saw %d records, want %d", res.Stats.RawRecipes, records)
		}
	}
}

// BenchmarkImportSlurpJSONL is the baseline the streaming path exists
// to beat on memory: materialize every raw record ([]RawRecipe with all
// its mention strings) before resolving any of them. Same input, same
// output corpus — compare B/op and allocs/op against
// BenchmarkImportStreamJSONL for the bounded-memory claim.
func BenchmarkImportSlurpJSONL(b *testing.B) {
	data, records := benchJSONL(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raws, err := ingest.ReadRawJSONL(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		_, stats, err := ingest.Ingest(raws, ingest.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if stats.RawRecipes != records {
			b.Fatalf("saw %d records, want %d", stats.RawRecipes, records)
		}
	}
}

// BenchmarkRegistryAppend times one served append: a one-record JSONL
// append onto a registered parent, then Register of the child. The
// child is deleted inside the loop so every iteration registers new
// content. "lineage" is a ~700-recipe parent, the size of an
// append_reads lineage; "paper" is the 158k-recipe paper-scale corpus.
func BenchmarkRegistryAppend(b *testing.B) {
	record := []byte(`{"title":"bench dish","region":"JPN","ingredients":["rice","soy sauce","ginger","scallion"]}` + "\n")
	for _, bc := range []struct {
		name  string
		scale float64
	}{
		{"lineage", 0.0045},
		{"paper", 1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := synth.DefaultConfig(42)
			cfg.RecipeScale = bc.scale
			parent, err := synth.Generate(cfg)
			if err != nil {
				b.Fatal(err)
			}
			reg, err := NewRegistry(NewMemStore(0), nil)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := reg.Register("bench", parent); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Append(parent, bytes.NewReader(record), ImportOptions{Format: FormatJSONL})
				if err != nil {
					b.Fatal(err)
				}
				if res.Stats.Accepted != 1 {
					b.Fatalf("append accepted %d records, want 1", res.Stats.Accepted)
				}
				info, err := reg.Register("bench", res.Corpus)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := reg.Delete(info.Ref()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(parent.Len()), "parent_recipes")
		})
	}
}
