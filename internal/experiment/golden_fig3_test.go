package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// goldenFig3Path is the committed Fig 3 reference, relative to this
// package. The shared -update flag (see golden_test.go) blesses it.
const goldenFig3Path = "../../results/golden_fig3.json"

// Paper-reported off-diagonal Eq 2 means for Fig 3's pairwise matrices.
// The synthetic corpus is more invariant than the scraped one (its
// means land well below these), so the values are recorded in the
// golden document as the calibration reference and asserted only as an
// upper band: Fig 3's claim is that cuisines share near-identical
// rank-frequency shapes, so a mean drifting above paper + tolerance
// signals broken invariance, not noise.
const (
	paperFig3aMeanMAE = 0.035
	paperFig3bMeanMAE = 0.052
	paperMAETolerance = 0.05
)

// goldenDist is one pinned rank-frequency curve.
type goldenDist struct {
	Label string    `json:"label"`
	Freqs []float64 `json:"freqs"`
}

// goldenFig3Panel pins one Fig 3 panel: every cuisine's curve (plus the
// ALL aggregate), the off-diagonal Eq 2 mean against the paper's value,
// and the distinctiveness ranking.
type goldenFig3Panel struct {
	MeanMAE      float64      `json:"mean_mae"`
	PaperMeanMAE float64      `json:"paper_mean_mae"`
	MostDistinct []string     `json:"most_distinct"`
	Dists        []goldenDist `json:"dists"`
}

// goldenFig3Doc is the pinned Fig 3 document.
type goldenFig3Doc struct {
	Seed        uint64          `json:"seed"`
	RecipeScale float64         `json:"recipe_scale"`
	MinSupport  float64         `json:"min_support"`
	Ingredients goldenFig3Panel `json:"ingredients"`
	Categories  goldenFig3Panel `json:"categories"`
}

// computeGoldenFig3Bytes runs the Fig 3 pipeline with the given worker
// budget and renders the document in canonical byte form. Every worker
// budget must yield identical bytes.
func computeGoldenFig3Bytes(t *testing.T, workers int) []byte {
	t.Helper()
	cfg := DefaultConfig(42)
	cfg.RecipeScale = 0.05
	cfg.Workers = workers
	res, err := RunFig3Ctx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	pin := func(p Fig3Panel, paper float64) goldenFig3Panel {
		out := goldenFig3Panel{
			MeanMAE:      p.MeanMAE,
			PaperMeanMAE: paper,
			MostDistinct: p.MostDistinct,
		}
		for _, d := range p.Dists {
			out.Dists = append(out.Dists, goldenDist{Label: d.Label, Freqs: d.Freqs})
		}
		return out
	}
	doc := goldenFig3Doc{
		Seed:        cfg.Seed,
		RecipeScale: cfg.RecipeScale,
		MinSupport:  0.05,
		Ingredients: pin(res.Ingredients, paperFig3aMeanMAE),
		Categories:  pin(res.Categories, paperFig3bMeanMAE),
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestGoldenFig3 pins the Fig 3a/3b rank-frequency curves and Eq 2
// summaries to the committed reference byte for byte: any drift in the
// corpus, the mining kernels or the rank-frequency normalization fails
// here first. Run with -update to bless an intentional change.
func TestGoldenFig3(t *testing.T) {
	got := computeGoldenFig3Bytes(t, 0)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenFig3Path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFig3Path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file updated (%d bytes)", len(got))
		return
	}
	want, err := os.ReadFile(goldenFig3Path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output drifted from %s (regenerate with -update if intended)\ngot %d bytes, want %d",
			goldenFig3Path, len(got), len(want))
	}

	var doc goldenFig3Doc
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatal(err)
	}
	for _, p := range []struct {
		name  string
		panel goldenFig3Panel
	}{
		{"fig3a", doc.Ingredients},
		{"fig3b", doc.Categories},
	} {
		if p.panel.MeanMAE <= 0 {
			t.Errorf("%s mean MAE %.4f is not positive — degenerate matrix", p.name, p.panel.MeanMAE)
		}
		if limit := p.panel.PaperMeanMAE + paperMAETolerance; p.panel.MeanMAE > limit {
			t.Errorf("%s mean MAE %.4f exceeds the paper's %.4f + %.3f invariance band",
				p.name, p.panel.MeanMAE, p.panel.PaperMeanMAE, paperMAETolerance)
		}
	}
}

// TestGoldenFig3StableAcrossParallelism recomputes the Fig 3 document
// under several worker budgets and GOMAXPROCS=1, asserting the bytes
// never move: scheduling is a performance knob, never an output knob.
// Kernel independence is internal/itemset's differential layer, which
// mines every paper view with every kernel.
func TestGoldenFig3StableAcrossParallelism(t *testing.T) {
	base := computeGoldenFig3Bytes(t, 0)
	for _, workers := range []int{1, 2, 8} {
		if got := computeGoldenFig3Bytes(t, workers); !bytes.Equal(base, got) {
			t.Fatalf("Workers=%d changed the output", workers)
		}
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	if got := computeGoldenFig3Bytes(t, 0); !bytes.Equal(base, got) {
		t.Fatal("GOMAXPROCS=1 changed the output")
	}
}
