package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"cuisinevol/internal/evomodel"
)

// goldenFig4Path is the committed Fig 4 reference, relative to this
// package. The shared -update flag (see golden_test.go) blesses it.
// The pin exists to make simulation-kernel swaps provably
// output-neutral: the arena kernel, worker budgets and GOMAXPROCS must
// all reproduce these bytes exactly.
const goldenFig4Path = "../../results/golden_fig4.json"

// goldenFig4Row pins one cuisine's model comparison.
type goldenFig4Row struct {
	Region string             `json:"region"`
	MAE    map[string]float64 `json:"mae"`
	Best   string             `json:"best"`
}

// goldenFig4Panel pins one Fig 4 variant (ingredient combinations, or
// the §VI category control): the per-cuisine scores plus every
// empirical and model rank-frequency curve.
type goldenFig4Panel struct {
	NullWorstEverywhere bool            `json:"null_worst_everywhere"`
	Rows                []goldenFig4Row `json:"rows"`
	Empirical           []goldenDist    `json:"empirical"`
	Models              []goldenDist    `json:"models"`
}

// goldenFig4Doc is the pinned Fig 4 document.
type goldenFig4Doc struct {
	Seed        uint64          `json:"seed"`
	RecipeScale float64         `json:"recipe_scale"`
	Replicates  int             `json:"replicates"`
	Regions     []string        `json:"regions"`
	Ingredients goldenFig4Panel `json:"ingredients"`
	Categories  goldenFig4Panel `json:"categories"`
}

// computeGoldenFig4Bytes runs the Fig 4 pipeline (both the ingredient
// comparison and the category control) with the given worker budget and
// renders the document in canonical byte form. Every worker budget must
// yield identical bytes.
func computeGoldenFig4Bytes(t *testing.T, workers int) []byte {
	t.Helper()
	cfg := DefaultConfig(42)
	cfg.RecipeScale = 0.05
	cfg.Replicates = 8
	cfg.Workers = workers
	regions := []string{"ITA", "JPN", "KOR"}

	pin := func(categories bool) goldenFig4Panel {
		res, err := RunFig4Ctx(context.Background(), cfg, Fig4Options{Regions: regions, Categories: categories})
		if err != nil {
			t.Fatal(err)
		}
		panel := goldenFig4Panel{NullWorstEverywhere: res.NullWorstEverywhere}
		for _, row := range res.Rows {
			mae := make(map[string]float64, len(row.MAE))
			for kind, v := range row.MAE {
				mae[kind.String()] = v
			}
			panel.Rows = append(panel.Rows, goldenFig4Row{
				Region: row.Region,
				MAE:    mae,
				Best:   row.Best.String(),
			})
		}
		for _, code := range regions {
			panel.Empirical = append(panel.Empirical, goldenDist{
				Label: code,
				Freqs: res.Empirical[code].Freqs,
			})
			for _, kind := range evomodel.Kinds() {
				panel.Models = append(panel.Models, goldenDist{
					Label: code + "/" + kind.String(),
					Freqs: res.Models[code][kind].Freqs,
				})
			}
		}
		return panel
	}

	doc := goldenFig4Doc{
		Seed:        cfg.Seed,
		RecipeScale: cfg.RecipeScale,
		Replicates:  cfg.Replicates,
		Regions:     regions,
		Ingredients: pin(false),
		Categories:  pin(true),
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestGoldenFig4 pins the Fig 4 rank-frequency output byte for byte
// against the committed reference. Run with -update to bless an
// intentional change.
func TestGoldenFig4(t *testing.T) {
	got := computeGoldenFig4Bytes(t, 0)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenFig4Path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFig4Path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file updated (%d bytes)", len(got))
		return
	}
	want, err := os.ReadFile(goldenFig4Path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output drifted from %s (regenerate with -update if intended)\ngot %d bytes, want %d",
			goldenFig4Path, len(got), len(want))
	}

	var doc goldenFig4Doc
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Ingredients.Rows) != len(doc.Regions) || len(doc.Categories.Rows) != len(doc.Regions) {
		t.Fatalf("golden document covers %d+%d rows, want %d per panel",
			len(doc.Ingredients.Rows), len(doc.Categories.Rows), len(doc.Regions))
	}
	for _, row := range doc.Ingredients.Rows {
		if row.Best == evomodel.NullModel.String() {
			t.Errorf("%s: null model best on ingredient combinations contradicts the paper", row.Region)
		}
	}
}

// TestGoldenFig4StableAcrossWorkersAndParallelism recomputes the Fig 4
// document under several worker budgets and GOMAXPROCS=1, asserting the
// bytes never move: replicate scheduling and machine-pool reuse are
// performance knobs, never output knobs.
func TestGoldenFig4StableAcrossWorkersAndParallelism(t *testing.T) {
	base := computeGoldenFig4Bytes(t, 0)
	for _, workers := range []int{1, 2, 8} {
		if got := computeGoldenFig4Bytes(t, workers); !bytes.Equal(base, got) {
			t.Fatalf("Workers=%d changed the output", workers)
		}
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	if got := computeGoldenFig4Bytes(t, 0); !bytes.Equal(base, got) {
		t.Fatal("GOMAXPROCS=1 changed the output")
	}
}
