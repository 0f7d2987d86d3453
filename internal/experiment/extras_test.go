package experiment

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cuisinevol/internal/evomodel"
	"cuisinevol/internal/flavor"
	"cuisinevol/internal/ingredient"
)

func TestRunPairing(t *testing.T) {
	cfg := testConfig(t, true)
	profile, err := flavor.Generate(flavor.DefaultConfig(cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunPairing(cfg, profile, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 25 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.RealMean <= 0 || row.RandMean <= 0 {
			t.Fatalf("degenerate pairing row: %+v", row)
		}
	}
	if res.PositiveCount+res.NegativeCount == 0 {
		t.Fatal("no significant pairing verdicts at all")
	}
	if _, err := os.Stat(filepath.Join(cfg.OutDir, "pairing.csv")); err != nil {
		t.Fatal("pairing.csv missing")
	}
}

func TestRunHorizontalSweep(t *testing.T) {
	cfg := testConfig(t, true)
	res, err := RunHorizontalSweep(cfg, evomodel.CMRandom, []string{"ITA", "JPN"}, []float64{0, 0.3, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	if !res.Monotone {
		t.Fatalf("homogenization not monotone: %+v", res.Points)
	}
	if res.Points[0].UsageTV <= res.Points[2].UsageTV {
		t.Fatal("migration did not reduce usage distance")
	}
	if _, err := os.Stat(filepath.Join(cfg.OutDir, "horizontal_sweep.csv")); err != nil {
		t.Fatal("horizontal_sweep.csv missing")
	}
}

func TestRunHorizontalSweepUnknownRegion(t *testing.T) {
	cfg := testConfig(t, false)
	for _, tc := range []struct {
		regions []string
		want    string
	}{
		{[]string{"NOPE"}, "at least two regions"},
		{[]string{"ITA", "NOPE"}, "region NOPE missing"},
		{[]string{"ITA"}, "at least two regions"},
		{[]string{"ITA", "ITA"}, "region ITA listed twice"},
	} {
		_, err := RunHorizontalSweep(cfg, evomodel.CMRandom, tc.regions, []float64{0})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("regions %v: error %v, want one containing %q", tc.regions, err, tc.want)
		}
	}
}

// TestRunDiversity checks that usage-profile clustering recovers
// geo-cultural blocks: the East-Asian soy cuisines group together, the
// north-European dairy-baking cuisines group together, and the
// Mediterranean olive cuisines group together.
func TestRunDiversity(t *testing.T) {
	cfg := testConfig(t, true)
	cfg.RecipeScale = 0.1
	res, err := RunDiversity(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 5 {
		t.Fatalf("clusters = %v", res.Clusters)
	}
	clusterOf := map[string]int{}
	for i, c := range res.Clusters {
		for _, code := range c {
			clusterOf[code] = i
		}
	}
	if len(clusterOf) != 25 {
		t.Fatalf("partition covers %d cuisines", len(clusterOf))
	}
	sameCluster := func(a, b string) bool { return clusterOf[a] == clusterOf[b] }
	for _, pair := range [][2]string{
		{"JPN", "KOR"}, {"JPN", "CHN"}, // soy-ginger block
		{"UK", "BN"}, {"UK", "SCND"}, {"FRA", "IRL"}, // dairy-baking block
		{"ITA", "GRC"}, {"ITA", "SP"}, // Mediterranean block
	} {
		if !sameCluster(pair[0], pair[1]) {
			t.Errorf("%s and %s should share a usage cluster: %v", pair[0], pair[1], res.Clusters)
		}
	}
	// The spice-forward and dairy-baking worlds must be separated.
	if sameCluster("INSC", "SCND") {
		t.Error("INSC and SCND should not share a cluster")
	}
	if _, err := os.Stat(filepath.Join(cfg.OutDir, "diversity_dendrogram.txt")); err != nil {
		t.Fatal("dendrogram artifact missing")
	}
	if s := res.Summary(); !strings.Contains(s, "clusters") {
		t.Fatalf("summary: %s", s)
	}
}

func TestUsageProfileAndTV(t *testing.T) {
	const lexiconLen = 10
	a := [][]ingredient.ID{{1, 2}, {1, 3}}
	b := [][]ingredient.ID{{1, 2}, {1, 3}}
	if tv := UsageTV(a, b, lexiconLen); tv != 0 {
		t.Fatalf("identical profiles TV = %v", tv)
	}
	c := [][]ingredient.ID{{7, 8}, {7, 9}}
	if tv := UsageTV(a, c, lexiconLen); math.Abs(tv-1) > 1e-12 {
		t.Fatalf("disjoint profiles TV = %v, want 1", tv)
	}
	if got := usageProfile(a, lexiconLen)[1]; math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("profile mass for item 1 = %v, want 0.5", got)
	}
}

// TestRunHorizontalSweepDeterministic requires identical seeded sweeps
// to agree bit for bit, not just to the printed precision.
func TestRunHorizontalSweepDeterministic(t *testing.T) {
	cfg := testConfig(t, false)
	regions, migrations := []string{"ITA", "FRA", "JPN"}, []float64{0, 0.1, 0.3, 0.5}
	first, err := RunHorizontalSweep(cfg, evomodel.CMRandom, regions, migrations)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		again, err := RunHorizontalSweep(cfg, evomodel.CMRandom, regions, migrations)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again.Points, first.Points) {
			t.Fatalf("rerun %d: points %v, first run %v", run, again.Points, first.Points)
		}
	}
}
