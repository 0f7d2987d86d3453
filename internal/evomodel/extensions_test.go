package evomodel

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"sort"
	"testing"

	"cuisinevol/internal/cuisine"
	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/synth"
)

func TestVariableSizeDrifts(t *testing.T) {
	// Insertions are gated by fitness and duplicate checks (roughly a
	// third succeed), deletions almost always succeed; this ratio gives
	// clear net insertion pressure.
	p := testParams(CMRandom, 41)
	p.InsertProb = 0.5
	p.DeleteProb = 0.05
	txs, err := Run(p, lex)
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[int]int{}
	for _, tx := range txs {
		sizes[len(tx)]++
		if len(tx) < cuisine.MinRecipeSize || len(tx) > cuisine.MaxRecipeSize {
			t.Fatalf("size %d outside [2, 38]", len(tx))
		}
	}
	if len(sizes) < 3 {
		t.Fatalf("expected size diversity under insert/delete mutations, got %v", sizes)
	}
	// Net insertion pressure should push the mean above s̄ = 6.
	total := 0
	for _, tx := range txs {
		total += len(tx)
	}
	if mean := float64(total) / float64(len(txs)); mean <= 6 {
		t.Fatalf("mean size %v not above 6 under insertion pressure", mean)
	}
}

func TestVariableSizeKeepsSets(t *testing.T) {
	p := testParams(CMCategory, 43)
	p.InsertProb = 0.3
	p.DeleteProb = 0.3
	txs, err := Run(p, lex)
	if err != nil {
		t.Fatal(err)
	}
	for _, tx := range txs {
		for i := 1; i < len(tx); i++ {
			if tx[i-1] >= tx[i] {
				t.Fatalf("duplicate or unsorted recipe %v", tx)
			}
		}
	}
}

func TestVariableSizeValidation(t *testing.T) {
	for _, bad := range []struct{ ins, del float64 }{
		{-0.1, 0}, {0, -0.1}, {0.6, 0.6},
	} {
		p := testParams(CMRandom, 1)
		p.InsertProb, p.DeleteProb = bad.ins, bad.del
		if _, err := Run(p, lex); err == nil {
			t.Errorf("insert=%v delete=%v accepted", bad.ins, bad.del)
		}
	}
}

func TestZeroSizeMutationMatchesBase(t *testing.T) {
	// InsertProb = DeleteProb = 0 must be byte-identical to the base
	// model (the extension must not perturb the RNG stream).
	base, err := Run(testParams(CMRandom, 47), lex)
	if err != nil {
		t.Fatal(err)
	}
	p := testParams(CMRandom, 47)
	p.InsertProb, p.DeleteProb = 0, 0
	ext, err := Run(p, lex)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, ext) {
		t.Fatal("zero-probability size mutation changed the run")
	}
}

func TestExtendedKindsRun(t *testing.T) {
	for _, kind := range ExtendedKinds() {
		txs, err := Run(testParams(kind, 51), lex)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if len(txs) != 400 {
			t.Fatalf("%v produced %d recipes", kind, len(txs))
		}
		for _, tx := range txs {
			for i := 1; i < len(tx); i++ {
				if tx[i-1] >= tx[i] {
					t.Fatalf("%v produced invalid recipe %v", kind, tx)
				}
			}
		}
	}
}

func TestExtendedKindNames(t *testing.T) {
	if FitnessOnly.String() != "FIT" || PreferentialAttachment.String() != "PA" {
		t.Fatal("extended kind names wrong")
	}
}

func TestFitnessOnlyBiasesTowardFitIngredients(t *testing.T) {
	// Under the fitness-only model, high-fitness ingredients must be
	// used far more often than low-fitness ones. We can't read fitness
	// directly, but usage concentration is the observable: top-decile
	// ingredients should carry several times the bottom-decile's mass.
	p := testParams(FitnessOnly, 53)
	txs, err := Run(p, lex)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[ingredient.ID]int{}
	for _, tx := range txs {
		for _, id := range tx {
			counts[id]++
		}
	}
	var usages []int
	for _, c := range counts {
		usages = append(usages, c)
	}
	sortInts(usages)
	n := len(usages)
	bottom, top := 0, 0
	for i := 0; i < n/10; i++ {
		bottom += usages[i]
		top += usages[n-1-i]
	}
	if top < 3*bottom {
		t.Fatalf("fitness-only usage not concentrated: top decile %d vs bottom %d", top, bottom)
	}
}

func TestPreferentialAttachmentRichGetRicher(t *testing.T) {
	// PA must produce heavier usage concentration than the null model.
	gini := func(kind Kind) float64 {
		txs, err := Run(testParams(kind, 57), lex)
		if err != nil {
			t.Fatal(err)
		}
		counts := map[ingredient.ID]int{}
		for _, tx := range txs {
			for _, id := range tx {
				counts[id]++
			}
		}
		var xs []int
		for _, c := range counts {
			xs = append(xs, c)
		}
		sortInts(xs)
		// Gini over usage counts.
		var cum, weighted float64
		for i, x := range xs {
			cum += float64(x)
			weighted += float64(i+1) * float64(x)
		}
		n := float64(len(xs))
		return (2*weighted - (n+1)*cum) / (n * cum)
	}
	pa := gini(PreferentialAttachment)
	nm := gini(NullModel)
	if pa <= nm {
		t.Fatalf("PA gini %v not above NM %v", pa, nm)
	}
}

func horizontalParams(kind Kind, ingredients []ingredient.ID, n int) Params {
	return Params{
		Kind:           kind,
		Ingredients:    ingredients,
		MeanRecipeSize: 6,
		TargetRecipes:  n,
		InitialPool:    15,
		Phi:            float64(len(ingredients)) / float64(n),
		MixtureRatio:   0.5,
	}
}

func TestRunHorizontalBasic(t *testing.T) {
	ids := lex.IDs()
	cfg := HorizontalConfig{
		Regions: map[string]Params{
			"A": horizontalParams(CMRandom, ids[:100], 300),
			"B": horizontalParams(CMRandom, ids[80:180], 200),
		},
		Migration: 0.2,
		Seed:      3,
	}
	out, err := RunHorizontal(cfg, lex)
	if err != nil {
		t.Fatal(err)
	}
	if len(out["A"]) != 300 || len(out["B"]) != 200 {
		t.Fatalf("recipe counts: %d, %d", len(out["A"]), len(out["B"]))
	}
	for _, txs := range out {
		for _, tx := range txs {
			for i := 1; i < len(tx); i++ {
				if tx[i-1] >= tx[i] {
					t.Fatalf("invalid recipe %v", tx)
				}
			}
		}
	}
}

// TestRunHorizontalFixedIterations: under FixedIterations each region
// spends exactly N − n steps, as Run does, so it ends with Run's recipe
// count for the same parameters. The count depends only on the pool and
// recipe sizes, never on a random draw, so migration cannot change it.
func TestRunHorizontalFixedIterations(t *testing.T) {
	ids := lex.IDs()
	regions := map[string]Params{
		"A": horizontalParams(CMRandom, ids[:100], 300),
		"B": horizontalParams(CMCategory, ids[80:180], 200),
	}
	want := map[string]int{}
	for label, p := range regions {
		p.FixedIterations = true
		regions[label] = p
		txs, err := Run(p, lex)
		if err != nil {
			t.Fatal(err)
		}
		if len(txs) >= p.TargetRecipes {
			t.Fatalf("region %s: Run gave %d recipes, want fewer than N = %d", label, len(txs), p.TargetRecipes)
		}
		want[label] = len(txs)
	}
	for _, migration := range []float64{0, 0.3} {
		out, err := RunHorizontal(HorizontalConfig{Regions: regions, Migration: migration, Seed: 5}, lex)
		if err != nil {
			t.Fatal(err)
		}
		for label, n := range want {
			if len(out[label]) != n {
				t.Fatalf("migration %v region %s: %d recipes, Run gives %d", migration, label, len(out[label]), n)
			}
		}
	}
}

func TestRunHorizontalDeterministic(t *testing.T) {
	ids := lex.IDs()
	build := func() map[string][][]ingredient.ID {
		out, err := RunHorizontal(HorizontalConfig{
			Regions: map[string]Params{
				"A": horizontalParams(CMRandom, ids[:80], 150),
				"B": horizontalParams(CMCategory, ids[50:150], 150),
			},
			Migration: 0.3,
			Seed:      9,
		}, lex)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if !reflect.DeepEqual(build(), build()) {
		t.Fatal("horizontal run not deterministic")
	}
}

func TestHorizontalMigrationSpreadsIngredients(t *testing.T) {
	// With disjoint ingredient lists, region B's recipes can contain
	// region-A ingredients only through migration.
	ids := lex.IDs()
	regionA := ids[:100]
	regionB := ids[100:200]
	inA := map[ingredient.ID]bool{}
	for _, id := range regionA {
		inA[id] = true
	}
	foreignShare := func(migration float64) float64 {
		out, err := RunHorizontal(HorizontalConfig{
			Regions: map[string]Params{
				"A": horizontalParams(CMRandom, regionA, 400),
				"B": horizontalParams(CMRandom, regionB, 400),
			},
			Migration: migration,
			Seed:      11,
		}, lex)
		if err != nil {
			t.Fatal(err)
		}
		foreign, total := 0, 0
		for _, tx := range out["B"] {
			for _, id := range tx {
				total++
				if inA[id] {
					foreign++
				}
			}
		}
		return float64(foreign) / float64(total)
	}
	if share := foreignShare(0); share != 0 {
		t.Fatalf("no-migration run contains %v foreign ingredients", share)
	}
	if share := foreignShare(0.4); share <= 0.01 {
		t.Fatalf("migration failed to spread ingredients: foreign share %v", share)
	}
}

func TestHorizontalMigrationHomogenizes(t *testing.T) {
	// Higher migration should reduce the usage-profile distance between
	// regions (the homogenization the paper's horizontal hypothesis
	// predicts).
	ids := lex.IDs()
	distance := func(migration float64) float64 {
		out, err := RunHorizontal(HorizontalConfig{
			Regions: map[string]Params{
				"A": horizontalParams(CMRandom, ids[:120], 500),
				"B": horizontalParams(CMRandom, ids[120:240], 500),
			},
			Migration: migration,
			Seed:      13,
		}, lex)
		if err != nil {
			t.Fatal(err)
		}
		profile := func(txs [][]ingredient.ID) map[ingredient.ID]float64 {
			counts := map[ingredient.ID]float64{}
			total := 0.0
			for _, tx := range txs {
				for _, id := range tx {
					counts[id]++
					total++
				}
			}
			for id := range counts {
				counts[id] /= total
			}
			return counts
		}
		pa, pb := profile(out["A"]), profile(out["B"])
		seen := map[ingredient.ID]bool{}
		d := 0.0
		for id, v := range pa {
			d += math.Abs(v - pb[id])
			seen[id] = true
		}
		for id, v := range pb {
			if !seen[id] {
				d += v
			}
		}
		return d // total variation distance * 2
	}
	low := distance(0)
	high := distance(0.5)
	if high >= low {
		t.Fatalf("migration did not homogenize: d(0)=%v d(0.5)=%v", low, high)
	}
}

// TestRunHorizontalPinned pins RunHorizontal's output byte for byte:
// ITA, JPN and MEX at scale 0.05 under CM-R, CM-C and CM-M, at three
// migration rates and two seeds, each run hashed over its regions in
// label order and their recipes in pool order.
func TestRunHorizontalPinned(t *testing.T) {
	gen := synth.DefaultConfig(42)
	gen.RecipeScale = 0.05
	corpus, err := synth.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	regions := map[string]Params{
		"ITA": ParamsForView(corpus.Region("ITA"), CMRandom, 0),
		"JPN": ParamsForView(corpus.Region("JPN"), CMCategory, 0),
		"MEX": ParamsForView(corpus.Region("MEX"), CMMixture, 0),
	}
	for _, tc := range []struct {
		migration float64
		seed      uint64
		want      string
	}{
		{0, 1, "34dae96f7ead6e41"},
		{0, 9, "18281e3418d0f84a"},
		{0.3, 1, "35883946f287d3d0"},
		{0.3, 9, "4c8e61ed8dfba445"},
		{1, 1, "a8c8827200448b9d"},
		{1, 9, "fadd98cda0fb2d09"},
	} {
		out, err := RunHorizontal(HorizontalConfig{Regions: regions, Migration: tc.migration, Seed: tc.seed}, corpus.Lexicon())
		if err != nil {
			t.Fatal(err)
		}
		if got := hashRegions(out); got != tc.want {
			t.Errorf("migration %v seed %d: hash %s, want %s", tc.migration, tc.seed, got, tc.want)
		}
	}
}

// hashRegions digests a horizontal run: each label, then each recipe's
// length and IDs as little-endian uint32s.
func hashRegions(out map[string][][]ingredient.ID) string {
	labels := make([]string, 0, len(out))
	for label := range out {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	h := sha256.New()
	var word [4]byte
	put := func(v int) {
		binary.LittleEndian.PutUint32(word[:], uint32(v))
		h.Write(word[:])
	}
	for _, label := range labels {
		h.Write([]byte(label))
		put(len(out[label]))
		for _, tx := range out[label] {
			put(len(tx))
			for _, id := range tx {
				put(int(id))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestHorizontalVariableSize checks that horizontal runs honour the
// variable-size extension: under InsertProb and DeleteProb every
// region's recipe sizes spread beyond s̄.
func TestHorizontalVariableSize(t *testing.T) {
	ids := lex.IDs()
	a, b := horizontalParams(CMRandom, ids[:100], 300), horizontalParams(CMCategory, ids[80:180], 300)
	for _, p := range []*Params{&a, &b} {
		p.InsertProb, p.DeleteProb = 0.5, 0.05
	}
	out, err := RunHorizontal(HorizontalConfig{Regions: map[string]Params{"A": a, "B": b}, Migration: 0.3, Seed: 5}, lex)
	if err != nil {
		t.Fatal(err)
	}
	for label, txs := range out {
		sizes := map[int]int{}
		for _, tx := range txs {
			sizes[len(tx)]++
		}
		if len(sizes) < 3 {
			t.Errorf("region %s: recipe sizes %v under InsertProb 0.5, want at least three", label, sizes)
		}
	}
}

func TestRunHorizontalErrors(t *testing.T) {
	ids := lex.IDs()
	if _, err := RunHorizontal(HorizontalConfig{}, lex); err == nil {
		t.Fatal("empty config accepted")
	}
	cfg := HorizontalConfig{
		Regions:   map[string]Params{"A": horizontalParams(CMRandom, ids[:50], 100)},
		Migration: 1.5,
	}
	if _, err := RunHorizontal(cfg, lex); err == nil {
		t.Fatal("bad migration accepted")
	}
	cfg = HorizontalConfig{
		Regions: map[string]Params{"A": horizontalParams(NullModel, ids[:50], 100)},
	}
	if _, err := RunHorizontal(cfg, lex); err == nil {
		t.Fatal("null model accepted for horizontal transmission")
	}
	cfg = HorizontalConfig{
		Regions: map[string]Params{"A": {Kind: CMRandom}}, // invalid params
	}
	if _, err := RunHorizontal(cfg, lex); err == nil {
		t.Fatal("invalid region params accepted")
	}
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func TestKinouchiOriginalRuns(t *testing.T) {
	txs, err := Run(testParams(KinouchiOriginal, 61), lex)
	if err != nil {
		t.Fatal(err)
	}
	if len(txs) != 400 {
		t.Fatalf("produced %d recipes", len(txs))
	}
	for _, tx := range txs {
		if len(tx) != 6 {
			t.Fatalf("Kinouchi mutations must preserve size, got %d", len(tx))
		}
		for i := 1; i < len(tx); i++ {
			if tx[i-1] >= tx[i] {
				t.Fatalf("invalid recipe %v", tx)
			}
		}
	}
}

func TestKinouchiConcentratesLikeCM(t *testing.T) {
	// The ancestral model also concentrates usage far beyond the null
	// model (it still copies recipes and selects against low fitness).
	topShare := func(kind Kind) float64 {
		txs, err := Run(testParams(kind, 63), lex)
		if err != nil {
			t.Fatal(err)
		}
		counts := map[ingredient.ID]int{}
		for _, tx := range txs {
			for _, id := range tx {
				counts[id]++
			}
		}
		max := 0
		for _, c := range counts {
			if c > max {
				max = c
			}
		}
		return float64(max) / float64(len(txs))
	}
	if kin, nm := topShare(KinouchiOriginal), topShare(NullModel); kin <= nm {
		t.Fatalf("Kinouchi top share %v not above NM %v", kin, nm)
	}
}

func TestKinouchiName(t *testing.T) {
	if KinouchiOriginal.String() != "KIN" {
		t.Fatal("kind name wrong")
	}
	if DefaultMutations(KinouchiOriginal) != 4 {
		t.Fatal("default M wrong")
	}
}
