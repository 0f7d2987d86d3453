package cuisinevol

import (
	"testing"
)

func TestGenerateFlavorProfile(t *testing.T) {
	p, err := GenerateFlavorProfile(1)
	if err != nil {
		t.Fatal(err)
	}
	lex := BuiltinLexicon()
	basil := lex.MustID("basil")
	if len(p.Molecules(basil)) == 0 {
		t.Fatal("basil has no molecules")
	}
}

func TestFoodPairing(t *testing.T) {
	c := smallCorpus(t)
	p, err := GenerateFlavorProfile(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := FoodPairing(p, c, "ITA", 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Region != "ITA" || res.RealMean <= 0 || res.RandMean <= 0 {
		t.Fatalf("pairing result: %+v", res)
	}
	if _, err := FoodPairing(p, c, "NOPE", 10, 3); err == nil {
		t.Fatal("unknown region accepted")
	}
}

func TestIngestRoundTripViaFacade(t *testing.T) {
	c := smallCorpus(t)
	raws := RawifyCorpus(c, 5)
	got, stats, err := IngestRawRecipes(raws)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != c.Len() {
		t.Fatalf("ingested %d of %d (stats %+v)", got.Len(), c.Len(), stats)
	}
	if stats.ResolutionRate() != 1 {
		t.Fatalf("resolution rate %v", stats.ResolutionRate())
	}
}

func TestRunModelAlternativeKinds(t *testing.T) {
	c := smallCorpus(t)
	for _, kind := range []ModelKind{FitnessOnly, PreferentialAttachment} {
		txs, err := RunModel(c, "KOR", kind, 7)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if len(txs) != c.RegionLen("KOR") {
			t.Fatalf("%v produced %d recipes", kind, len(txs))
		}
	}
}

func TestRunHorizontalTransmission(t *testing.T) {
	c := smallCorpus(t)
	cfg := HorizontalConfig{
		Regions: map[string]ModelParams{
			"ITA": HorizontalParamsForRegion(c, "ITA", CMRandom),
			"FRA": HorizontalParamsForRegion(c, "FRA", CMRandom),
		},
		Migration: 0.2,
		Seed:      11,
	}
	out, err := RunHorizontalTransmission(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(out["ITA"]) != c.RegionLen("ITA") || len(out["FRA"]) != c.RegionLen("FRA") {
		t.Fatalf("counts: %d, %d", len(out["ITA"]), len(out["FRA"]))
	}
}

func TestRunModelWithLineage(t *testing.T) {
	c := smallCorpus(t)
	txs, lin, err := RunModelWithLineage(c, "KOR", CMRandom, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(txs) != len(lin.Mothers) {
		t.Fatal("lineage length mismatch")
	}
	if lin.MaxDepth() < 1 {
		t.Fatal("no copying recorded")
	}
	if _, _, err := RunModelWithLineage(c, "NOPE", CMRandom, 7); err == nil {
		t.Fatal("unknown region accepted")
	}
}
