package cuisinevol

import (
	"bytes"
	"strings"
	"testing"

	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/itemset"
)

// smallCorpus is shared across the facade tests (generation dominates
// test time).
func smallCorpus(t *testing.T) *Corpus {
	t.Helper()
	c, err := GenerateCorpus(42, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBuiltinLexicon(t *testing.T) {
	lex := BuiltinLexicon()
	if lex.Len() != 721 {
		t.Fatalf("lexicon size %d", lex.Len())
	}
}

func TestRegions(t *testing.T) {
	if len(Regions()) != 25 {
		t.Fatal("expected 25 regions")
	}
	r, err := RegionByCode("ita")
	if err != nil || r.Name != "Italy" {
		t.Fatalf("RegionByCode: %+v, %v", r, err)
	}
}

func TestGenerateCorpus(t *testing.T) {
	c := smallCorpus(t)
	if len(c.Regions()) != 25 {
		t.Fatalf("corpus regions = %d", len(c.Regions()))
	}
	if c.Len() == 0 {
		t.Fatal("empty corpus")
	}
}

func TestGenerateCorpusBadScale(t *testing.T) {
	if _, err := GenerateCorpus(1, -1); err == nil {
		t.Fatal("negative scale accepted")
	}
}

func TestCorpusJSONLRoundTrip(t *testing.T) {
	c := smallCorpus(t)
	var buf bytes.Buffer
	if err := WriteCorpusJSONL(c, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCorpusJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != c.Len() {
		t.Fatalf("round trip %d != %d", got.Len(), c.Len())
	}
}

func TestResolveMention(t *testing.T) {
	id, ok := ResolveMention("2 cups chopped fresh basil")
	if !ok {
		t.Fatal("mention did not resolve")
	}
	if BuiltinLexicon().Name(id) != "basil" {
		t.Fatalf("resolved to %q", BuiltinLexicon().Name(id))
	}
	if _, ok := ResolveMention("moon rock"); ok {
		t.Fatal("nonsense resolved")
	}
}

func TestResolveMentions(t *testing.T) {
	ids, misses := ResolveMentions([]string{"1 onion", "2 onions", "plutonium"})
	if len(ids) != 1 || misses != 1 {
		t.Fatalf("ids=%v misses=%d", ids, misses)
	}
}

func TestOverrepresented(t *testing.T) {
	c := smallCorpus(t)
	top, err := Overrepresented(c, "ITA", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 5 {
		t.Fatalf("top = %v", top)
	}
	names := make([]string, len(top))
	for i, r := range top {
		names[i] = r.Name
		if i > 0 && top[i].Score > top[i-1].Score {
			t.Fatal("scores not descending")
		}
	}
	joined := strings.Join(names, ",")
	// At least 3 of Italy's Table I list should appear even at 5% scale.
	hits := 0
	for _, want := range []string{"olive", "parmesan cheese", "basil", "garlic", "tomato"} {
		if strings.Contains(joined, want) {
			hits++
		}
	}
	if hits < 3 {
		t.Fatalf("ITA top-5 %v matches only %d paper entries", names, hits)
	}
	if _, err := Overrepresented(c, "NOPE", 5); err == nil {
		t.Fatal("unknown region accepted")
	}
}

func TestMineCombinations(t *testing.T) {
	c := smallCorpus(t)
	res, err := MineCombinations(c, "ITA", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sets) == 0 {
		t.Fatal("no frequent combinations")
	}
	cat, err := MineCategoryCombinations(c, "ITA", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(cat.Sets) == 0 {
		t.Fatal("no frequent category combinations")
	}
	d := RankFrequency("ITA", res)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRankFrequency: a mine's distribution keeps its label, validates,
// and ranks the most frequent combination's support first.
func TestRankFrequency(t *testing.T) {
	txs := [][]ingredient.ID{
		{1, 2}, {1, 2}, {1, 3}, {1}, {2},
	}
	res, err := itemset.Mine(txs, 0.2, itemset.MineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d := RankFrequency("X", res)
	if d.Label != "X" {
		t.Fatal("label lost")
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Len() == 0 || d.Freqs[0] != 0.8 { // item 1 in 4/5 recipes
		t.Fatalf("top frequency = %v, want 0.8", d.Freqs)
	}
}

func TestDistributionDistance(t *testing.T) {
	a := Distribution{Label: "a", Freqs: []float64{0.5, 0.3}}
	b := Distribution{Label: "b", Freqs: []float64{0.4, 0.3}}
	d, err := DistributionDistance(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 || d > 0.01 {
		t.Fatalf("distance = %v", d)
	}
}

func TestCategoryUsage(t *testing.T) {
	c := smallCorpus(t)
	means, err := CategoryUsage(c, "INSC")
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, m := range means {
		sum += m
	}
	if sum < 5 || sum > 15 {
		t.Fatalf("category means sum to %v, expected ~mean recipe size", sum)
	}
}

func TestRunModel(t *testing.T) {
	c := smallCorpus(t)
	txs, err := RunModel(c, "KOR", CMRandom, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(txs) != c.RegionLen("KOR") {
		t.Fatalf("model produced %d recipes, region has %d", len(txs), c.RegionLen("KOR"))
	}
	if _, err := RunModel(c, "NOPE", CMRandom, 7); err == nil {
		t.Fatal("unknown region accepted")
	}
}

func TestCompareModels(t *testing.T) {
	c := smallCorpus(t)
	cmp, err := CompareModels(c, "KOR", CompareOptions{Replicates: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.MAE) != 4 {
		t.Fatalf("MAE entries = %d", len(cmp.MAE))
	}
	if cmp.Best == NullModel {
		t.Fatal("null model won on ingredient combinations")
	}
	if cmp.MAE[NullModel] <= cmp.MAE[cmp.Best] {
		t.Fatal("best model not better than NM")
	}
	if cmp.Empirical.Len() == 0 {
		t.Fatal("empirical distribution empty")
	}
	if _, err := CompareModels(c, "NOPE", CompareOptions{}); err == nil {
		t.Fatal("unknown region accepted")
	}
}

func TestCompareModelsCategoriesControl(t *testing.T) {
	c := smallCorpus(t)
	cmp, err := CompareModels(c, "ITA", CompareOptions{Replicates: 3, Categories: true})
	if err != nil {
		t.Fatal(err)
	}
	// Control: NM must be within an order of magnitude on categories.
	if cmp.MAE[NullModel] > cmp.MAE[CMRandom]*12+0.02 {
		t.Fatalf("category control: NM %.5f vs CM-R %.5f", cmp.MAE[NullModel], cmp.MAE[CMRandom])
	}
}
