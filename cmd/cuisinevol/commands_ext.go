package main

import (
	"fmt"
	"os"
	"sort"
	"strings"

	"cuisinevol/internal/experiment"
	"cuisinevol/internal/flavor"
	"cuisinevol/internal/ingest"
	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/recipe"
	"cuisinevol/internal/report"
	"cuisinevol/internal/textnorm"
)

// cmdPairing runs the food-pairing analysis (Ahn et al. construction over
// the synthetic FlavorDB-like molecule profiles) for every cuisine.
func cmdPairing(args []string) error {
	cf := newCorpusFlags("pairing")
	nRand := cf.fs.Int("nrand", 50, "random-recipe null replicates")
	flavorSeed := cf.fs.Uint64("flavor-seed", 42, "molecule-profile seed")
	if err := cf.fs.Parse(args); err != nil {
		return err
	}
	cfg, err := cf.config()
	if err != nil {
		return err
	}
	profile, err := flavor.Generate(flavor.DefaultConfig(*flavorSeed))
	if err != nil {
		return err
	}
	res, err := experiment.RunPairing(cfg, profile, *nRand)
	if err != nil {
		return err
	}
	tbl := report.NewTable(
		"Food-pairing analysis: recipe flavor-sharing vs random-recipe null",
		"Region", "RealMean", "RandMean", "Delta", "Z")
	for _, row := range res.Rows {
		tbl.AddRow(row.Region,
			report.Float(row.RealMean, 3), report.Float(row.RandMean, 3),
			report.Float(row.Delta, 3), report.Float(row.Z, 2))
	}
	return tbl.WriteText(os.Stdout)
}

// cmdIngest resolves a raw scraped-form JSONL file into a clean corpus.
func cmdIngest(args []string) error {
	cf := newCorpusFlags("ingest")
	in := cf.fs.String("in", "", "raw recipes JSONL (default: rawify the synthetic corpus as a demo)")
	out := cf.fs.String("out", "ingested.jsonl", "output corpus path")
	if err := cf.fs.Parse(args); err != nil {
		return err
	}
	var raws []ingest.RawRecipe
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		raws, err = ingest.ReadRawJSONL(f)
		if err != nil {
			return err
		}
	} else {
		corpus, err := cf.corpus()
		if err != nil {
			return err
		}
		raws = ingest.Rawify(corpus, cf.seed)
		fmt.Printf("no -in file: rawified the synthetic corpus into %d records as a demo\n", len(raws))
	}
	corpus, stats, err := ingest.Ingest(raws, ingest.Options{})
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := corpus.WriteJSONL(f); err != nil {
		return err
	}
	fmt.Printf("ingested %d/%d records (%d mentions, %.1f%% resolved; dropped: %d no-region, %d too-small, %d too-large) -> %s\n",
		stats.Accepted, stats.RawRecipes, stats.Mentions, stats.ResolutionRate()*100,
		stats.DroppedNoRegion, stats.DroppedTooSmall, stats.DroppedTooLarge, *out)
	return nil
}

// cmdHorizontal runs the coupled multi-region model and reports how
// migration homogenizes the regions' ingredient usage, as the mean
// pairwise total-variation distance between usage profiles.
func cmdHorizontal(args []string) error {
	cf := newCorpusFlags("horizontal")
	regions := cf.fs.String("regions", "ITA,FRA,JPN", "comma-separated region codes")
	model := cf.fs.String("model", "CM-R", "copy-mutate variant: CM-R, CM-C or CM-M")
	migrations := cf.fs.String("migrations", "0,0.1,0.3,0.5", "comma-separated migration probabilities to sweep")
	if err := cf.fs.Parse(args); err != nil {
		return err
	}
	kind, err := parseKind(*model)
	if err != nil {
		return err
	}
	var codes []string
	for _, code := range strings.Split(*regions, ",") {
		codes = append(codes, strings.ToUpper(strings.TrimSpace(code)))
	}
	var sweep []float64
	for _, field := range strings.Split(*migrations, ",") {
		var migration float64
		if _, err := fmt.Sscanf(strings.TrimSpace(field), "%g", &migration); err != nil {
			return fmt.Errorf("bad migration value %q", field)
		}
		sweep = append(sweep, migration)
	}
	cfg, err := cf.config()
	if err != nil {
		return err
	}
	res, err := experiment.RunHorizontalSweep(cfg, kind, codes, sweep)
	if err != nil {
		return err
	}
	tbl := report.NewTable(
		fmt.Sprintf("Horizontal transmission sweep (%s over %s): mean pairwise usage distance", kind, *regions),
		"Migration", "MeanUsageTV")
	for _, p := range res.Points {
		tbl.AddRow(report.Float(p.Migration, 2), report.Float(p.UsageTV, 4))
	}
	if err := tbl.WriteText(os.Stdout); err != nil {
		return err
	}
	fmt.Println("declining distance with migration = horizontal propagation homogenizes cuisines (paper §VII)")
	return nil
}

// cmdSearch runs a conjunctive ingredient query over the corpus or one
// region and prints the matching recipes with the first query
// ingredient's companions.
func cmdSearch(args []string) error {
	cf := newCorpusFlags("search")
	region := cf.fs.String("region", "", "restrict to one region code (default: whole corpus)")
	with := cf.fs.String("with", "tomato,basil", "comma-separated ingredient names the recipe must contain")
	top := cf.fs.Int("top", 10, "number of matches to print")
	if err := cf.fs.Parse(args); err != nil {
		return err
	}
	corpus, err := cf.corpus()
	if err != nil {
		return err
	}
	lex := corpus.Lexicon()
	norm := textnorm.NewNormalizer(lex)
	var query []ingredient.ID
	for _, name := range strings.Split(*with, ",") {
		id, ok := norm.Resolve(strings.TrimSpace(name))
		if !ok {
			return fmt.Errorf("unknown ingredient %q", name)
		}
		query = append(query, id)
	}
	view := corpus.AllView()
	if *region != "" {
		if view = corpus.Region(strings.ToUpper(*region)); view.Len() == 0 {
			return fmt.Errorf("region %q has no recipes", *region)
		}
	}
	// One pass over the view: tally what the recipes holding the first
	// query ingredient hold with it, and count and keep the first -top
	// recipes holding every query ingredient.
	together := make([]int, lex.Len())
	var shown []recipe.Recipe
	matches := 0
	view.Each(func(r recipe.Recipe) bool {
		if !r.HasIngredient(query[0]) {
			return true
		}
		for _, id := range r.Ingredients {
			together[id]++
		}
		for _, id := range query[1:] {
			if !r.HasIngredient(id) {
				return true
			}
		}
		if matches++; matches <= *top {
			shown = append(shown, r)
		}
		return true
	})
	fmt.Printf("%d recipes contain all of: %s\n\n", matches, strings.Join(lex.Names(query), ", "))
	for _, r := range shown {
		fmt.Printf("  [%s] %s\n", r.Region, strings.Join(lex.Names(r.Ingredients), ", "))
	}
	// Companions by descending count; the stable sort keeps ties in
	// ascending ID order.
	var companions []ingredient.ID
	for id, n := range together {
		if n > 0 && ingredient.ID(id) != query[0] {
			companions = append(companions, ingredient.ID(id))
		}
	}
	sort.SliceStable(companions, func(i, j int) bool { return together[companions[i]] > together[companions[j]] })
	if len(companions) > 8 {
		companions = companions[:8]
	}
	df := view.IngredientRecipeCounts()
	fmt.Println("\nmost frequent companions of the first query ingredient:")
	for _, id := range companions {
		n := together[id]
		fmt.Printf("  %-24s %d recipes (jaccard %.3f)\n",
			lex.Name(id), n, float64(n)/float64(df[query[0]]+df[id]-n))
	}
	return nil
}

// cmdDiff compares two corpora (per-region counts, mean sizes, usage
// correlation and total-variation distance) — useful for validating an
// ingestion round trip or comparing generator seeds.
func cmdDiff(args []string) error {
	cf := newCorpusFlags("diff")
	other := cf.fs.String("against", "", "JSONL corpus to compare against (required)")
	if err := cf.fs.Parse(args); err != nil {
		return err
	}
	if *other == "" {
		return fmt.Errorf("usage: cuisinevol diff -against other.jsonl [-corpus a.jsonl | -seed/-scale]")
	}
	a, err := cf.corpus()
	if err != nil {
		return err
	}
	f, err := os.Open(*other)
	if err != nil {
		return err
	}
	defer f.Close()
	b, err := recipe.ReadJSONL(f, ingredient.Builtin())
	if err != nil {
		return err
	}
	cmp := recipe.Compare(a, b)
	fmt.Printf("A: %d recipes, B: %d recipes\n", cmp.RecipesA, cmp.RecipesB)
	if len(cmp.RegionsOnlyA) > 0 {
		fmt.Printf("regions only in A: %s\n", strings.Join(cmp.RegionsOnlyA, ", "))
	}
	if len(cmp.RegionsOnlyB) > 0 {
		fmt.Printf("regions only in B: %s\n", strings.Join(cmp.RegionsOnlyB, ", "))
	}
	tbl := report.NewTable("", "Region", "RecipesA", "RecipesB", "MeanA", "MeanB", "UsageCorr", "UsageTV")
	for _, rc := range cmp.PerRegion {
		tbl.AddRow(rc.Region, rc.RecipesA, rc.RecipesB,
			report.Float(rc.MeanSizeA, 2), report.Float(rc.MeanSizeB, 2),
			report.Float(rc.UsageCorrelation, 4), report.Float(rc.UsageTV, 4))
	}
	if err := tbl.WriteText(os.Stdout); err != nil {
		return err
	}
	if cmp.Identical(1e-9) {
		fmt.Println("corpora are identical up to recipe order")
	}
	return nil
}

// cmdCluster clusters the 25 cuisines by ingredient-usage profile and
// prints the dendrogram and a flat partition (§III culinary diversity,
// quantified structurally).
func cmdCluster(args []string) error {
	cf := newCorpusFlags("cluster")
	k := cf.fs.Int("k", 5, "number of flat clusters to report")
	outDir := cf.fs.String("outdir", "", "artifact output directory (optional)")
	if err := cf.fs.Parse(args); err != nil {
		return err
	}
	cfg, err := cf.config()
	if err != nil {
		return err
	}
	cfg.OutDir = *outDir
	res, err := experiment.RunDiversity(cfg, *k)
	if err != nil {
		return err
	}
	fmt.Println("merge sequence (distance, members):")
	fmt.Print(res.Dendrogram.ASCII())
	fmt.Println()
	fmt.Println(res.Summary())
	return nil
}
