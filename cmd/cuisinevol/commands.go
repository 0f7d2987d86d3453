package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"cuisinevol/internal/cuisine"
	"cuisinevol/internal/evomodel"
	"cuisinevol/internal/experiment"
	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/itemset"
	"cuisinevol/internal/overrep"
	"cuisinevol/internal/plot"
	"cuisinevol/internal/recipe"
	"cuisinevol/internal/report"
	"cuisinevol/internal/synth"
	"cuisinevol/internal/textnorm"
)

// corpusFlags are the flags shared by every command that needs a corpus.
type corpusFlags struct {
	seed  uint64
	scale float64
	load  string
	fs    *flag.FlagSet
}

func newCorpusFlags(name string) *corpusFlags {
	cf := &corpusFlags{fs: flag.NewFlagSet(name, flag.ExitOnError)}
	cf.fs.Uint64Var(&cf.seed, "seed", 42, "corpus generation seed")
	cf.fs.Float64Var(&cf.scale, "scale", 1.0, "corpus scale (1.0 = the paper's 158k recipes)")
	cf.fs.StringVar(&cf.load, "corpus", "", "load corpus from a JSONL file instead of generating")
	return cf
}

func (cf *corpusFlags) corpus() (*recipe.Corpus, error) {
	if cf.load != "" {
		f, err := os.Open(cf.load)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return recipe.ReadJSONL(f, ingredient.Builtin())
	}
	gen := synth.DefaultConfig(cf.seed)
	gen.RecipeScale = cf.scale
	return synth.Generate(gen)
}

// config returns an experiment config over the flags' corpus: the file
// named by -corpus when given, else generated on first use from -seed
// and -scale.
func (cf *corpusFlags) config() (*experiment.Config, error) {
	cfg := &experiment.Config{Seed: cf.seed, RecipeScale: cf.scale}
	if cf.load != "" {
		corpus, err := cf.corpus()
		if err != nil {
			return nil, err
		}
		cfg.SetCorpus(corpus)
	}
	return cfg, nil
}

func cmdGen(args []string) error {
	cf := newCorpusFlags("gen")
	out := cf.fs.String("out", "corpus.jsonl", "output path (.jsonl or .csv)")
	if err := cf.fs.Parse(args); err != nil {
		return err
	}
	corpus, err := cf.corpus()
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(*out, ".csv") {
		err = corpus.WriteCSV(f)
	} else {
		err = corpus.WriteJSONL(f)
	}
	if err != nil {
		return err
	}
	fmt.Printf("wrote %d recipes across %d cuisines to %s\n", corpus.Len(), len(corpus.Regions()), *out)
	return nil
}

func cmdExperiment(ctx context.Context, name string, args []string) error {
	cf := newCorpusFlags(name)
	outDir := cf.fs.String("outdir", "", "artifact output directory (optional)")
	replicates := cf.fs.Int("replicates", 100, "evolution-model replicates per ensemble (fig4)")
	support := cf.fs.Float64("support", 0.05, "minimum combination support")
	workers := cf.fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	categories := cf.fs.Bool("categories", false, "fig4: run the §VI category-combination control")
	regions := cf.fs.String("regions", "", "fig4: comma-separated region codes (default all 25)")
	if err := cf.fs.Parse(args); err != nil {
		return err
	}
	cfg, err := cf.config()
	if err != nil {
		return err
	}
	cfg.MinSupport = *support
	cfg.Replicates = *replicates
	cfg.Workers = *workers
	cfg.OutDir = *outDir

	run := func(n string) error {
		switch n {
		case "table1":
			res, err := experiment.RunTableI(cfg)
			if err != nil {
				return err
			}
			if err := res.Table().WriteText(os.Stdout); err != nil {
				return err
			}
			fmt.Println(res.Summary())
		case "fig1":
			res, err := experiment.RunFig1(cfg)
			if err != nil {
				return err
			}
			fmt.Println(res.Summary())
		case "fig2":
			res, err := experiment.RunFig2(cfg)
			if err != nil {
				return err
			}
			printFig2(res)
			fmt.Println(res.Summary())
		case "fig3":
			res, err := experiment.RunFig3Ctx(ctx, cfg)
			if err != nil {
				return err
			}
			printFig3(res)
			fmt.Println(res.Summary())
		case "fig4":
			opts := experiment.Fig4Options{Categories: *categories}
			if *regions != "" {
				opts.Regions = strings.Split(*regions, ",")
			}
			res, err := experiment.RunFig4Ctx(ctx, cfg, opts)
			if err != nil {
				return err
			}
			kinds := evomodel.Kinds()
			if err := res.Table(kinds).WriteText(os.Stdout); err != nil {
				return err
			}
			fmt.Println(res.Summary())
		}
		return nil
	}
	if name == "all" {
		for _, n := range []string{"table1", "fig1", "fig2", "fig3", "fig4"} {
			fmt.Printf("== %s ==\n", n)
			if err := run(n); err != nil {
				return fmt.Errorf("%s: %w", n, err)
			}
			fmt.Println()
		}
		// The §VI control completes the evaluation.
		*categories = true
		fmt.Println("== fig4 (category control) ==")
		return run("fig4")
	}
	return run(name)
}

func printFig2(res *experiment.Fig2Result) {
	boxes := make([]plot.BoxStats, 0, 8)
	for _, c := range res.Leading[:8] {
		b := res.Boxes[c]
		boxes = append(boxes, plot.BoxStats{
			Label: c.String(), WhiskLo: b.WhiskLo, Q1: b.Q1, Med: b.Med, Q3: b.Q3, WhiskHi: b.WhiskHi,
		})
	}
	fmt.Print(plot.ASCIIBoxplots("Fig 2: ingredients per recipe by category (top 8, across 25 cuisines)", boxes, 60))
}

func printFig3(res *experiment.Fig3Result) {
	chart := plot.ASCIIChart{
		Title: "Fig 3a: rank-frequency of ingredient combinations (log-log)",
		Width: 72, Height: 18, LogX: true, LogY: true,
	}
	for _, d := range res.Ingredients.Dists {
		if d.Label == "ITA" || d.Label == "KOR" || d.Label == "USA" || d.Label == "ALL" {
			chart.Series = append(chart.Series, plot.RankSeries(d.Label, d.Freqs))
		}
	}
	fmt.Print(chart.Render())
}

func cmdMine(args []string) error {
	cf := newCorpusFlags("mine")
	region := cf.fs.String("region", "ITA", "region code")
	support := cf.fs.Float64("support", 0.05, "minimum support")
	top := cf.fs.Int("top", 25, "number of combinations to print")
	categories := cf.fs.Bool("categories", false, "mine category combinations")
	if err := cf.fs.Parse(args); err != nil {
		return err
	}
	cfg, err := cf.config()
	if err != nil {
		return err
	}
	corpus, err := cfg.Corpus()
	if err != nil {
		return err
	}
	code := strings.ToUpper(*region)
	if corpus.Region(code).Len() == 0 {
		return fmt.Errorf("region %q has no recipes", *region)
	}
	ix, err := experiment.ViewIndex(cfg.Indexes(), corpus, code, *categories)
	if err != nil {
		return err
	}
	res, total, err := itemset.MineTop(ix, *support, *top, itemset.MineOptions{})
	if err != nil {
		return err
	}
	lex := corpus.Lexicon()
	tbl := report.NewTable(
		fmt.Sprintf("Frequent combinations in %s (support >= %.0f%%, %d total)", code, *support*100, total),
		"Rank", "Combination", "Support")
	for i, s := range res.Sets {
		names := make([]string, len(s.Items))
		for j, id := range s.Items {
			if *categories {
				names[j] = ingredient.Category(id).String()
			} else {
				names[j] = lex.Name(id)
			}
		}
		tbl.AddRow(i+1, strings.Join(names, " + "), report.Float(s.Support(res.N), 4))
	}
	return tbl.WriteText(os.Stdout)
}

func cmdOverrep(args []string) error {
	cf := newCorpusFlags("overrep")
	region := cf.fs.String("region", "ITA", "region code")
	k := cf.fs.Int("k", 10, "number of ingredients to print")
	if err := cf.fs.Parse(args); err != nil {
		return err
	}
	cfg, err := cf.config()
	if err != nil {
		return err
	}
	corpus, err := cfg.Corpus()
	if err != nil {
		return err
	}
	code := strings.ToUpper(*region)
	allIx, err := experiment.ViewIndex(cfg.Indexes(), corpus, "", false)
	if err != nil {
		return err
	}
	regionIx, err := experiment.ViewIndex(cfg.Indexes(), corpus, code, false)
	if err != nil {
		return err
	}
	topK, err := overrep.NewFromIndex(corpus, allIx).TopKFromIndex(code, regionIx, *k)
	if err != nil {
		return err
	}
	lex := corpus.Lexicon()
	tbl := report.NewTable(fmt.Sprintf("Most overrepresented ingredients in %s (Eq 1)", code),
		"Rank", "Ingredient", "Category", "Score")
	for i, r := range topK {
		tbl.AddRow(i+1, lex.Name(r.ID), lex.CategoryOf(r.ID).String(), report.Float(r.Score, 4))
	}
	if r, err := cuisine.ByCode(code); err == nil {
		defer fmt.Printf("paper's Table I list: %s\n", strings.Join(r.Overrepresented, ", "))
	}
	return tbl.WriteText(os.Stdout)
}

func cmdEvolve(ctx context.Context, args []string) error {
	cf := newCorpusFlags("evolve")
	region := cf.fs.String("region", "ITA", "region code")
	model := cf.fs.String("model", "CM-R", "model: CM-R, CM-C, CM-M or NM")
	replicates := cf.fs.Int("replicates", 100, "ensemble replicates")
	support := cf.fs.Float64("support", 0.05, "minimum combination support")
	if err := cf.fs.Parse(args); err != nil {
		return err
	}
	kind, err := parseKind(*model)
	if err != nil {
		return err
	}
	cfg, err := cf.config()
	if err != nil {
		return err
	}
	cfg.Replicates = *replicates
	cfg.MinSupport = *support
	code := strings.ToUpper(*region)
	res, err := experiment.RunEvolve(ctx, cfg, code, kind)
	if err != nil {
		return err
	}
	fmt.Printf("%s on %s: %d replicates, %d frequent-combination ranks (empirical %d), MAE %.5f\n",
		kind, code, *replicates, res.Model.Len(), res.Empirical.Len(), res.MAE)
	chart := plot.ASCIIChart{
		Title: fmt.Sprintf("%s: empirical vs %s (log-log rank-frequency)", code, kind),
		Width: 72, Height: 18, LogX: true, LogY: true,
		Series: []plot.Series{
			plot.RankSeries("empirical", res.Empirical.Freqs),
			plot.RankSeries(kind.String(), res.Model.Freqs),
		},
	}
	fmt.Print(chart.Render())
	return nil
}

func parseKind(s string) (evomodel.Kind, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "CM-R", "CMR", "RANDOM":
		return evomodel.CMRandom, nil
	case "CM-C", "CMC", "CATEGORY":
		return evomodel.CMCategory, nil
	case "CM-M", "CMM", "MIXTURE":
		return evomodel.CMMixture, nil
	case "NM", "NULL":
		return evomodel.NullModel, nil
	}
	return 0, fmt.Errorf("unknown model %q (use CM-R, CM-C, CM-M or NM)", s)
}

func cmdResolve(args []string) error {
	fs := flag.NewFlagSet("resolve", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	mentions := fs.Args()
	if len(mentions) == 0 {
		return fmt.Errorf("usage: cuisinevol resolve \"2 cups chopped basil\" ...")
	}
	lex := ingredient.Builtin()
	norm := textnorm.NewNormalizer(lex)
	tbl := report.NewTable("", "Mention", "Entity", "Category")
	for _, m := range mentions {
		if id, ok := norm.Resolve(m); ok {
			tbl.AddRow(m, lex.Name(id), lex.CategoryOf(id).String())
		} else {
			tbl.AddRow(m, "(unresolved)", "")
		}
	}
	return tbl.WriteText(os.Stdout)
}
