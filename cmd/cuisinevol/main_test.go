package main

import (
	"testing"

	"cuisinevol/internal/evomodel"
)

func TestParseKind(t *testing.T) {
	cases := map[string]evomodel.Kind{
		"CM-R": evomodel.CMRandom, "cmr": evomodel.CMRandom, "RANDOM": evomodel.CMRandom,
		"CM-C": evomodel.CMCategory, "cmc": evomodel.CMCategory, "category": evomodel.CMCategory,
		"CM-M": evomodel.CMMixture, "mixture": evomodel.CMMixture,
		"NM": evomodel.NullModel, "null": evomodel.NullModel, " nm ": evomodel.NullModel,
	}
	for in, want := range cases {
		got, err := parseKind(in)
		if err != nil || got != want {
			t.Errorf("parseKind(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := parseKind("bogus"); err == nil {
		t.Fatal("bogus kind accepted")
	}
}

func TestCorpusFlagsGenerate(t *testing.T) {
	cf := newCorpusFlags("test")
	if err := cf.fs.Parse([]string{"-scale", "0.02", "-seed", "7"}); err != nil {
		t.Fatal(err)
	}
	corpus, err := cf.corpus()
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus.Regions()) != 25 {
		t.Fatalf("regions = %d", len(corpus.Regions()))
	}
}

func TestCorpusFlagsLoadMissingFile(t *testing.T) {
	cf := newCorpusFlags("test")
	if err := cf.fs.Parse([]string{"-corpus", "/nonexistent/path.jsonl"}); err != nil {
		t.Fatal(err)
	}
	if _, err := cf.corpus(); err == nil {
		t.Fatal("missing corpus file accepted")
	}
}
