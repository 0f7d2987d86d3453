package evomodel

import (
	"math"
	"reflect"
	"testing"
)

func TestRunWithLineageBasic(t *testing.T) {
	p := testParams(CMRandom, 71)
	txs, lin, err := RunWithLineage(p, lex)
	if err != nil {
		t.Fatal(err)
	}
	if len(lin.Mothers) != len(txs) {
		t.Fatalf("lineage covers %d of %d recipes", len(lin.Mothers), len(txs))
	}
	// Founders are parentless; every mother precedes its child.
	for i, m := range lin.Mothers {
		if i < lin.InitialPool {
			if m != -1 {
				t.Fatalf("founder %d has mother %d", i, m)
			}
			continue
		}
		if m < 0 || int(m) >= i {
			t.Fatalf("recipe %d has invalid mother %d", i, m)
		}
	}
}

func TestRunWithLineageMatchesRun(t *testing.T) {
	p := testParams(CMCategory, 73)
	plain, err := Run(p, lex)
	if err != nil {
		t.Fatal(err)
	}
	withLin, _, err := RunWithLineage(p, lex)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, withLin) {
		t.Fatal("lineage tracking changed the run's output")
	}
}

func TestLineageDepths(t *testing.T) {
	lin := &Lineage{Mothers: []int32{-1, -1, 0, 2, 1}, InitialPool: 2}
	want := []int{0, 0, 1, 2, 1}
	if got := lin.Depths(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Depths = %v, want %v", got, want)
	}
	if lin.MaxDepth() != 2 {
		t.Fatalf("MaxDepth = %d", lin.MaxDepth())
	}
}

func TestLineageChildCounts(t *testing.T) {
	lin := &Lineage{Mothers: []int32{-1, -1, 0, 0, 2}, InitialPool: 2}
	want := []int{2, 0, 1, 0, 0}
	if got := lin.ChildCounts(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ChildCounts = %v, want %v", got, want)
	}
}

func TestLineageFounderShares(t *testing.T) {
	lin := &Lineage{Mothers: []int32{-1, -1, 0, 2, 1}, InitialPool: 2}
	founders := lin.Founder()
	want := []int32{0, 1, 0, 0, 1}
	if !reflect.DeepEqual(founders, want) {
		t.Fatalf("Founder = %v, want %v", founders, want)
	}
	shares := lin.FounderShares()
	if math.Abs(shares[0]-0.6) > 1e-12 || math.Abs(shares[1]-0.4) > 1e-12 {
		t.Fatalf("FounderShares = %v", shares)
	}
	sum := 0.0
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("shares sum to %v", sum)
	}
}

func TestNullModelLineageTrivial(t *testing.T) {
	p := testParams(NullModel, 79)
	_, lin, err := RunWithLineage(p, lex)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range lin.Mothers {
		if m != -1 {
			t.Fatalf("NM recipe %d has mother %d", i, m)
		}
	}
	if lin.MaxDepth() != 0 {
		t.Fatal("NM lineage must be flat")
	}
}

// TestLineageYuleConcentration: under uniform mother selection the
// founder shares follow a Yule-like process with a heavy tail — a few
// founders dominate the final pool while many leave few descendants.
func TestLineageYuleConcentration(t *testing.T) {
	p := testParams(CMRandom, 83)
	_, lin, err := RunWithLineage(p, lex)
	if err != nil {
		t.Fatal(err)
	}
	shares := lin.FounderShares()
	maxShare, minShare := 0.0, 1.0
	for _, s := range shares {
		if s > maxShare {
			maxShare = s
		}
		if s < minShare {
			minShare = s
		}
	}
	uniform := 1.0 / float64(lin.InitialPool)
	if maxShare < 3*uniform {
		t.Fatalf("no dominant founder: max share %v vs uniform %v", maxShare, uniform)
	}
	if minShare >= uniform {
		t.Fatalf("no suppressed founder: min share %v vs uniform %v", minShare, uniform)
	}
	// Depths must grow well beyond 1 over hundreds of copies.
	if lin.MaxDepth() < 3 {
		t.Fatalf("max depth %d implausibly shallow", lin.MaxDepth())
	}
}

// TestLineageMothersWellFormedUnderArena: with recipes living in the
// shared arena rather than owning their slices, every recorded mother
// must still be a valid, earlier recipe index — including under the
// arena-truncation paths (duplicate-replace shrink, variable sizes).
func TestLineageMothersWellFormedUnderArena(t *testing.T) {
	for _, kind := range []Kind{CMRandom, CMCategory, CMMixture, KinouchiOriginal} {
		p := testParams(kind, 57)
		p.AllowDuplicateReplace = true
		p.InsertProb, p.DeleteProb = 0.2, 0.2
		txs, lin, err := RunWithLineage(p, lex)
		if err != nil {
			t.Fatal(err)
		}
		if len(lin.Mothers) != len(txs) {
			t.Fatalf("%v: %d mothers for %d recipes", kind, len(lin.Mothers), len(txs))
		}
		for i, m := range lin.Mothers {
			if i < lin.InitialPool && m != -1 {
				t.Fatalf("%v: founder %d has mother %d", kind, i, m)
			}
			if m >= int32(i) {
				t.Fatalf("%v: recipe %d claims mother %d from its own future", kind, i, m)
			}
		}
	}
}

// TestLineageStableAcrossPooledReuse: the genealogy must not change when
// the machine that records it is a reused one carrying buffers from
// unrelated runs.
func TestLineageStableAcrossPooledReuse(t *testing.T) {
	p := testParams(CMMixture, 58)
	_, fresh, err := RunWithLineage(p, lex)
	if err != nil {
		t.Fatal(err)
	}
	// Dirty the reused machines with differently shaped runs, with and
	// without lineage.
	for s := uint64(0); s < 3; s++ {
		if _, err := Run(testParams(NullModel, s), lex); err != nil {
			t.Fatal(err)
		}
		if _, _, err := RunWithLineage(testParams(CMRandom, s), lex); err != nil {
			t.Fatal(err)
		}
	}
	_, reused, err := RunWithLineage(p, lex)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.Mothers, reused.Mothers) || fresh.InitialPool != reused.InitialPool {
		t.Fatal("lineage differs after machine pool reuse")
	}
}
