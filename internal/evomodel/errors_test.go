package evomodel

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"cuisinevol/internal/sched"
)

func TestReplicateErrorFormatting(t *testing.T) {
	base := errors.New("boom")
	cases := []struct {
		err  *ReplicateError
		want string
	}{
		{&ReplicateError{Cuisine: "ITA", Model: "CM-R", Replicate: 3, Err: base},
			"evomodel: ITA/CM-R: replicate 3: boom"},
		{&ReplicateError{Model: "NM", Replicate: 0, Err: base},
			"evomodel: NM: replicate 0: boom"},
		{&ReplicateError{Replicate: 7, Err: base},
			"evomodel: replicate 7: boom"},
	}
	for _, c := range cases {
		if got := c.err.Error(); got != c.want {
			t.Fatalf("Error() = %q, want %q", got, c.want)
		}
		if !errors.Is(c.err, base) {
			t.Fatal("ReplicateError does not unwrap to its cause")
		}
	}
}

// TestRunEnsembleReturnsTypedReplicateError forces a genuine replicate
// failure (params that fail Run) and asserts the ensemble reports it as
// an errors.As-able ReplicateError carrying model and replicate index.
func TestRunEnsembleReturnsTypedReplicateError(t *testing.T) {
	cfg := testEnsembleConfig(CMRandom)
	cfg.Params.Ingredients = nil // Run rejects empty pools
	_, err := RunEnsembleCtx(context.Background(), cfg, lex)
	if err == nil {
		t.Fatal("ensemble with bad params succeeded")
	}
	var re *ReplicateError
	if !errors.As(err, &re) {
		t.Fatalf("not a ReplicateError: %v", err)
	}
	if re.Model != CMRandom.String() {
		t.Fatalf("Model = %q, want %q", re.Model, CMRandom.String())
	}
	if re.Replicate != 0 {
		// RunCtx reports the lowest-indexed failure; with every replicate
		// failing that is replicate 0.
		t.Fatalf("Replicate = %d, want 0", re.Replicate)
	}
}

// TestRunEnsembleWrapsInjectedItemErrors installs a scheduler item hook
// (the chaos seam) that kills one specific replicate and asserts the
// injected failure surfaces as the same typed ReplicateError a real one
// would, preserving the cause chain.
func TestRunEnsembleWrapsInjectedItemErrors(t *testing.T) {
	injected := fmt.Errorf("injected fault")
	ctx := sched.WithItemHook(context.Background(), func(i int) error {
		if i == 5 {
			return injected
		}
		return nil
	})
	_, err := RunEnsembleCtx(ctx, testEnsembleConfig(CMRandom), lex)
	if err == nil {
		t.Fatal("ensemble with injected fault succeeded")
	}
	var re *ReplicateError
	if !errors.As(err, &re) {
		t.Fatalf("not a ReplicateError: %v", err)
	}
	if re.Replicate != 5 {
		t.Fatalf("Replicate = %d, want 5", re.Replicate)
	}
	if !errors.Is(err, injected) {
		t.Fatalf("cause chain lost the injected error: %v", err)
	}
	if !strings.Contains(err.Error(), "replicate 5") {
		t.Fatalf("message does not name the replicate: %v", err)
	}
}
