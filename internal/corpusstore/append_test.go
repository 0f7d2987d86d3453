package corpusstore

import (
	"bytes"
	"fmt"
	"testing"

	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/recipe"
)

// appendRecords renders n raw JSONL records for lineage step step, with
// every optional field set so the stored bytes carry names, continents
// and countries.
func appendRecords(step, n int) []byte {
	ingredients := []string{"tomato", "basil", "rice", "garlic", "oregano", "cumin", "thyme", "saffron", "ginger", "onion"}
	regions := []string{"ITA", "KOR", "JPN"}
	var buf bytes.Buffer
	for j := 0; j < n; j++ {
		k := step*7 + j
		fmt.Fprintf(&buf, `{"title":"dish %d-%d","continent":"C%d","region":%q,"country":"K%d","ingredients":[%q,%q,%q]}`+"\n",
			step, j, k%2, regions[k%3], k%5,
			ingredients[k%10], ingredients[(k+3)%10], ingredients[(k+6)%10])
	}
	return buf.Bytes()
}

// appendOnto streams records onto parent, failing the test on any error
// or skipped record.
func appendOnto(t *testing.T, parent *recipe.Corpus, records []byte) *recipe.Corpus {
	t.Helper()
	res, err := Append(parent, bytes.NewReader(records), ImportOptions{Format: FormatJSONL})
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped != 0 || res.Stats.Accepted == 0 {
		t.Fatalf("append accepted %d, skipped %d", res.Stats.Accepted, res.Skipped)
	}
	return res.Corpus
}

// checkStored asserts that the store holds exactly corpus.WriteJSONL
// under info.ID, and that those bytes load back to the same ID.
func checkStored(t *testing.T, store Store, info Info, corpus *recipe.Corpus) {
	t.Helper()
	var want bytes.Buffer
	if err := corpus.WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}
	got, stored, err := store.Get(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("%s: stored bytes differ from WriteJSONL (%d vs %d bytes)", info.Ref(), len(got), want.Len())
	}
	if info.Bytes != int64(want.Len()) || stored.Bytes != info.Bytes {
		t.Fatalf("%s: Info.Bytes %d, stored %d, WriteJSONL %d", info.Ref(), info.Bytes, stored.Bytes, want.Len())
	}
	fresh, err := recipe.ReadJSONL(bytes.NewReader(got), corpus.Lexicon())
	if err != nil {
		t.Fatal(err)
	}
	if fp := fresh.Fingerprint(); fp != info.ID || fp != corpus.Fingerprint() {
		t.Fatalf("%s: stored bytes load as %s, registered as %s", info.Ref(), fp, info.ID)
	}
}

// TestRegisterAppendedLineage: along a lineage of appends, each version
// is stored as exactly its full WriteJSONL with its fresh-load ID, on
// both stores, and every Register after the first reads its parent's
// stored bytes instead of encoding them again.
func TestRegisterAppendedLineage(t *testing.T) {
	stores := map[string]func(t *testing.T) Store{
		"mem": func(*testing.T) Store { return NewMemStore(0) },
		"fs": func(t *testing.T) Store {
			s, err := OpenFS(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	}
	for name, open := range stores {
		t.Run(name, func(t *testing.T) {
			store := &countingStore{Store: open(t)}
			reg, err := NewRegistry(store, nil)
			if err != nil {
				t.Fatal(err)
			}
			cur := appendOnto(t, recipe.NewCorpus(reg.Lexicon()), appendRecords(0, 12))
			info, err := reg.Register("lineage", cur)
			if err != nil {
				t.Fatal(err)
			}
			checkStored(t, store, info, cur)
			for step := 1; step <= 50; step++ {
				child := appendOnto(t, cur, appendRecords(step, 1+step%3))
				gets := store.gets.Load()
				if info, err = reg.Register("lineage", child); err != nil {
					t.Fatal(err)
				}
				if got := store.gets.Load() - gets; got != 1 {
					t.Fatalf("step %d: Register made %d store reads, want 1 (the parent's bytes)", step, got)
				}
				if info.Version != step+1 || info.Recipes != child.Len() {
					t.Fatalf("step %d registered as %+v", step, info)
				}
				checkStored(t, store, info, child)
				cur = child
			}
		})
	}
}

// TestRegisterAppendFallsBack: every case where the parent's stored
// bytes cannot be shown to be the child's prefix encodes from recipe 0,
// and the stored bytes stay exactly WriteJSONL's.
func TestRegisterAppendFallsBack(t *testing.T) {
	setup := func(t *testing.T, budget int64) (*countingStore, *Registry, *recipe.Corpus) {
		t.Helper()
		store := &countingStore{Store: NewMemStore(0)}
		reg, err := newRegistry(store, nil, budget)
		if err != nil {
			t.Fatal(err)
		}
		parent := appendOnto(t, recipe.NewCorpus(reg.Lexicon()), appendRecords(0, 9))
		if _, err := reg.Register("base", parent); err != nil {
			t.Fatal(err)
		}
		return store, reg, parent
	}
	register := func(t *testing.T, store *countingStore, reg *Registry, child *recipe.Corpus) {
		t.Helper()
		gets := store.gets.Load()
		info, err := reg.Register("base", child)
		if err != nil {
			t.Fatal(err)
		}
		if got := store.gets.Load() - gets; got != 0 {
			t.Fatalf("Register read %d stored corpora, want a full encode", got)
		}
		checkStored(t, store, info, child)
	}

	t.Run("evicted", func(t *testing.T) {
		// A one-byte memo keeps nothing, so no parent is ever memoized.
		store, reg, parent := setup(t, 1)
		register(t, store, reg, appendOnto(t, parent, appendRecords(1, 2)))
	})
	t.Run("deleted", func(t *testing.T) {
		store, reg, parent := setup(t, memoBudget)
		child := appendOnto(t, parent, appendRecords(1, 2))
		if _, err := reg.Delete("base@1"); err != nil {
			t.Fatal(err)
		}
		register(t, store, reg, child)
	})
	t.Run("other-names", func(t *testing.T) {
		// Same regions and ingredients, so the same fingerprint, but
		// other names: the memoized corpus for that fingerprint is not
		// this clone's prefix.
		store, reg, parent := setup(t, memoBudget)
		renamed := appendOnto(t, recipe.NewCorpus(reg.Lexicon()),
			bytes.ReplaceAll(appendRecords(0, 9), []byte(`"dish `), []byte(`"plate `)))
		if renamed.Fingerprint() != parent.Fingerprint() {
			t.Fatal("renamed corpus changed fingerprint")
		}
		register(t, store, reg, appendOnto(t, renamed, appendRecords(1, 2)))
	})
	t.Run("loaded", func(t *testing.T) {
		// A parent parsed from the store is not known to re-encode to
		// its stored bytes: these spell fields in another order and
		// give the recipes IDs that ReadJSONL reassigns.
		mem := NewMemStore(0)
		lex := ingredient.Builtin()
		data := []byte(`{"region":"ITA","ingredients":[1,2],"id":7}` + "\n" + `{"ingredients":[3,4,5],"region":"KOR","id":9}` + "\n")
		parsed, err := recipe.ReadJSONL(bytes.NewReader(data), lex)
		if err != nil {
			t.Fatal(err)
		}
		if err := mem.Put(Info{ID: parsed.Fingerprint(), Name: "base", Version: 1}, data); err != nil {
			t.Fatal(err)
		}
		store := &countingStore{Store: mem}
		reg, err := NewRegistry(store, nil)
		if err != nil {
			t.Fatal(err)
		}
		parent, _, err := reg.Resolve("base")
		if err != nil {
			t.Fatal(err)
		}
		register(t, store, reg, appendOnto(t, parent, appendRecords(1, 2)))
	})
}
