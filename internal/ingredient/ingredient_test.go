package ingredient

import (
	"strings"
	"testing"
)

func TestBuiltinCardinality(t *testing.T) {
	lex := Builtin()
	if lex.Len() != 721 {
		t.Fatalf("built-in lexicon has %d entities, want 721 (paper, §II)", lex.Len())
	}
	compounds := 0
	for _, e := range lex.All() {
		if e.Compound {
			compounds++
		}
	}
	if compounds != 96 {
		t.Fatalf("built-in lexicon has %d compound entities, want 96 (paper, §II)", compounds)
	}
}

func TestBuiltinAllCategoriesPopulated(t *testing.T) {
	counts := Builtin().CategoryCounts()
	for _, c := range AllCategories() {
		if counts[c] == 0 {
			t.Errorf("category %s has no entities", c)
		}
	}
}

func TestBuiltinIsSingleton(t *testing.T) {
	if Builtin() != Builtin() {
		t.Fatal("Builtin must return the same lexicon instance")
	}
}

// TestTableIIngredientsPresent verifies that every ingredient named in the
// paper's Table I (top-5 overrepresented per cuisine) resolves in the
// built-in lexicon.
func TestTableIIngredientsPresent(t *testing.T) {
	names := []string{
		"cumin", "cinnamon", "olive", "cilantro", "paprika",
		"butter", "egg", "sugar", "flour", "coconut",
		"potato", "cream", "baking powder", "vanilla",
		"lime", "rum", "pineapple", "allspice", "thyme",
		"soybean sauce", "sesame", "ginger", "corn", "chicken",
		"swiss cheese", "salt", "cayenne", "turmeric", "garam masala",
		"feta cheese", "oregano", "lemon juice", "tomato",
		"parmesan cheese", "basil", "garlic", "vinegar", "sake",
		"tortilla", "parsley", "mint", "milk", "beef", "onion",
		"pepper", "mushroom", "fish", "coconut milk", "mustard",
		"macaroni", "celery",
	}
	lex := Builtin()
	for _, n := range names {
		if _, ok := lex.Lookup(n); !ok {
			t.Errorf("Table I ingredient %q missing from lexicon", n)
		}
	}
}

func TestLookupAliases(t *testing.T) {
	lex := Builtin()
	cases := []struct{ alias, canonical string }{
		{"scallion", "green onion"},
		{"coriander leaves", "cilantro"},
		{"soy sauce", "soybean sauce"},
		{"courgette", "zucchini"},
		{"garbanzo bean", "chickpea"},
		{"aubergine", "eggplant"},
		{"feta", "feta cheese"},
		{"prawns", "shrimp"},
	}
	for _, c := range cases {
		id, ok := lex.Lookup(c.alias)
		if !ok {
			t.Errorf("alias %q not found", c.alias)
			continue
		}
		if got := lex.Name(id); got != c.canonical {
			t.Errorf("alias %q resolved to %q, want %q", c.alias, got, c.canonical)
		}
	}
}

func TestLookupCaseAndSpace(t *testing.T) {
	lex := Builtin()
	id1, ok1 := lex.Lookup("  Garlic ")
	id2, ok2 := lex.Lookup("garlic")
	if !ok1 || !ok2 || id1 != id2 {
		t.Fatal("lookup must be case- and whitespace-insensitive")
	}
}

func TestLookupMiss(t *testing.T) {
	if id, ok := Builtin().Lookup("unobtainium"); ok || id != 0 {
		t.Fatalf("unexpected hit: id=%d ok=%v", id, ok)
	}
}

func TestMustIDPanicsOnMiss(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustID on a missing name must panic")
		}
	}()
	Builtin().MustID("unobtainium")
}

func TestCategoryAssignments(t *testing.T) {
	lex := Builtin()
	cases := []struct {
		name string
		cat  Category
	}{
		{"tomato", Vegetable},
		{"butter", Dairy},
		{"chickpea", Legume},
		{"corn", Maize},
		{"flour", Cereal},
		{"chicken", Meat},
		{"sesame", NutsAndSeeds},
		{"olive oil", Plant},
		{"salmon", Fish},
		{"shrimp", Seafood},
		{"cumin", Spice},
		{"tortilla", Bakery},
		{"rum", BeverageAlcoholic},
		{"water", Beverage},
		{"peppermint oil", EssentialOil},
		{"lavender", Flower},
		{"olive", Fruit},
		{"mushroom", Fungus},
		{"basil", Herb},
		{"salt", Additive},
		{"pesto", Dish},
	}
	for _, c := range cases {
		id := lex.MustID(c.name)
		if got := lex.CategoryOf(id); got != c.cat {
			t.Errorf("%s categorized as %s, want %s", c.name, got, c.cat)
		}
	}
}

func TestByCategoryConsistent(t *testing.T) {
	lex := Builtin()
	total := 0
	for _, c := range AllCategories() {
		for _, id := range lex.ByCategory(c) {
			if lex.CategoryOf(id) != c {
				t.Fatalf("entity %s in wrong category bucket", lex.Name(id))
			}
			total++
		}
	}
	if total != lex.Len() {
		t.Fatalf("category buckets cover %d entities, want %d", total, lex.Len())
	}
	if ByCatInvalid := lex.ByCategory(Category(99)); ByCatInvalid != nil {
		t.Fatal("invalid category must return nil")
	}
}

func TestIDsAreDense(t *testing.T) {
	lex := Builtin()
	for i, e := range lex.All() {
		if int(e.ID) != i {
			t.Fatalf("entity %q has ID %d at position %d", e.Name, e.ID, i)
		}
	}
}

func TestCompoundsKnown(t *testing.T) {
	lex := Builtin()
	// The paper names these as examples of compound ingredients.
	for _, n := range []string{"tomato puree", "ginger garlic paste"} {
		id, ok := lex.Lookup(n)
		if !ok {
			t.Fatalf("compound %q missing", n)
		}
		if !lex.Get(id).Compound {
			t.Errorf("%q must be marked compound", n)
		}
	}
	compounds := 0
	for _, e := range lex.All() {
		if e.Compound {
			compounds++
		}
	}
	if compounds != 96 {
		t.Fatalf("lexicon marks %d entities compound, want 96", compounds)
	}
}

func TestNamesRoundTrip(t *testing.T) {
	lex := Builtin()
	ids := lex.IDs()
	names := lex.Names(ids)
	for i, n := range names {
		id, ok := lex.Lookup(n)
		if !ok || id != ids[i] {
			t.Fatalf("name %q does not round-trip", n)
		}
	}
}

func TestNewLexiconRejectsDuplicates(t *testing.T) {
	_, err := NewLexicon([]Ingredient{
		{Name: "tomato", Category: Vegetable},
		{Name: "Tomato", Category: Vegetable},
	})
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate names must be rejected, got %v", err)
	}
}

func TestNewLexiconRejectsDuplicateAlias(t *testing.T) {
	_, err := NewLexicon([]Ingredient{
		{Name: "tomato", Category: Vegetable, Aliases: []string{"pomodoro"}},
		{Name: "cherry tomato", Category: Vegetable, Aliases: []string{"pomodoro"}},
	})
	if err == nil {
		t.Fatal("duplicate alias must be rejected")
	}
}

func TestNewLexiconRejectsEmptyName(t *testing.T) {
	if _, err := NewLexicon([]Ingredient{{Name: "  ", Category: Vegetable}}); err == nil {
		t.Fatal("empty name must be rejected")
	}
}

func TestNewLexiconRejectsInvalidCategory(t *testing.T) {
	if _, err := NewLexicon([]Ingredient{{Name: "x", Category: Category(99)}}); err == nil {
		t.Fatal("invalid category must be rejected")
	}
}

func TestNewLexiconSelfAliasDropped(t *testing.T) {
	lex, err := NewLexicon([]Ingredient{{Name: "tomato", Category: Vegetable, Aliases: []string{"tomato", "pomodoro"}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := lex.Get(0).Aliases; len(got) != 1 || got[0] != "pomodoro" {
		t.Fatalf("self-alias must be dropped, got %v", got)
	}
}

func TestMaxNameWords(t *testing.T) {
	lex, err := NewLexicon([]Ingredient{
		{Name: "tomato", Category: Vegetable},
		{Name: "  Green  Bell Pepper ", Category: Vegetable, Aliases: []string{"sweet green bell pepper", "capsicum"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := lex.MaxNameWords(); got != 4 {
		t.Fatalf("MaxNameWords = %d, want 4 (the longest alias)", got)
	}
}

func TestCategoryString(t *testing.T) {
	if Vegetable.String() != "Vegetable" || NutsAndSeeds.String() != "Nuts and Seeds" {
		t.Fatal("category display names wrong")
	}
	if got := Category(200).String(); !strings.Contains(got, "200") {
		t.Fatalf("out-of-range String = %q", got)
	}
}

func TestAllCategoriesCount(t *testing.T) {
	if len(AllCategories()) != 21 || NumCategories != 21 {
		t.Fatal("the paper defines exactly 21 categories")
	}
}
