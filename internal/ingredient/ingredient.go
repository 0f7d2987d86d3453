package ingredient

import (
	"fmt"
	"strings"
)

// ID identifies an ingredient entity within a Lexicon. IDs are dense
// indices in [0, Lexicon.Len()) so analyses can use them directly as slice
// offsets.
type ID int32

// None is the ID returned when resolution fails.
const None ID = -1

// Ingredient is a canonical ingredient entity.
type Ingredient struct {
	ID       ID
	Name     string // canonical display name, lower-case
	Category Category
	Aliases  []string // alternative surface forms, lower-case
	Compound bool     // one of the 96 multi-ingredient compound entities
}

// Lexicon is an immutable collection of ingredient entities with name and
// category indexes. Construct one with NewLexicon or Builtin.
type Lexicon struct {
	entities   []Ingredient
	byName     map[string]ID // canonical names and aliases
	byCategory [NumCategories][]ID
	maxWords   int // words in the longest name or alias
}

// NewLexicon builds a lexicon from the given entities. Entity IDs are
// assigned in input order. Duplicate canonical names, duplicate aliases,
// empty names and invalid categories are rejected.
func NewLexicon(entities []Ingredient) (*Lexicon, error) {
	lex := &Lexicon{
		entities: make([]Ingredient, len(entities)),
		byName:   make(map[string]ID, len(entities)*2),
	}
	for i, e := range entities {
		e.ID = ID(i)
		e.Name = strings.ToLower(strings.TrimSpace(e.Name))
		if e.Name == "" {
			return nil, fmt.Errorf("ingredient: entity %d has an empty name", i)
		}
		if !e.Category.Valid() {
			return nil, fmt.Errorf("ingredient: entity %q has invalid category", e.Name)
		}
		if prev, dup := lex.byName[e.Name]; dup {
			return nil, fmt.Errorf("ingredient: duplicate name %q (ids %d, %d)", e.Name, prev, i)
		}
		lex.byName[e.Name] = e.ID
		lex.maxWords = max(lex.maxWords, len(strings.Fields(e.Name)))
		cleanAliases := make([]string, 0, len(e.Aliases))
		for _, a := range e.Aliases {
			a = strings.ToLower(strings.TrimSpace(a))
			if a == "" || a == e.Name {
				continue
			}
			if prev, dup := lex.byName[a]; dup {
				return nil, fmt.Errorf("ingredient: alias %q of %q already maps to id %d", a, e.Name, prev)
			}
			lex.byName[a] = e.ID
			lex.maxWords = max(lex.maxWords, len(strings.Fields(a)))
			cleanAliases = append(cleanAliases, a)
		}
		e.Aliases = cleanAliases
		lex.entities[i] = e
		lex.byCategory[e.Category] = append(lex.byCategory[e.Category], e.ID)
	}
	return lex, nil
}

// Len returns the number of entities in the lexicon.
func (l *Lexicon) Len() int { return len(l.entities) }

// MaxNameWords returns the number of words in the lexicon's longest
// canonical name or alias, the widest phrase a free-text match needs to
// try. The lexicon is immutable, so NewLexicon counts it once.
func (l *Lexicon) MaxNameWords() int { return l.maxWords }

// Get returns the entity with the given ID. It panics on an out-of-range
// ID; IDs only originate from this lexicon, so an invalid one is a bug.
func (l *Lexicon) Get(id ID) Ingredient {
	return l.entities[id]
}

// Name returns the canonical name for id.
func (l *Lexicon) Name(id ID) string { return l.entities[id].Name }

// CategoryOf returns the category of the given entity.
func (l *Lexicon) CategoryOf(id ID) Category { return l.entities[id].Category }

// Lookup resolves an exact canonical name or alias (case-insensitive) to
// an ID, reporting whether it was found. Free-text resolution with
// normalization and longest-match lives in package textnorm.
func (l *Lexicon) Lookup(name string) (ID, bool) {
	id, ok := l.byName[strings.ToLower(strings.TrimSpace(name))]
	return id, ok
}

// MustID resolves a canonical name or alias and panics if it is absent.
// Intended for static references to known-present entities (calibration
// tables, tests).
func (l *Lexicon) MustID(name string) ID {
	id, ok := l.Lookup(name)
	if !ok {
		panic(fmt.Sprintf("ingredient: %q not in lexicon", name))
	}
	return id
}

// ByCategory returns the IDs of all entities in the given category, in ID
// order. The returned slice is shared; callers must not modify it.
func (l *Lexicon) ByCategory(c Category) []ID {
	if !c.Valid() {
		return nil
	}
	return l.byCategory[c]
}

// CategoryCounts returns the number of entities per category.
func (l *Lexicon) CategoryCounts() [NumCategories]int {
	var out [NumCategories]int
	for c := range l.byCategory {
		out[c] = len(l.byCategory[c])
	}
	return out
}

// All returns a copy of the entity list in ID order.
func (l *Lexicon) All() []Ingredient {
	return append([]Ingredient(nil), l.entities...)
}

// IDs returns all entity IDs in order. The slice is freshly allocated.
func (l *Lexicon) IDs() []ID {
	out := make([]ID, len(l.entities))
	for i := range out {
		out[i] = ID(i)
	}
	return out
}

// Names returns the canonical names of the given IDs.
func (l *Lexicon) Names(ids []ID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = l.Name(id)
	}
	return out
}
