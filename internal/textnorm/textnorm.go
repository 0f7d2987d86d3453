// Package textnorm implements the aliasing protocol used to map free-text
// ingredient mentions ("2 cups finely chopped fresh basil leaves") onto
// canonical lexicon entities, following the construction described by
// Bagler & Singh (ICDEW 2018) that the paper adopts: normalize the
// mention, strip quantities, units and preparation descriptors, then
// resolve the longest matching phrase against the lexicon's names and
// aliases.
package textnorm

import (
	"strings"
	"unicode"

	"cuisinevol/internal/ingredient"
)

// stopwords are preparation descriptors, units and filler terms removed
// before phrase matching. Multi-word food names are matched before
// stopword removal can split them, so removing e.g. "green" here is not
// needed (and would be wrong: "green onion").
var stopwords = map[string]struct{}{
	// quantities & units
	"cup": {}, "cups": {}, "tablespoon": {}, "tablespoons": {}, "tbsp": {},
	"teaspoon": {}, "teaspoons": {}, "tsp": {}, "ounce": {}, "ounces": {},
	"oz": {}, "pound": {}, "pounds": {}, "lb": {}, "lbs": {}, "gram": {},
	"grams": {}, "g": {}, "kg": {}, "kilogram": {}, "ml": {}, "l": {},
	"liter": {}, "litre": {}, "quart": {}, "quarts": {}, "pint": {},
	"pints": {}, "gallon": {}, "dash": {}, "pinch": {}, "handful": {},
	"piece": {}, "pieces": {}, "slice": {}, "slices": {}, "clove": {},
	"cloves": {}, "stick": {}, "sticks": {}, "can": {}, "cans": {},
	"jar": {}, "package": {}, "packages": {}, "packet": {}, "bunch": {},
	"bunches": {}, "sprig": {}, "sprigs": {}, "stalk": {}, "stalks": {},
	"head": {}, "heads": {}, "knob": {}, "inch": {}, "cm": {},
	// preparation descriptors
	"chopped": {}, "diced": {}, "minced": {}, "sliced": {}, "grated": {},
	"shredded": {}, "crushed": {}, "ground": {}, "finely": {}, "coarsely": {},
	"roughly": {}, "thinly": {}, "freshly": {}, "fresh": {}, "frozen": {},
	"thawed": {}, "canned": {}, "tinned": {}, "cooked": {}, "uncooked": {},
	"raw": {}, "peeled": {}, "seeded": {}, "deseeded": {}, "cored": {},
	"trimmed": {}, "halved": {}, "quartered": {}, "cubed": {}, "julienned": {},
	"melted": {}, "softened": {}, "room": {}, "temperature": {},
	"beaten": {}, "whisked": {}, "sifted": {}, "packed": {}, "divided": {},
	"optional": {}, "taste": {}, "needed": {}, "plus": {}, "more": {},
	"extra": {}, "additional": {}, "garnish": {}, "serving": {}, "about": {},
	"approximately": {}, "small": {}, "medium": {}, "large": {}, "ripe": {},
	"boneless": {}, "skinless": {}, "bone-in": {}, "lean": {}, "drained": {},
	"rinsed": {}, "washed": {}, "toasted": {}, "roasted": {}, "blanched": {},
	"or": {}, "and": {}, "of": {}, "the": {}, "a": {}, "an": {}, "to": {},
	"for": {}, "into": {}, "with": {}, "without": {}, "such": {}, "as": {},
	"like": {}, "preferably": {}, "if": {}, "desired": {}, "cut": {},
	"at": {}, "in": {}, "each": {}, "few": {}, "some": {}, "your": {},
	"favorite": {}, "favourite": {}, "good": {}, "quality": {}, "best": {},
	"organic": {}, "free-range": {}, "low-fat": {}, "low-sodium": {},
	"reduced-fat": {}, "fat-free": {}, "nonfat": {}, "unsweetened": {},
	"sweetened": {}, "homemade": {}, "store-bought": {}, "prepared": {},
	"instant": {}, "quick": {}, "day-old": {}, "leftover": {}, "firm": {},
	"soft": {}, "hard": {}, "mild": {}, "hot": {}, "cold": {}, "warm": {},
	"boiling": {}, "chilled": {}, "thin": {}, "thick": {}, "heaping": {},
	"level": {}, "scant": {}, "generous": {}, "loosely": {}, "lightly": {},
	"well": {}, "very": {}, "needle": {}, "removed": {}, "discarded": {},
	"reserved": {}, "separated": {}, "split": {}, "torn": {}, "whole": {},
}

// Normalizer resolves free-text ingredient mentions against a lexicon.
// Construct with NewNormalizer; safe for concurrent use.
type Normalizer struct {
	lex *ingredient.Lexicon
	// maxPhraseLen is the longest (in tokens) name or alias in the
	// lexicon; bounds the n-gram search.
	maxPhraseLen int
}

// NewNormalizer builds a Normalizer over the given lexicon. It is O(1):
// the lexicon counted its longest phrase when it was built.
func NewNormalizer(lex *ingredient.Lexicon) *Normalizer {
	return &Normalizer{lex: lex, maxPhraseLen: max(1, lex.MaxNameWords())}
}

// Tokenize lower-cases the mention, removes punctuation (keeping
// intra-word hyphens and apostrophes) and parenthesized asides, and
// splits into tokens. Purely numeric tokens (quantities, fractions) are
// dropped, but alphanumeric names like "7up" survive.
func Tokenize(mention string) []string {
	var b strings.Builder
	depth := 0
	for _, r := range strings.ToLower(mention) {
		switch {
		case r == '(' || r == '[':
			depth++
		case r == ')' || r == ']':
			if depth > 0 {
				depth--
			}
		case depth > 0:
			// skip parenthesized aside
		case unicode.IsLetter(r) || unicode.IsDigit(r) || r == '-' || r == '\'':
			b.WriteRune(r)
		case unicode.IsSpace(r), r == '/', r == ',', r == ';', r == '+':
			b.WriteRune(' ')
		default:
			// fraction glyphs (½), percent signs, etc. are dropped
		}
	}
	fields := strings.Fields(b.String())
	out := fields[:0]
	for _, f := range fields {
		f = strings.Trim(f, "-'")
		if f == "" || !hasLetter(f) {
			continue
		}
		out = append(out, f)
	}
	return out
}

func hasLetter(s string) bool {
	for _, r := range s {
		if unicode.IsLetter(r) {
			return true
		}
	}
	return false
}

// singularExceptions are tokens that end in a plural-looking suffix but
// are themselves singular mass nouns.
var singularExceptions = map[string]struct{}{
	"molasses": {}, "hummus": {}, "couscous": {}, "asparagus": {},
	"watercress": {}, "swiss": {}, "grits": {}, "oats": {}, "dashi": {},
}

// Singular returns a naive singular form of an English token: it folds
// the common plural suffixes used by ingredient nouns. It never touches
// tokens of length <= 3 to avoid mangling words like "gas".
func Singular(tok string) string {
	if _, exc := singularExceptions[tok]; exc {
		return tok
	}
	n := len(tok)
	switch {
	case n > 4 && strings.HasSuffix(tok, "oes"): // tomatoes, potatoes
		return tok[:n-2]
	case n > 4 && strings.HasSuffix(tok, "ies"): // berries -> berry
		return tok[:n-3] + "y"
	case n > 4 && (strings.HasSuffix(tok, "ches") || strings.HasSuffix(tok, "shes") ||
		strings.HasSuffix(tok, "sses") || strings.HasSuffix(tok, "xes")):
		return tok[:n-2]
	case n > 3 && strings.HasSuffix(tok, "s") && !strings.HasSuffix(tok, "ss") &&
		!strings.HasSuffix(tok, "us") && !strings.HasSuffix(tok, "is"):
		return tok[:n-1]
	default:
		return tok
	}
}

// Resolve maps a free-text ingredient mention to a lexicon entity using
// a longest-match scan:
//
//  1. tokenize, dropping quantities and punctuation; derive a second
//     token sequence with preparation/unit stopwords removed;
//  2. slide an n-gram window from the longest lexicon phrase length down
//     to 1; at each length try the stopword-stripped windows first, then
//     the raw windows (so names containing stopword-colliding words —
//     "hot sauce", "black gram", "clove oil", "attar of roses" — still
//     resolve, while a longer raw match like "crushed tomatoes" beats a
//     shorter stripped one like "tomatoes");
//  3. within a length, prefer the rightmost window (English noun phrases
//     are head-final: in "chicken broth", "broth" is the head) and try
//     the singularized form of every window alongside the verbatim one.
//
// It returns ingredient.None and false when nothing matches.
func (n *Normalizer) Resolve(mention string) (ingredient.ID, bool) {
	toks := Tokenize(mention)
	if len(toks) == 0 {
		return ingredient.None, false
	}
	content := make([]string, 0, len(toks))
	for _, t := range toks {
		if _, stop := stopwords[t]; !stop {
			content = append(content, t)
		}
	}
	sing := singularized(content)
	rawSing := singularized(toks)

	maxLen := n.maxPhraseLen
	if maxLen > len(toks) {
		maxLen = len(toks)
	}
	for l := maxLen; l >= 1; l-- {
		if id, ok := n.matchAt(content, sing, l); ok {
			return id, true
		}
		if id, ok := n.matchAt(toks, rawSing, l); ok {
			return id, true
		}
	}
	return ingredient.None, false
}

func singularized(toks []string) []string {
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = Singular(t)
	}
	return out
}

// matchAt scans all windows of length l, rightmost first, trying the
// verbatim and singularized form of each.
func (n *Normalizer) matchAt(toks, sing []string, l int) (ingredient.ID, bool) {
	for start := len(toks) - l; start >= 0; start-- {
		if id, ok := n.lex.Lookup(strings.Join(toks[start:start+l], " ")); ok {
			return id, true
		}
		if id, ok := n.lex.Lookup(strings.Join(sing[start:start+l], " ")); ok {
			return id, true
		}
	}
	return ingredient.None, false
}

// ResolveAll resolves each mention in the list, dropping duplicates and
// unresolvable mentions. The result preserves first-occurrence order.
// The second return value counts mentions that failed to resolve.
func (n *Normalizer) ResolveAll(mentions []string) ([]ingredient.ID, int) {
	seen := make(map[ingredient.ID]struct{}, len(mentions))
	out := make([]ingredient.ID, 0, len(mentions))
	misses := 0
	for _, m := range mentions {
		id, ok := n.Resolve(m)
		if !ok {
			misses++
			continue
		}
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		out = append(out, id)
	}
	return out, misses
}
