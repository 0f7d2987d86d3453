// Package recipe defines the Recipe record and the Corpus store used by
// every analysis: an indexed, append-only collection of recipes with
// per-region views and summary statistics, plus JSON and CSV
// serialization.
package recipe

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"sync"

	"cuisinevol/internal/ingredient"
)

// Recipe is a single recipe record. Ingredients is a set (no duplicates),
// stored in insertion order. Region is the cuisine code (the paper found
// the 'region' level of the geo annotation to be the ideal granularity and
// uses it as the cuisine of a recipe).
type Recipe struct {
	ID          int             `json:"id"`
	Name        string          `json:"name,omitempty"`
	Region      string          `json:"region"`
	Continent   string          `json:"continent,omitempty"`
	Country     string          `json:"country,omitempty"`
	Ingredients []ingredient.ID `json:"ingredients"`
}

// Size returns the number of ingredients in the recipe.
func (r Recipe) Size() int { return len(r.Ingredients) }

// HasIngredient reports whether the recipe contains the given ingredient.
func (r Recipe) HasIngredient(id ingredient.ID) bool {
	for _, x := range r.Ingredients {
		if x == id {
			return true
		}
	}
	return false
}

// Categories returns the set of ingredient categories present in the
// recipe, resolved against lex, in ascending category order.
func (r Recipe) Categories(lex *ingredient.Lexicon) []ingredient.Category {
	out := make([]ingredient.Category, 0, 8)
	for c, ok := range r.categorySet(lex) {
		if ok {
			out = append(out, ingredient.Category(c))
		}
	}
	return out
}

// categorySet marks the categories of the recipe's ingredients.
func (r Recipe) categorySet(lex *ingredient.Lexicon) (present [ingredient.NumCategories]bool) {
	for _, id := range r.Ingredients {
		present[lex.CategoryOf(id)] = true
	}
	return present
}

// CategoryCounts returns, for each category, how many of the recipe's
// ingredients belong to it.
func (r Recipe) CategoryCounts(lex *ingredient.Lexicon) [ingredient.NumCategories]int {
	var counts [ingredient.NumCategories]int
	for _, id := range r.Ingredients {
		counts[lex.CategoryOf(id)]++
	}
	return counts
}

// Validate checks structural invariants: a non-empty region, at least one
// ingredient, no duplicate ingredients, and all IDs within the lexicon.
func (r Recipe) Validate(lex *ingredient.Lexicon) error {
	if r.Region == "" {
		return fmt.Errorf("recipe %d: empty region", r.ID)
	}
	if len(r.Ingredients) == 0 {
		return fmt.Errorf("recipe %d: no ingredients", r.ID)
	}
	seen := make(map[ingredient.ID]struct{}, len(r.Ingredients))
	for _, id := range r.Ingredients {
		if id < 0 || int(id) >= lex.Len() {
			return fmt.Errorf("recipe %d: ingredient id %d outside lexicon", r.ID, id)
		}
		if _, dup := seen[id]; dup {
			return fmt.Errorf("recipe %d: duplicate ingredient %q", r.ID, lex.Name(id))
		}
		seen[id] = struct{}{}
	}
	return nil
}

// Corpus is an append-only collection of recipes indexed by region and by
// ingredient. It is not safe for concurrent mutation; concurrent reads
// are safe once building is complete.
type Corpus struct {
	lex      *ingredient.Lexicon
	recipes  []Recipe
	byRegion map[string][]int // region code -> recipe indices, in insertion order

	// origin is the fingerprint memo Clone copied from the source: the
	// fingerprint of the first originLen recipes (see ClonedFrom).
	origin    string
	originLen int

	fpMu    sync.Mutex
	fp      string // memoized content fingerprint
	fpLen   int    // corpus length the memo was computed at
	fpState []byte // marshalled SHA-256 state after fpLen recipes
}

// NewCorpus creates an empty corpus over the given lexicon.
func NewCorpus(lex *ingredient.Lexicon) *Corpus {
	return &Corpus{lex: lex, byRegion: make(map[string][]int)}
}

// Lexicon returns the lexicon the corpus is defined over.
func (c *Corpus) Lexicon() *ingredient.Lexicon { return c.lex }

// Add validates and appends a recipe, assigning it the next dense ID.
func (c *Corpus) Add(r Recipe) error {
	r.ID = len(c.recipes)
	if err := r.Validate(c.lex); err != nil {
		return err
	}
	c.byRegion[r.Region] = append(c.byRegion[r.Region], r.ID)
	c.recipes = append(c.recipes, r)
	return nil
}

// MustAdd appends a recipe and panics on validation failure; intended for
// generators whose output is valid by construction.
func (c *Corpus) MustAdd(r Recipe) {
	if err := c.Add(r); err != nil {
		panic("recipe: " + err.Error())
	}
}

// Len returns the total number of recipes.
func (c *Corpus) Len() int { return len(c.recipes) }

// Get returns the recipe with the given dense ID.
func (c *Corpus) Get(id int) Recipe { return c.recipes[id] }

// Fingerprint returns the hex content hash of the corpus — every
// recipe's region and ingredient set in corpus order — so caches can
// key on the data actually served, not on how it was obtained: a corpus
// loaded from disk and an identical generated one share a fingerprint,
// and any edit changes it. The hash is memoized against the corpus
// length together with the SHA-256 state it ended in; the corpus is
// append-only, so a longer corpus (or a clone that grew) resumes that
// state and hashes only the recipes added since. Safe for concurrent
// use once building is complete.
func (c *Corpus) Fingerprint() string {
	c.fpMu.Lock()
	defer c.fpMu.Unlock()
	if c.fp != "" && c.fpLen == len(c.recipes) {
		return c.fp
	}
	h := sha256.New()
	from := 0
	if c.fpState != nil {
		if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(c.fpState); err == nil {
			from = c.fpLen
		} else {
			h.Reset()
		}
	}
	var buf [4]byte
	for i := from; i < len(c.recipes); i++ {
		r := &c.recipes[i]
		h.Write([]byte(r.Region))
		h.Write([]byte{0})
		for _, id := range r.Ingredients {
			binary.LittleEndian.PutUint32(buf[:], uint32(id))
			h.Write(buf[:])
		}
		h.Write([]byte{0xff})
	}
	// A state that fails to marshal is dropped: the next call then
	// hashes from recipe 0, which is slower but just as exact.
	c.fpState, _ = h.(encoding.BinaryMarshaler).MarshalBinary()
	c.fp = hex.EncodeToString(h.Sum(nil)[:16])
	c.fpLen = len(c.recipes)
	return c.fp
}

// Clone returns an independent corpus with the same recipes, for
// append-style derivation: the clone can keep growing without mutating
// the original. Recipe values are copied by value — the Ingredients
// slices are shared, which is safe because recipes are immutable once
// added — and the fingerprint memo carries over with its hash state, so
// a clone that grows hashes only its new recipes. The clone keeps no
// pointer to the original; ClonedFrom reports the memo it started from.
func (c *Corpus) Clone() *Corpus {
	c.fpMu.Lock()
	fp, fpLen, fpState := c.fp, c.fpLen, c.fpState
	c.fpMu.Unlock()
	out := &Corpus{
		lex:       c.lex,
		recipes:   append([]Recipe(nil), c.recipes...),
		byRegion:  make(map[string][]int, len(c.byRegion)),
		origin:    fp,
		originLen: fpLen,
		fp:        fp,
		fpLen:     fpLen,
		fpState:   fpState,
	}
	for region, idx := range c.byRegion {
		out.byRegion[region] = append([]int(nil), idx...)
	}
	return out
}

// ClonedFrom returns the fingerprint memo the corpus was cloned with:
// the fingerprint of its first n recipes, which it shares with the
// corpus Clone was called on. It returns "", 0 for a corpus Clone did
// not make, or one cloned from a corpus whose fingerprint was never
// computed.
func (c *Corpus) ClonedFrom() (fingerprint string, n int) {
	return c.origin, c.originLen
}

// TailView returns a view over the recipes appended at or after index
// from — the delta between a corpus and the ancestor it was cloned
// from. from is clamped to [0, Len].
func (c *Corpus) TailView(from int) View {
	if from < 0 {
		from = 0
	}
	if from > len(c.recipes) {
		from = len(c.recipes)
	}
	idx := make([]int, len(c.recipes)-from)
	for i := range idx {
		idx[i] = from + i
	}
	return View{corpus: c, indices: idx, region: ""}
}

// Regions returns the region codes present, sorted lexicographically.
func (c *Corpus) Regions() []string {
	out := make([]string, 0, len(c.byRegion))
	for code := range c.byRegion {
		out = append(out, code)
	}
	sort.Strings(out)
	return out
}

// RegionLen returns the number of recipes annotated with the region.
func (c *Corpus) RegionLen(region string) int { return len(c.byRegion[region]) }

// Region returns a read-only view over one region's recipes.
func (c *Corpus) Region(region string) View {
	return View{corpus: c, indices: c.byRegion[region], region: region}
}

// AllView returns a view spanning the whole corpus.
func (c *Corpus) AllView() View {
	idx := make([]int, len(c.recipes))
	for i := range idx {
		idx[i] = i
	}
	return View{corpus: c, indices: idx, region: ""}
}

// View is a read-only subset of a corpus (typically one region).
type View struct {
	corpus  *Corpus
	indices []int
	region  string
}

// Len returns the number of recipes in the view.
func (v View) Len() int { return len(v.indices) }

// Region returns the region code the view was created for ("" for the
// whole corpus).
func (v View) Region() string { return v.region }

// Lexicon returns the underlying lexicon.
func (v View) Lexicon() *ingredient.Lexicon { return v.corpus.lex }

// At returns the i-th recipe of the view.
func (v View) At(i int) Recipe { return v.corpus.recipes[v.indices[i]] }

// Each calls fn for every recipe in the view, stopping early if fn
// returns false.
func (v View) Each(fn func(Recipe) bool) {
	for _, idx := range v.indices {
		if !fn(v.corpus.recipes[idx]) {
			return
		}
	}
}

// Sizes returns the recipe sizes in view order.
func (v View) Sizes() []int {
	out := make([]int, len(v.indices))
	for i, idx := range v.indices {
		out[i] = len(v.corpus.recipes[idx].Ingredients)
	}
	return out
}

// MeanSize returns the average recipe size, or 0 for an empty view.
func (v View) MeanSize() float64 {
	if len(v.indices) == 0 {
		return 0
	}
	total := 0
	for _, idx := range v.indices {
		total += len(v.corpus.recipes[idx].Ingredients)
	}
	return float64(total) / float64(len(v.indices))
}

// IngredientRecipeCounts returns, for every lexicon entity, the number of
// view recipes that contain it (document frequency).
func (v View) IngredientRecipeCounts() []int {
	counts := make([]int, v.corpus.lex.Len())
	for _, idx := range v.indices {
		for _, id := range v.corpus.recipes[idx].Ingredients {
			counts[id]++
		}
	}
	return counts
}

// UniqueIngredients returns the number of distinct ingredients used by the
// view's recipes.
func (v View) UniqueIngredients() int {
	n := 0
	for _, c := range v.IngredientRecipeCounts() {
		if c > 0 {
			n++
		}
	}
	return n
}

// UsedIngredientIDs returns the IDs of all ingredients that appear in at
// least one recipe of the view, in ascending ID order.
func (v View) UsedIngredientIDs() []ingredient.ID {
	counts := v.IngredientRecipeCounts()
	out := make([]ingredient.ID, 0, 256)
	for id, c := range counts {
		if c > 0 {
			out = append(out, ingredient.ID(id))
		}
	}
	return out
}

// Transactions returns the view's recipes as ingredient-ID transactions
// (the representation consumed by the frequent-itemset miners). The inner
// slices are copies sorted ascending, carved from one shared arena with
// their capacity capped at their length, so appending to one never
// writes into the next.
func (v View) Transactions() [][]ingredient.ID {
	total := 0
	for _, idx := range v.indices {
		total += len(v.corpus.recipes[idx].Ingredients)
	}
	arena := make([]ingredient.ID, 0, total)
	out := make([][]ingredient.ID, len(v.indices))
	for i, idx := range v.indices {
		start := len(arena)
		arena = append(arena, v.corpus.recipes[idx].Ingredients...)
		out[i] = arena[start:len(arena):len(arena)]
		slices.Sort(out[i])
	}
	return out
}

// CategoryTransactions returns, per recipe, the sorted set of ingredient
// categories it uses, encoded as ingredient.ID-compatible ints in
// [0, NumCategories). This is the transaction representation for the
// category-combination analyses (Fig 3b). Like Transactions, the inner
// slices share one arena and have their capacity capped.
func (v View) CategoryTransactions() [][]ingredient.ID {
	total := 0
	for _, idx := range v.indices {
		total += min(len(v.corpus.recipes[idx].Ingredients), ingredient.NumCategories)
	}
	arena := make([]ingredient.ID, 0, total)
	out := make([][]ingredient.ID, len(v.indices))
	for i, idx := range v.indices {
		start := len(arena)
		for c, ok := range v.corpus.recipes[idx].categorySet(v.corpus.lex) {
			if ok {
				arena = append(arena, ingredient.ID(c))
			}
		}
		out[i] = arena[start:len(arena):len(arena)]
	}
	return out
}

// Stats summarizes a view in the shape of one Table I row.
type Stats struct {
	Region            string
	Recipes           int
	UniqueIngredients int
	MeanSize          float64
}

// Stats computes the view's summary statistics.
func (v View) Stats() Stats {
	return Stats{
		Region:            v.region,
		Recipes:           v.Len(),
		UniqueIngredients: v.UniqueIngredients(),
		MeanSize:          v.MeanSize(),
	}
}
