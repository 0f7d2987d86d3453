// Package evomodel implements the culinary evolution models of the paper
// (§V, Algorithm 1): the copy-mutate family — Copy-Mutate Random (CM-R),
// Copy-Mutate Category (CM-C), Copy-Mutate Mixture (CM-M) — and the Null
// Model (NM) control, together with the replicate-ensemble runner used to
// aggregate statistics over 100 independent runs.
//
// The models evolve a recipe pool from a small primitive pool by repeated
// duplication and fitness-biased mutation, growing the ingredient pool so
// that its size tracks φ·(recipe count), where φ is the empirical ratio
// of unique ingredients to recipes in the cuisine being modeled.
//
// The simulation kernel is arena-backed and reusable: recipes live in a
// single flat []ingredient.ID arena addressed by (offset, length)
// headers, machines reset instead of reallocating (a per-call free list,
// Replicators, hands the same machine and index builder to each
// scheduler worker across all the replicates it runs), and the
// evolve→mine boundary hands the recipes to the builder as they sit in
// the arena, unsorted and uncopied. The kernel is pinned byte-for-byte
// against the retained per-recipe-slice reference implementation (see
// reference_test.go and the differential tests): every RNG draw happens in
// the same order, so outputs are identical at every seed.
package evomodel

import (
	"fmt"
	"math"
	"runtime"

	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/randx"
	"cuisinevol/internal/recipe"
)

// Kind selects the model variant.
type Kind int

const (
	// CMRandom is the vanilla copy-mutate model: the replacement
	// ingredient is drawn uniformly from the ingredient pool.
	CMRandom Kind = iota
	// CMCategory restricts the replacement to the same category as the
	// ingredient being replaced.
	CMCategory
	// CMMixture draws the replacement from the same category half the
	// time (MixtureRatio) and from the whole pool otherwise.
	CMMixture
	// NullModel performs no copy-mutation: each new recipe is an
	// independent uniform sample of s̄ ingredients.
	NullModel
)

var kindNames = map[Kind]string{
	CMRandom:   "CM-R",
	CMCategory: "CM-C",
	CMMixture:  "CM-M",
	NullModel:  "NM",
}

// String returns the paper's abbreviation for the model kind.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Kinds returns all four model kinds in paper order.
func Kinds() []Kind { return []Kind{CMRandom, CMCategory, CMMixture, NullModel} }

// DefaultMutations returns the paper's calibrated mutation count for the
// kind: M=4 for CM-R, M=6 for CM-C and CM-M (§VI); 0 for the null model.
func DefaultMutations(k Kind) int {
	switch k {
	case CMRandom, KinouchiOriginal:
		return 4
	case CMCategory, CMMixture:
		return 6
	default:
		return 0
	}
}

// Params fully specifies one model run.
type Params struct {
	Kind Kind
	// Ingredients is the cuisine's ingredient list I.
	Ingredients []ingredient.ID
	// MeanRecipeSize is s̄, the cuisine's average recipe size (rounded).
	MeanRecipeSize int
	// TargetRecipes is N, the cuisine's empirical recipe count; the run
	// stops when the recipe pool reaches it.
	TargetRecipes int
	// InitialPool is m, the initial ingredient-pool size (paper: 20).
	InitialPool int
	// InitialRecipes is n, the initial recipe-pool size; 0 means the
	// paper's n = m/φ.
	InitialRecipes int
	// Mutations is M, the number of mutation attempts per copied recipe;
	// 0 selects DefaultMutations(Kind).
	Mutations int
	// Phi is φ, the ratio of unique ingredients to recipes in the
	// empirical cuisine; governs ingredient-pool growth.
	Phi float64
	// Seed drives all randomness of the run.
	Seed uint64

	// MixtureRatio is CM-M's probability of a same-category draw. Any
	// negative value selects the paper's default of 0.5 ("half the
	// time"); 0 is honored literally, making the replacement draw always
	// pool-wide (an always-random CM-M). ParamsForView sets 0.5
	// explicitly, so derived parameter sets are unaffected by the
	// sentinel.
	MixtureRatio float64
	// FixedIterations selects the printed-algorithm variant that loops
	// exactly N − n times (spending some iterations on pool growth and
	// ending with fewer than N recipes) instead of running until the
	// recipe pool reaches N.
	FixedIterations bool
	// NullFromFullLexicon makes the null model sample recipes from the
	// full ingredient list I rather than the growing pool I₀ (the
	// paper's wording supports both readings; see DESIGN.md §5).
	NullFromFullLexicon bool
	// AllowDuplicateReplace permits a mutation to insert an ingredient
	// already present in the recipe (the duplicate is dropped, shrinking
	// the recipe). Default false: such mutations are skipped.
	AllowDuplicateReplace bool
	// InsertProb and DeleteProb enable the variable-recipe-size
	// extension (paper §VII): after the M replacement attempts, one
	// size-mutation roll inserts a fitness-superior ingredient with
	// probability InsertProb or deletes a low-fitness ingredient with
	// probability DeleteProb. Sizes stay within [2, 38]. Both default
	// to 0 (the paper's fixed-size dynamics).
	InsertProb, DeleteProb float64
}

// ParamsForView derives the paper's per-cuisine parameters from an
// empirical corpus view: I = the cuisine's used ingredients, s̄ = its mean
// recipe size, N = its recipe count, φ = unique ingredients / recipes,
// m = 20, M = DefaultMutations(kind).
func ParamsForView(view recipe.View, kind Kind, seed uint64) Params {
	unique := view.UsedIngredientIDs()
	n := view.Len()
	phi := 0.0
	if n > 0 {
		phi = float64(len(unique)) / float64(n)
	}
	return Params{
		Kind:           kind,
		Ingredients:    unique,
		MeanRecipeSize: int(math.Round(view.MeanSize())),
		TargetRecipes:  n,
		InitialPool:    20,
		Phi:            phi,
		Seed:           seed,
		MixtureRatio:   0.5,
	}
}

// validate normalizes defaults and rejects unusable parameters. A
// repeated ingredient in I is left to machine.reset, which finds it
// with the machine's own per-ID state instead of a set built per call.
func (p *Params) validate() error {
	if len(p.Ingredients) == 0 {
		return fmt.Errorf("evomodel: empty ingredient list")
	}
	if p.MeanRecipeSize < 1 {
		return fmt.Errorf("evomodel: MeanRecipeSize must be >= 1, got %d", p.MeanRecipeSize)
	}
	if p.TargetRecipes < 1 {
		return fmt.Errorf("evomodel: TargetRecipes must be >= 1, got %d", p.TargetRecipes)
	}
	if p.Phi <= 0 {
		return fmt.Errorf("evomodel: Phi must be positive, got %v", p.Phi)
	}
	if p.InitialPool < 1 {
		return fmt.Errorf("evomodel: InitialPool must be >= 1, got %d", p.InitialPool)
	}
	if p.InitialPool > len(p.Ingredients) {
		p.InitialPool = len(p.Ingredients)
	}
	if p.Mutations == 0 {
		p.Mutations = DefaultMutations(p.Kind)
	}
	if p.Mutations < 0 {
		return fmt.Errorf("evomodel: Mutations must be non-negative, got %d", p.Mutations)
	}
	if p.MixtureRatio < 0 {
		// Sentinel: negative selects the paper default. A literal 0 is
		// honored (always-random CM-M), which the old 0-means-default
		// coercion made unrepresentable.
		p.MixtureRatio = 0.5
	}
	if p.MixtureRatio > 1 {
		return fmt.Errorf("evomodel: MixtureRatio must be in [0,1] or negative for the default, got %v", p.MixtureRatio)
	}
	if p.InsertProb < 0 || p.DeleteProb < 0 || p.InsertProb+p.DeleteProb > 1 {
		return fmt.Errorf("evomodel: InsertProb/DeleteProb must be non-negative with sum <= 1, got %v + %v",
			p.InsertProb, p.DeleteProb)
	}
	if p.InitialRecipes == 0 {
		p.InitialRecipes = int(math.Round(float64(p.InitialPool) / p.Phi))
	}
	if p.InitialRecipes < 1 {
		p.InitialRecipes = 1
	}
	if p.InitialRecipes > p.TargetRecipes {
		p.InitialRecipes = p.TargetRecipes
	}
	return nil
}

// Run executes Algorithm 1 with the given parameters and returns the
// evolved recipe pool as transactions: each recipe a strictly ascending
// []ingredient.ID, ready for frequent-itemset mining. The returned
// recipes share one packed backing array; callers must not append to
// individual transactions.
func Run(params Params, lex *ingredient.Lexicon) ([][]ingredient.ID, error) {
	p := params
	if err := p.validate(); err != nil {
		return nil, err
	}
	r := runs.get()
	defer runs.put(r)
	m := &r.m
	if err := m.reset(p, lex, randx.New(p.Seed)); err != nil {
		return nil, err
	}
	m.evolve()
	return m.cloneTransactions(), nil
}

// runs is the free list behind Run, Inspect and RunWithLineage: a
// process-wide list, so back-to-back single runs reuse one machine (the
// BenchmarkEvolveRun alloc gate). Unlike a per-call list it outlives
// every call, so it keeps at most GOMAXPROCS free states, each holding
// the buffers of the largest run it served. Ensembles keep their own
// per-call list.
var runs = Replicators{keep: runtime.GOMAXPROCS(0)}

// span addresses one recipe inside the machine's arena. Offsets are
// int32: the largest corpus the models target (158k recipes × ≤38
// ingredients) stays far below 2³¹ items.
type span struct{ off, n int32 }

// machine is the mutable state of one run, built for reuse across runs:
// all per-ingredient state (fitness, pool membership, usage) is held in
// dense slices indexed by the raw ingredient ID, recipes live in a
// single growable arena addressed by spans instead of one heap slice
// each, and every scratch buffer (sampling, shuffling, weighted draws)
// is retained between runs. reset(p, lex, src) reinitializes the
// machine for new parameters without discarding any backing storage
// and presizes it for the run, so even a fresh machine allocates a
// handful of times; a Replicators free list hands each scheduler worker
// one machine across all the replicates it executes.
type machine struct {
	p   Params
	lex *ingredient.Lexicon
	src *randx.Source

	fitness []float64       // per ID: Uniform(0,1) fitness
	reserve []ingredient.ID // I minus the pool, shrinking
	pool    []ingredient.ID // I₀, growing
	inPool  bitset          // per ID: pool membership
	// poolByCategory supports CM-C/CM-M draws; grown alongside pool.
	// Each bucket is carved from catPool, capped at its category's share
	// of I, so appends never reallocate.
	poolByCategory [ingredient.NumCategories][]ingredient.ID
	catPool        []ingredient.ID

	arena []ingredient.ID // every recipe's items, packed (unsorted item order)
	recs  []span          // the recipe pool R₀: one header per recipe

	// usage tracks per-ingredient recipe counts for the preferential-
	// attachment alternative model; nil for other kinds (usageBuf is the
	// retained backing storage).
	usage    []int
	usageBuf []int
	// lineage, when non-nil, records each recipe's mother index
	// (RunWithLineage); lastMother carries the pending mother between
	// copyMutate and commitRecipe.
	lineage    *Lineage
	lastMother int32
	// peers couples the machine to a horizontal run's regions, itself
	// among them (RunHorizontal, which keeps no lineage): with
	// probability migration a copy draws its mother from another peer,
	// picked by root. nil outside horizontal runs.
	peers     []*machine
	migration float64
	root      *randx.Source

	shuffle []ingredient.ID // scratch: clone of I for the initial shuffle
	sample  randx.SampleBuf // scratch: uniform without-replacement draws
	taken   []bool          // scratch: weighted without-replacement draws
}

// release drops the machine's references to caller-owned data, so a
// free machine pins none of it. Buffers are retained.
func (m *machine) release() {
	m.p = Params{}
	m.lex = nil
	m.src = nil
	m.usage = nil
	m.lineage = nil
}

// bitset is a dense membership set keyed by ingredient ID.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i ingredient.ID)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) has(i ingredient.ID) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// maxIngredientID returns the largest ID in the list (the dense-slice
// size the machine needs), or -1 for an empty list.
func maxIngredientID(ids []ingredient.ID) ingredient.ID {
	max := ingredient.ID(-1)
	for _, id := range ids {
		if id > max {
			max = id
		}
	}
	return max
}

// reset reinitializes the machine for the given parameters, reusing all
// backing storage, or fails when I repeats an ingredient. The RNG draw
// order — fitness assignment, pool shuffle, initial recipe sampling —
// exactly matches the reference implementation's construction, which
// the differential tests pin.
func (m *machine) reset(p Params, lex *ingredient.Lexicon, src *randx.Source) error {
	m.p, m.lex, m.src = p, lex, src
	size := int(maxIngredientID(p.Ingredients)) + 1
	if cap(m.fitness) < size {
		m.fitness = make([]float64, size)
	} else {
		m.fitness = m.fitness[:size]
		clear(m.fitness)
	}
	words := (size + 63) / 64
	if cap(m.inPool) < words {
		m.inPool = newBitset(size)
	} else {
		m.inPool = m.inPool[:words]
		clear(m.inPool)
	}
	// Presize what the run grows into: the pools hold at most I, and
	// the fixed-size dynamics commit at most N recipes of at most s̄
	// ingredients.
	m.pool = reuse(m.pool, len(p.Ingredients))
	var perCategory [ingredient.NumCategories]int
	for _, id := range p.Ingredients {
		perCategory[lex.CategoryOf(id)]++
	}
	m.catPool = reuse(m.catPool, len(p.Ingredients))[:len(p.Ingredients)]
	off := 0
	for c, k := range perCategory {
		m.poolByCategory[c] = m.catPool[off : off : off+k]
		off += k
	}
	m.arena = reuse(m.arena, p.TargetRecipes*p.MeanRecipeSize)
	m.recs = reuse(m.recs, p.TargetRecipes)
	m.usage, m.lineage, m.lastMother = nil, nil, -1

	// Step 1: fitness ~ Uniform(0,1) for every ingredient in I. The
	// pool bitset, empty until step 2, marks I on the way, so a repeated
	// ingredient shows without a set of its own.
	for _, id := range p.Ingredients {
		if m.inPool.has(id) {
			return fmt.Errorf("evomodel: duplicate ingredient %d in I", id)
		}
		m.inPool.set(id)
		m.fitness[id] = src.Float64()
	}
	clear(m.inPool)
	// Step 2: I₀ = m random ingredients from I; I ← I − I₀.
	m.shuffle = append(m.shuffle[:0], p.Ingredients...)
	all := m.shuffle
	src.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	for _, id := range all[:p.InitialPool] {
		m.addToPool(id)
	}
	m.reserve = all[p.InitialPool:] // the shuffle is done with its tail
	if p.Kind == PreferentialAttachment {
		if cap(m.usageBuf) < size {
			m.usageBuf = make([]int, size)
		} else {
			m.usageBuf = m.usageBuf[:size]
			clear(m.usageBuf)
		}
		m.usage = m.usageBuf
	}
	// Initial recipe pool R₀: n recipes of s̄ ingredients from I₀.
	for i := 0; i < p.InitialRecipes; i++ {
		m.sampleRecipeInto(m.pool)
	}
	return nil
}

// recipeAt returns recipe i's items (unsorted, live in the arena).
func (m *machine) recipeAt(i int) []ingredient.ID {
	h := m.recs[i]
	return m.arena[h.off : h.off+h.n]
}

// commitRecipe finalizes the recipe occupying the arena from off to the
// arena's end: it records the span header, maintains the usage index
// when the preferential-attachment model needs it, and appends to the
// genealogy when lineage tracking is on.
func (m *machine) commitRecipe(off int32) {
	m.recs = append(m.recs, span{off: off, n: int32(len(m.arena)) - off})
	if m.usage != nil {
		for _, id := range m.arena[off:] {
			m.usage[id]++
		}
	}
	if m.lineage != nil {
		m.lineage.Mothers = append(m.lineage.Mothers, m.lastMother)
		m.lastMother = -1
	}
}

func (m *machine) addToPool(id ingredient.ID) {
	m.pool = append(m.pool, id)
	m.inPool.set(id)
	c := m.lex.CategoryOf(id)
	m.poolByCategory[c] = append(m.poolByCategory[c], id)
}

// sampleRecipeInto draws min(s̄, |from|) distinct ingredients uniformly
// from the given slice and commits them as a new recipe at the arena
// tip.
func (m *machine) sampleRecipeInto(from []ingredient.ID) {
	size := m.p.MeanRecipeSize
	if size > len(from) {
		size = len(from)
	}
	picks := m.src.SampleIntsBuf(len(from), size, &m.sample)
	off := int32(len(m.arena))
	for _, p := range picks {
		m.arena = append(m.arena, from[p])
	}
	m.commitRecipe(off)
}

// evolve runs the main loop of Algorithm 1.
func (m *machine) evolve() {
	if m.p.FixedIterations {
		// Printed variant: exactly N − n iterations, each either a recipe
		// step or a pool-growth step.
		iters := m.p.TargetRecipes - m.p.InitialRecipes
		for l := 0; l < iters; l++ {
			m.step()
		}
		return
	}
	// Prose variant (default): evolve until the recipe pool reaches N.
	for len(m.recs) < m.p.TargetRecipes {
		m.step()
	}
}

// step performs one iteration: grow the ingredient pool if ∂ = m/n has
// fallen below φ (and ingredients remain), otherwise add one recipe.
func (m *machine) step() {
	partial := float64(len(m.pool)) / float64(len(m.recs))
	if partial < m.p.Phi && len(m.reserve) > 0 {
		// Pool growth: move a random ingredient from I to I₀.
		i := m.src.Intn(len(m.reserve))
		m.addToPool(m.reserve[i])
		m.reserve[i] = m.reserve[len(m.reserve)-1]
		m.reserve = m.reserve[:len(m.reserve)-1]
		return
	}
	switch m.p.Kind {
	case NullModel:
		from := m.pool
		if m.p.NullFromFullLexicon {
			from = m.p.Ingredients
		}
		m.sampleRecipeInto(from)
	case FitnessOnly, PreferentialAttachment:
		m.generateAlternativeInto()
	default:
		m.copyMutate()
	}
}

// copyMutate copies a random mother recipe to the arena tip and applies
// M fitness-biased mutation attempts in place (Algorithm 1, steps 3-4).
// In a horizontal run the mother may migrate from another region. The
// ancestral Kinouchi variant replaces the least-fit ingredient
// unconditionally instead.
func (m *machine) copyMutate() {
	motherIdx := m.src.Intn(len(m.recs))
	m.lastMother = int32(motherIdx)
	from := m
	if len(m.peers) > 1 && m.src.Float64() < m.migration {
		for from == m {
			from = m.peers[m.root.Intn(len(m.peers))]
		}
		motherIdx = m.src.Intn(len(from.recs))
	}
	h := from.recs[motherIdx]
	off := int32(len(m.arena))
	// Appending a slice of m.arena to itself is safe: on reallocation
	// the copy reads from the old backing array, otherwise source and
	// destination regions are disjoint. A migrated mother lives in
	// another machine's arena.
	m.arena = append(m.arena, from.arena[h.off:h.off+h.n]...)
	r := m.arena[off:]
	if m.p.Kind == KinouchiOriginal {
		for g := 0; g < m.p.Mutations; g++ {
			m.kinouchiMutate(r)
		}
		m.commitRecipe(off)
		return
	}
	for g := 0; g < m.p.Mutations; g++ {
		slot := m.src.Intn(len(r))
		old := r[slot]
		repl, ok := m.drawReplacement(old)
		if !ok {
			continue
		}
		if m.fitness[repl] <= m.fitness[old] {
			continue
		}
		if contains(r, repl) {
			if !m.p.AllowDuplicateReplace {
				continue
			}
			// Multiset semantics: the replacement collapses into the
			// existing occurrence, shrinking the recipe (never below one
			// ingredient).
			if len(r) > 1 {
				r[slot] = r[len(r)-1]
				r = r[:len(r)-1]
			}
			continue
		}
		r[slot] = repl
	}
	// Drop the slots a multiset collapse vacated so the arena stays
	// packed (the recipe is the arena tip, so truncation is exact).
	m.arena = m.arena[:int(off)+len(r)]
	if m.p.InsertProb > 0 || m.p.DeleteProb > 0 {
		m.mutateSizeTip(off)
	}
	m.commitRecipe(off)
}

// drawReplacement selects the candidate ingredient j from the pool
// according to the model variant, relative to the ingredient being
// replaced.
func (m *machine) drawReplacement(old ingredient.ID) (ingredient.ID, bool) {
	sameCategory := false
	switch m.p.Kind {
	case CMCategory:
		sameCategory = true
	case CMMixture:
		sameCategory = m.src.Float64() < m.p.MixtureRatio
	}
	if sameCategory {
		bucket := m.poolByCategory[m.lex.CategoryOf(old)]
		if len(bucket) == 0 {
			return 0, false
		}
		return bucket[m.src.Intn(len(bucket))], true
	}
	return m.pool[m.src.Intn(len(m.pool))], true
}

func contains(xs []ingredient.ID, id ingredient.ID) bool {
	for _, x := range xs {
		if x == id {
			return true
		}
	}
	return false
}

// cloneTransactions returns the recipe pool as caller-owned packed
// transactions: one fresh flat array shared by every recipe plus one
// header slice, each recipe sorted ascending — two allocations total
// instead of one per recipe.
func (m *machine) cloneTransactions() [][]ingredient.ID {
	flat := make([]ingredient.ID, len(m.arena))
	copy(flat, m.arena)
	out := make([][]ingredient.ID, len(m.recs))
	for i, h := range m.recs {
		tx := flat[h.off : h.off+h.n : h.off+h.n]
		sortIDs(tx)
		out[i] = tx
	}
	return out
}

func sortIDs(xs []ingredient.ID) {
	// insertion sort: recipes have at most a few dozen ingredients.
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// reuse returns s emptied with room for n elements.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}
