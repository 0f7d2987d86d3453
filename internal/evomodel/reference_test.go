package evomodel

// Reference implementation of the simulation kernel, retained verbatim
// from before the arena rewrite: every recipe owns its own heap slice,
// machines are constructed per run, and transactions() clones + sorts
// each recipe individually. It exists solely as the ground truth for the
// differential tests (kernel_diff_test.go), which pin the arena kernel
// byte-for-byte against this code across randomized parameters and
// seeds — same pattern as the Eclat-against-Apriori differential layer
// in internal/itemset. Both paths share Params.validate, the RNG, and the
// small helpers (bitset, contains, sortIDs), so a divergence isolates to
// the kernel mechanics.

import (
	"cuisinevol/internal/cuisine"
	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/randx"
)

// referenceRun is Run on the reference kernel.
func referenceRun(params Params, lex *ingredient.Lexicon) ([][]ingredient.ID, error) {
	p := params
	if err := p.validate(); err != nil {
		return nil, err
	}
	src := randx.New(p.Seed)
	m := newRefMachine(p, lex, src)
	m.evolve()
	return m.transactions(), nil
}

// referenceInspect is Inspect on the reference kernel.
func referenceInspect(params Params, lex *ingredient.Lexicon) ([][]ingredient.ID, PoolState, error) {
	p := params
	if err := p.validate(); err != nil {
		return nil, PoolState{}, err
	}
	src := randx.New(p.Seed)
	m := newRefMachine(p, lex, src)
	m.evolve()
	return m.transactions(), PoolState{
		IngredientPool: len(m.pool),
		RecipePool:     len(m.recipes),
		ReserveLeft:    len(m.reserve),
	}, nil
}

// referenceRunWithLineage is RunWithLineage on the reference kernel.
func referenceRunWithLineage(params Params, lex *ingredient.Lexicon) ([][]ingredient.ID, *Lineage, error) {
	p := params
	if err := p.validate(); err != nil {
		return nil, nil, err
	}
	src := randx.New(p.Seed)
	m := newRefMachine(p, lex, src)
	lin := &Lineage{
		Mothers:     make([]int32, len(m.recipes)),
		InitialPool: len(m.recipes),
	}
	for i := range lin.Mothers {
		lin.Mothers[i] = -1
	}
	m.lineage = lin
	m.lastMother = -1
	m.evolve()
	return m.transactions(), lin, nil
}

// refMachine is the pre-arena machine: identical per-ingredient dense
// state, but recipes held as one heap slice each.
type refMachine struct {
	p   Params
	lex *ingredient.Lexicon
	src *randx.Source

	fitness        []float64
	reserve        []ingredient.ID
	pool           []ingredient.ID
	inPool         bitset
	poolByCategory [ingredient.NumCategories][]ingredient.ID

	recipes    [][]ingredient.ID
	usage      []int
	lineage    *Lineage
	lastMother int32
}

func newRefMachine(p Params, lex *ingredient.Lexicon, src *randx.Source) *refMachine {
	size := int(maxIngredientID(p.Ingredients)) + 1
	m := &refMachine{
		p:       p,
		lex:     lex,
		src:     src,
		fitness: make([]float64, size),
		inPool:  newBitset(size),
	}
	for _, id := range p.Ingredients {
		m.fitness[id] = src.Float64()
	}
	all := append([]ingredient.ID(nil), p.Ingredients...)
	src.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	for _, id := range all[:p.InitialPool] {
		m.addToPool(id)
	}
	m.reserve = all[p.InitialPool:]
	if p.Kind == PreferentialAttachment {
		m.usage = make([]int, size)
	}
	for i := 0; i < p.InitialRecipes; i++ {
		m.addRecipe(m.sampleRecipe(m.pool))
	}
	return m
}

func (m *refMachine) addRecipe(r []ingredient.ID) {
	m.recipes = append(m.recipes, r)
	if m.usage != nil {
		for _, id := range r {
			m.usage[id]++
		}
	}
	if m.lineage != nil {
		m.lineage.Mothers = append(m.lineage.Mothers, m.lastMother)
		m.lastMother = -1
	}
}

func (m *refMachine) addToPool(id ingredient.ID) {
	m.pool = append(m.pool, id)
	m.inPool.set(id)
	c := m.lex.CategoryOf(id)
	m.poolByCategory[c] = append(m.poolByCategory[c], id)
}

func (m *refMachine) sampleRecipe(from []ingredient.ID) []ingredient.ID {
	size := m.p.MeanRecipeSize
	if size > len(from) {
		size = len(from)
	}
	picks := m.src.SampleInts(len(from), size)
	out := make([]ingredient.ID, size)
	for i, p := range picks {
		out[i] = from[p]
	}
	return out
}

func (m *refMachine) evolve() {
	if m.p.FixedIterations {
		iters := m.p.TargetRecipes - m.p.InitialRecipes
		for l := 0; l < iters; l++ {
			m.step()
		}
		return
	}
	for len(m.recipes) < m.p.TargetRecipes {
		m.step()
	}
}

func (m *refMachine) step() {
	partial := float64(len(m.pool)) / float64(len(m.recipes))
	if partial < m.p.Phi && len(m.reserve) > 0 {
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
		m.addRecipe(m.sampleRecipe(from))
	case FitnessOnly, PreferentialAttachment:
		m.addRecipe(m.generateAlternative(m.usage))
	default:
		m.addRecipe(m.copyMutate())
	}
}

func (m *refMachine) copyMutate() []ingredient.ID {
	motherIdx := m.src.Intn(len(m.recipes))
	mother := m.recipes[motherIdx]
	m.lastMother = int32(motherIdx)
	r := append([]ingredient.ID(nil), mother...)
	if m.p.Kind == KinouchiOriginal {
		for g := 0; g < m.p.Mutations; g++ {
			m.kinouchiMutate(r)
		}
		return r
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
			if len(r) > 1 {
				r[slot] = r[len(r)-1]
				r = r[:len(r)-1]
			}
			continue
		}
		r[slot] = repl
	}
	if m.p.InsertProb > 0 || m.p.DeleteProb > 0 {
		r = m.mutateSize(r)
	}
	return r
}

func (m *refMachine) drawReplacement(old ingredient.ID) (ingredient.ID, bool) {
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

func (m *refMachine) kinouchiMutate(r []ingredient.ID) {
	worst := 0
	for i := 1; i < len(r); i++ {
		if m.fitness[r[i]] < m.fitness[r[worst]] {
			worst = i
		}
	}
	repl := m.pool[m.src.Intn(len(m.pool))]
	if contains(r, repl) {
		return
	}
	r[worst] = repl
}

func (m *refMachine) sampleRecipeWeighted(from []ingredient.ID, weight func(ingredient.ID) float64) []ingredient.ID {
	size := m.p.MeanRecipeSize
	if size > len(from) {
		size = len(from)
	}
	out := make([]ingredient.ID, 0, size)
	taken := make(map[int]bool, size)
	for len(out) < size {
		total := 0.0
		for i, id := range from {
			if !taken[i] {
				total += weight(id)
			}
		}
		if total <= 0 {
			// All remaining weights zero: fall back to uniform.
			for i, id := range from {
				if !taken[i] {
					taken[i] = true
					out = append(out, id)
					break
				}
			}
			continue
		}
		target := m.src.Float64() * total
		for i, id := range from {
			if taken[i] {
				continue
			}
			target -= weight(id)
			if target <= 0 {
				taken[i] = true
				out = append(out, id)
				break
			}
		}
	}
	return out
}

func (m *refMachine) generateAlternative(usage []int) []ingredient.ID {
	switch m.p.Kind {
	case FitnessOnly:
		return m.sampleRecipeWeighted(m.pool, func(id ingredient.ID) float64 {
			return m.fitness[id]
		})
	case PreferentialAttachment:
		return m.sampleRecipeWeighted(m.pool, func(id ingredient.ID) float64 {
			return float64(1 + usage[id])
		})
	default:
		panic("evomodel: generateAlternative called for non-alternative kind")
	}
}

func (m *refMachine) mutateSize(r []ingredient.ID) []ingredient.ID {
	roll := m.src.Float64()
	switch {
	case roll < m.p.InsertProb && len(r) < cuisine.MaxRecipeSize:
		j := m.pool[m.src.Intn(len(m.pool))]
		if contains(r, j) {
			return r
		}
		incumbent := r[m.src.Intn(len(r))]
		if m.fitness[j] > m.fitness[incumbent] {
			r = append(r, j)
		}
	case roll < m.p.InsertProb+m.p.DeleteProb && len(r) > cuisine.MinRecipeSize:
		a, b := m.src.Intn(len(r)), m.src.Intn(len(r))
		victim := a
		if m.fitness[r[b]] < m.fitness[r[a]] {
			victim = b
		}
		r[victim] = r[len(r)-1]
		r = r[:len(r)-1]
	}
	return r
}

// transactions returns the recipe pool with each recipe sorted
// ascending, one fresh slice per recipe.
func (m *refMachine) transactions() [][]ingredient.ID {
	out := make([][]ingredient.ID, len(m.recipes))
	for i, r := range m.recipes {
		tx := append([]ingredient.ID(nil), r...)
		sortIDs(tx)
		out[i] = tx
	}
	return out
}
