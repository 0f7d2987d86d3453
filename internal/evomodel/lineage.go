package evomodel

import (
	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/randx"
)

// Lineage records the genealogy of a copy-mutate run: which mother each
// recipe was copied from. The paper's introduction frames recipes as
// entities that must "survive successive iterations of evolution";
// lineage statistics make that survival measurable — how reproductive
// success distributes over recipes and how much of the final pool traces
// back to each founder.
type Lineage struct {
	// Mothers[i] is the index of recipe i's mother, or -1 for recipes
	// with no parent (the initial pool, and every NM/alternative-model
	// recipe).
	Mothers []int32
	// InitialPool is the number of founder recipes (the first
	// InitialPool entries of the run's output).
	InitialPool int
}

// Depths returns each recipe's generation depth: founders are 0, a copy
// of a depth-d recipe is d+1.
func (l *Lineage) Depths() []int {
	out := make([]int, len(l.Mothers))
	for i, m := range l.Mothers {
		if m < 0 {
			out[i] = 0
		} else {
			out[i] = out[m] + 1
		}
	}
	return out
}

// ChildCounts returns, per recipe, the number of direct copies made of
// it — its reproductive success.
func (l *Lineage) ChildCounts() []int {
	out := make([]int, len(l.Mothers))
	for _, m := range l.Mothers {
		if m >= 0 {
			out[m]++
		}
	}
	return out
}

// Founder returns, per recipe, the index of the founder it ultimately
// descends from (itself for founders and parentless recipes).
func (l *Lineage) Founder() []int32 {
	out := make([]int32, len(l.Mothers))
	for i, m := range l.Mothers {
		if m < 0 {
			out[i] = int32(i)
		} else {
			out[i] = out[m]
		}
	}
	return out
}

// FounderShares returns the fraction of the final pool descending from
// each founder (keyed by founder index, only non-zero entries).
func (l *Lineage) FounderShares() map[int32]float64 {
	founders := l.Founder()
	counts := make(map[int32]int)
	for _, f := range founders {
		counts[f]++
	}
	out := make(map[int32]float64, len(counts))
	total := float64(len(founders))
	for f, c := range counts {
		out[f] = float64(c) / total
	}
	return out
}

// MaxDepth returns the deepest generation reached.
func (l *Lineage) MaxDepth() int {
	max := 0
	for _, d := range l.Depths() {
		if d > max {
			max = d
		}
	}
	return max
}

// RunWithLineage executes Algorithm 1 like Run but additionally returns
// the genealogy. Only the copy-mutate kinds (including KinouchiOriginal)
// produce non-trivial lineages; NM and the alternative models yield
// all-founder genealogies.
func RunWithLineage(params Params, lex *ingredient.Lexicon) ([][]ingredient.ID, *Lineage, error) {
	p := params
	if err := p.validate(); err != nil {
		return nil, nil, err
	}
	r := runs.get()
	defer runs.put(r)
	m := &r.m
	if err := m.reset(p, lex, randx.New(p.Seed)); err != nil {
		return nil, nil, err
	}
	// The lineage outlives the reused machine, so it is allocated per
	// call (release nils the machine's pointer to it).
	lin := &Lineage{InitialPool: len(m.recs)}
	lin.Mothers = make([]int32, len(m.recs), p.TargetRecipes)
	for i := range lin.Mothers {
		lin.Mothers[i] = -1
	}
	m.lineage = lin
	m.lastMother = -1 // non-copy steps (pool growth, NM) have no mother
	m.evolve()
	return m.cloneTransactions(), lin, nil
}
