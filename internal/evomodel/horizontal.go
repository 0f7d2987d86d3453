package evomodel

import (
	"fmt"
	"sort"

	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/randx"
)

// HorizontalConfig couples several per-region copy-mutate processes with
// recipe migration — the horizontal (between-regions) propagation the
// paper's §VII identifies as missing from pure vertical (in-time)
// models. Regions evolve in an interleaved schedule proportional to
// their target sizes; at each copy step, with probability Migration the
// mother recipe is drawn from a randomly chosen *other* region's pool
// instead of the local one.
//
// Ingredient fitness is shared globally (an ingredient's cost,
// availability and nutrition do not depend on who cooks it), while each
// region keeps its own ingredient pool I₀ for replacement draws, so
// migrated recipes gradually re-localize under mutation.
type HorizontalConfig struct {
	// Regions holds one parameter set per region. Params.Kind must be a
	// copy-mutate variant (migration is meaningless for NM and the
	// alternative models). Each region's run honours its parameters
	// as Run does, InsertProb, DeleteProb, AllowDuplicateReplace and
	// FixedIterations included. Labels index the result.
	Regions map[string]Params
	// Migration is the per-copy probability of a cross-region mother
	// recipe, in [0, 1]. 0 reduces exactly to independent runs.
	Migration float64
	// Seed drives the interleaving and all per-region randomness.
	Seed uint64
}

// RunHorizontal evolves all regions under the coupled dynamics and
// returns each region's recipes as sorted transactions.
func RunHorizontal(cfg HorizontalConfig, lex *ingredient.Lexicon) (map[string][][]ingredient.ID, error) {
	if len(cfg.Regions) == 0 {
		return nil, fmt.Errorf("evomodel: horizontal run needs at least one region")
	}
	if cfg.Migration < 0 || cfg.Migration > 1 {
		return nil, fmt.Errorf("evomodel: Migration must be in [0,1], got %v", cfg.Migration)
	}
	// Deterministic region order.
	labels := make([]string, 0, len(cfg.Regions))
	for label := range cfg.Regions {
		labels = append(labels, label)
	}
	sort.Strings(labels)

	// Shared fitness across regions: one assignment over the union of
	// all ingredient lists. Every machine aliases this single dense
	// slice (sized to the union's largest ID), so a migrated recipe's
	// foreign ingredients still have defined fitness and selection
	// applies uniformly everywhere.
	root := randx.New(cfg.Seed)
	unionMax := ingredient.ID(-1)
	for _, label := range labels {
		if m := maxIngredientID(cfg.Regions[label].Ingredients); m > unionMax {
			unionMax = m
		}
	}
	sharedFitness := make([]float64, int(unionMax)+1)
	assigned := newBitset(int(unionMax) + 1)
	for _, label := range labels {
		for _, id := range cfg.Regions[label].Ingredients {
			if !assigned.has(id) {
				assigned.set(id)
				sharedFitness[id] = root.Float64()
			}
		}
	}
	machines := make([]*machine, 0, len(labels))
	for _, label := range labels {
		p := cfg.Regions[label]
		switch p.Kind {
		case CMRandom, CMCategory, CMMixture:
		default:
			return nil, fmt.Errorf("evomodel: region %s: horizontal transmission requires a copy-mutate kind, got %v", label, p.Kind)
		}
		if err := p.validate(); err != nil {
			return nil, fmt.Errorf("evomodel: region %s: %w", label, err)
		}
		src := root.Split()
		// Horizontal machines are not pooled (they alias the shared
		// fitness slice and live for the whole coupled run), so each is
		// built fresh and reset once. reset draws this region's own
		// fitness from src first — those draws are part of the pinned RNG
		// stream — and the override replaces the values afterwards.
		m := new(machine)
		if err := m.reset(p, lex, src); err != nil {
			return nil, fmt.Errorf("evomodel: region %s: %w", label, err)
		}
		m.fitness = sharedFitness
		machines = append(machines, m)
	}
	for _, m := range machines {
		m.peers, m.migration, m.root = machines, cfg.Migration, root
	}

	// Interleave: repeatedly pick the region with the largest remaining
	// fraction of work (deterministic; keeps pools co-evolving rather
	// than sequential). A region's work is its recipe target, or under
	// FixedIterations its budget of N − n steps, as Run spends them.
	steps := make([]int, len(machines))
	remaining := func(i int) float64 {
		p := &machines[i].p
		if p.FixedIterations {
			budget := p.TargetRecipes - p.InitialRecipes
			if budget == 0 {
				return 0
			}
			return 1 - float64(steps[i])/float64(budget)
		}
		return 1 - float64(len(machines[i].recs))/float64(p.TargetRecipes)
	}
	for {
		next := -1
		for i := range machines {
			if r := remaining(i); r > 0 && (next < 0 || r > remaining(next)) {
				next = i
			}
		}
		if next < 0 {
			break
		}
		machines[next].step()
		steps[next]++
	}

	out := make(map[string][][]ingredient.ID, len(labels))
	for i, label := range labels {
		out[label] = machines[i].cloneTransactions()
	}
	return out, nil
}
