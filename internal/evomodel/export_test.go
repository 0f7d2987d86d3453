package evomodel

import (
	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/randx"
)

// PoolState reports the final pool sizes of a run.
type PoolState struct {
	IngredientPool int
	RecipePool     int
	ReserveLeft    int
}

// Inspect runs the model and returns both the transactions and the final
// pool state.
func Inspect(params Params, lex *ingredient.Lexicon) ([][]ingredient.ID, PoolState, error) {
	p := params
	if err := p.validate(); err != nil {
		return nil, PoolState{}, err
	}
	r := runs.get()
	defer runs.put(r)
	m := &r.m
	if err := m.reset(p, lex, randx.New(p.Seed)); err != nil {
		return nil, PoolState{}, err
	}
	m.evolve()
	return m.cloneTransactions(), PoolState{
		IngredientPool: len(m.pool),
		RecipePool:     len(m.recs),
		ReserveLeft:    len(m.reserve),
	}, nil
}
