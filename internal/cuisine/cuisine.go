// Package cuisine defines the 25 geo-cultural regions of the paper and
// embeds the Table I calibration targets (recipe counts, unique-ingredient
// counts, top-5 overrepresented ingredients) together with the qualitative
// category-usage profile of Fig 2. The synthetic-corpus generator consumes
// these targets; the analyses reproduce them.
package cuisine

import (
	"fmt"
	"strings"

	"cuisinevol/internal/ingredient"
)

// Region describes one of the paper's 25 geo-cultural regions together
// with its calibration targets from Table I.
type Region struct {
	Code      string // short code used throughout the paper (e.g. "ITA")
	Name      string // display name ("Italy")
	Continent string // coarse geo annotation

	// Table I targets.
	Recipes         int      // number of recipes compiled for the region
	Ingredients     int      // number of unique ingredients observed
	Overrepresented []string // top overrepresented ingredients, canonical names

	// Recipe size distribution: Gaussian, bounded [MinRecipeSize,
	// MaxRecipeSize], per-cuisine mean near the global average of 9.
	MeanSize, SDSize float64

	// CategoryBias holds multiplicative preferences over ingredient
	// categories relative to the shared base profile; categories absent
	// from the map have bias 1. Encodes the Fig 2 contrasts (e.g. INSC
	// uses spices heavily, SCND uses dairy heavily).
	CategoryBias map[ingredient.Category]float64
}

// Recipe size bounds observed in the empirical data (paper, Fig 1).
const (
	MinRecipeSize = 2
	MaxRecipeSize = 38
)

// TableTotalRecipes is the sum of the per-region recipe counts in
// Table I (158,460; the abstract's 158,544 differs by 84 — the table is
// taken as authoritative here since every analysis is per-region).
const TableTotalRecipes = 158460

func bias(pairs ...any) map[ingredient.Category]float64 {
	m := make(map[ingredient.Category]float64, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		m[pairs[i].(ingredient.Category)] = pairs[i+1].(float64)
	}
	return m
}

// regions lists the 25 regions exactly as in Table I, in table order.
var regions = []Region{
	{
		Code: "AFR", Name: "Africa", Continent: "Africa",
		Recipes: 5465, Ingredients: 442,
		Overrepresented: []string{"cumin", "cinnamon", "olive", "cilantro", "paprika"},
		MeanSize:        9.6, SDSize: 3.4,
		CategoryBias: bias(ingredient.Spice, 1.9, ingredient.Herb, 1.3, ingredient.Legume, 1.3, ingredient.Dairy, 0.7),
	},
	{
		Code: "ANZ", Name: "Australia & NZ", Continent: "Oceania",
		Recipes: 6169, Ingredients: 463,
		Overrepresented: []string{"butter", "egg", "sugar", "flour", "coconut"},
		MeanSize:        8.6, SDSize: 3.1,
		CategoryBias: bias(ingredient.Dairy, 1.4, ingredient.Bakery, 1.3, ingredient.Spice, 0.55, ingredient.Additive, 1.2),
	},
	{
		Code: "IRL", Name: "Republic of Ireland", Continent: "Europe",
		Recipes: 2702, Ingredients: 378,
		Overrepresented: []string{"potato", "butter", "cream", "flour", "baking powder"},
		MeanSize:        8.4, SDSize: 3.0,
		CategoryBias: bias(ingredient.Dairy, 1.7, ingredient.Vegetable, 1.15, ingredient.Spice, 0.5, ingredient.Cereal, 1.25),
	},
	{
		Code: "CAN", Name: "Canada", Continent: "North America",
		Recipes: 7725, Ingredients: 483,
		Overrepresented: []string{"baking powder", "sugar", "butter", "flour", "vanilla"},
		MeanSize:        8.8, SDSize: 3.2,
		CategoryBias: bias(ingredient.Dairy, 1.3, ingredient.Bakery, 1.3, ingredient.Additive, 1.25, ingredient.Spice, 0.7),
	},
	{
		Code: "CBN", Name: "Caribbean", Continent: "North America",
		Recipes: 3887, Ingredients: 417,
		Overrepresented: []string{"lime", "rum", "pineapple", "allspice", "thyme"},
		MeanSize:        9.4, SDSize: 3.4,
		CategoryBias: bias(ingredient.Fruit, 1.5, ingredient.BeverageAlcoholic, 1.5, ingredient.Spice, 1.2, ingredient.Herb, 1.2),
	},
	{
		Code: "CHN", Name: "China", Continent: "Asia",
		Recipes: 7123, Ingredients: 442,
		Overrepresented: []string{"soybean sauce", "sesame", "ginger", "corn", "chicken"},
		MeanSize:        9.2, SDSize: 3.3,
		CategoryBias: bias(ingredient.Vegetable, 1.3, ingredient.Meat, 1.2, ingredient.Dairy, 0.25, ingredient.NutsAndSeeds, 1.3, ingredient.Additive, 1.25),
	},
	{
		Code: "DACH", Name: "DACH Countries", Continent: "Europe",
		Recipes: 4641, Ingredients: 430,
		Overrepresented: []string{"flour", "egg", "butter", "sugar", "swiss cheese"},
		MeanSize:        8.7, SDSize: 3.1,
		CategoryBias: bias(ingredient.Dairy, 1.5, ingredient.Cereal, 1.3, ingredient.Meat, 1.15, ingredient.Spice, 0.6),
	},
	{
		Code: "EE", Name: "Eastern Europe", Continent: "Europe",
		Recipes: 3179, Ingredients: 383,
		Overrepresented: []string{"flour", "egg", "butter", "cream", "salt"},
		MeanSize:        8.6, SDSize: 3.1,
		CategoryBias: bias(ingredient.Dairy, 1.4, ingredient.Cereal, 1.3, ingredient.Vegetable, 1.1, ingredient.Spice, 0.6),
	},
	{
		Code: "FRA", Name: "France", Continent: "Europe",
		Recipes: 9590, Ingredients: 511,
		Overrepresented: []string{"butter", "egg", "vanilla", "milk", "cream"},
		MeanSize:        8.9, SDSize: 3.2,
		CategoryBias: bias(ingredient.Dairy, 1.6, ingredient.Herb, 1.15, ingredient.BeverageAlcoholic, 1.3, ingredient.Spice, 0.65),
	},
	{
		Code: "GRC", Name: "Greece", Continent: "Europe",
		Recipes: 5286, Ingredients: 405,
		Overrepresented: []string{"olive", "feta cheese", "oregano", "lemon juice", "tomato"},
		MeanSize:        9.1, SDSize: 3.2,
		CategoryBias: bias(ingredient.Herb, 1.5, ingredient.Fruit, 1.3, ingredient.Vegetable, 1.25, ingredient.Plant, 1.3),
	},
	{
		Code: "INSC", Name: "Indian Subcontinent", Continent: "Asia",
		Recipes: 10531, Ingredients: 462,
		Overrepresented: []string{"cayenne", "turmeric", "cumin", "cilantro", "ginger", "garam masala"},
		MeanSize:        10.4, SDSize: 3.6,
		CategoryBias: bias(ingredient.Spice, 2.3, ingredient.Legume, 1.6, ingredient.Herb, 1.25, ingredient.Meat, 0.7, ingredient.BeverageAlcoholic, 0.2),
	},
	{
		Code: "ITA", Name: "Italy", Continent: "Europe",
		Recipes: 23179, Ingredients: 506,
		Overrepresented: []string{"olive", "parmesan cheese", "basil", "garlic", "tomato"},
		MeanSize:        9.0, SDSize: 3.2,
		CategoryBias: bias(ingredient.Herb, 1.5, ingredient.Vegetable, 1.25, ingredient.Plant, 1.3, ingredient.Cereal, 1.2, ingredient.Spice, 0.75),
	},
	{
		Code: "JPN", Name: "Japan", Continent: "Asia",
		Recipes: 2884, Ingredients: 382,
		Overrepresented: []string{"soybean sauce", "sesame", "ginger", "vinegar", "sake"},
		MeanSize:        8.5, SDSize: 3.0,
		CategoryBias: bias(ingredient.Fish, 1.8, ingredient.Seafood, 1.5, ingredient.Dairy, 0.2, ingredient.Spice, 0.5, ingredient.Additive, 1.3),
	},
	{
		Code: "KOR", Name: "Korea", Continent: "Asia",
		Recipes: 1228, Ingredients: 291,
		Overrepresented: []string{"sesame", "soybean sauce", "garlic", "sugar", "ginger"},
		MeanSize:        9.3, SDSize: 3.3,
		CategoryBias: bias(ingredient.Vegetable, 1.35, ingredient.NutsAndSeeds, 1.4, ingredient.Dairy, 0.25, ingredient.Additive, 1.3),
	},
	{
		Code: "MEX", Name: "Mexico", Continent: "North America",
		Recipes: 16065, Ingredients: 467,
		Overrepresented: []string{"tortilla", "cilantro", "lime", "cumin", "tomato"},
		MeanSize:        9.3, SDSize: 3.3,
		CategoryBias: bias(ingredient.Vegetable, 1.3, ingredient.Maize, 2.0, ingredient.Herb, 1.25, ingredient.Spice, 1.2, ingredient.Legume, 1.3),
	},
	{
		Code: "ME", Name: "Middle East", Continent: "Asia",
		Recipes: 4858, Ingredients: 423,
		Overrepresented: []string{"olive", "lemon juice", "parsley", "cumin", "mint"},
		MeanSize:        9.4, SDSize: 3.3,
		CategoryBias: bias(ingredient.Herb, 1.6, ingredient.Spice, 1.4, ingredient.Legume, 1.4, ingredient.Fruit, 1.2, ingredient.BeverageAlcoholic, 0.3),
	},
	{
		Code: "SCND", Name: "Scandinavia", Continent: "Europe",
		Recipes: 3026, Ingredients: 377,
		Overrepresented: []string{"sugar", "flour", "butter", "egg", "milk"},
		MeanSize:        8.3, SDSize: 3.0,
		CategoryBias: bias(ingredient.Dairy, 1.75, ingredient.Fish, 1.4, ingredient.Bakery, 1.2, ingredient.Spice, 0.55),
	},
	{
		Code: "SAM", Name: "South America", Continent: "South America",
		Recipes: 7458, Ingredients: 457,
		Overrepresented: []string{"beef", "onion", "pepper", "garlic", "mushroom"},
		MeanSize:        9.1, SDSize: 3.2,
		CategoryBias: bias(ingredient.Meat, 1.6, ingredient.Vegetable, 1.3, ingredient.Fungus, 1.3, ingredient.Spice, 0.9),
	},
	{
		Code: "SEA", Name: "South East Asia", Continent: "Asia",
		Recipes: 2523, Ingredients: 361,
		Overrepresented: []string{"fish", "sugar", "soybean sauce", "garlic", "lime"},
		MeanSize:        9.5, SDSize: 3.4,
		CategoryBias: bias(ingredient.Fish, 1.9, ingredient.Seafood, 1.5, ingredient.Dairy, 0.2, ingredient.Fruit, 1.25, ingredient.Additive, 1.3),
	},
	{
		Code: "SP", Name: "Spain", Continent: "Europe",
		Recipes: 4154, Ingredients: 413,
		Overrepresented: []string{"olive", "paprika", "garlic", "tomato", "parsley"},
		MeanSize:        9.0, SDSize: 3.2,
		CategoryBias: bias(ingredient.Vegetable, 1.3, ingredient.Seafood, 1.4, ingredient.Herb, 1.25, ingredient.Plant, 1.25),
	},
	{
		Code: "THA", Name: "Thailand", Continent: "Asia",
		Recipes: 3795, Ingredients: 378,
		Overrepresented: []string{"fish", "lime", "cilantro", "coconut milk", "soybean sauce"},
		MeanSize:        9.6, SDSize: 3.4,
		CategoryBias: bias(ingredient.Fish, 1.8, ingredient.Herb, 1.5, ingredient.Fruit, 1.3, ingredient.Dairy, 0.2, ingredient.Spice, 1.15),
	},
	{
		Code: "USA", Name: "USA", Continent: "North America",
		Recipes: 16026, Ingredients: 592,
		Overrepresented: []string{"butter", "sugar", "vanilla", "flour", "mustard"},
		MeanSize:        8.9, SDSize: 3.2,
		CategoryBias: bias(ingredient.Dairy, 1.3, ingredient.Bakery, 1.25, ingredient.Additive, 1.3, ingredient.Meat, 1.1),
	},
	{
		Code: "BN", Name: "Belgium-Netherlands", Continent: "Europe",
		Recipes: 1116, Ingredients: 323,
		Overrepresented: []string{"butter", "flour", "egg", "sugar", "milk"},
		MeanSize:        8.5, SDSize: 3.0,
		CategoryBias: bias(ingredient.Dairy, 1.5, ingredient.Cereal, 1.25, ingredient.Spice, 0.6),
	},
	{
		Code: "CAM", Name: "Central America", Continent: "North America",
		Recipes: 470, Ingredients: 294,
		Overrepresented: []string{"salt", "tomato", "onion", "macaroni", "celery"},
		MeanSize:        8.8, SDSize: 3.1,
		CategoryBias: bias(ingredient.Vegetable, 1.4, ingredient.Maize, 1.5, ingredient.Legume, 1.3),
	},
	{
		Code: "UK", Name: "United Kingdom", Continent: "Europe",
		Recipes: 5380, Ingredients: 456,
		Overrepresented: []string{"butter", "flour", "egg", "sugar", "milk"},
		MeanSize:        8.7, SDSize: 3.1,
		CategoryBias: bias(ingredient.Dairy, 1.45, ingredient.Cereal, 1.25, ingredient.Bakery, 1.2, ingredient.Spice, 0.65),
	},
}

// All returns the 25 regions in Table I order. The returned slice is
// freshly allocated; Region values share the underlying bias maps, which
// are never mutated.
func All() []Region {
	return append([]Region(nil), regions...)
}

// Count is the number of regions (25).
const Count = 25

// ByCode returns the region with the given code (case-insensitive).
func ByCode(code string) (Region, error) {
	needle := strings.ToUpper(strings.TrimSpace(code))
	for _, r := range regions {
		if r.Code == needle {
			return r, nil
		}
	}
	return Region{}, fmt.Errorf("cuisine: unknown region code %q", code)
}

// Codes returns the 25 region codes in Table I order.
func Codes() []string {
	out := make([]string, len(regions))
	for i, r := range regions {
		out[i] = r.Code
	}
	return out
}

// Phi returns the ratio of unique-ingredient count to recipe count for the
// region — the quantity the paper denotes φ, governing ingredient-pool
// growth in the evolution models.
func (r Region) Phi() float64 {
	return float64(r.Ingredients) / float64(r.Recipes)
}

// OverrepresentedIDs resolves the region's Table I overrepresented
// ingredient names against the lexicon. It panics if a name is missing,
// since the built-in tables and lexicon ship together.
func (r Region) OverrepresentedIDs(lex *ingredient.Lexicon) []ingredient.ID {
	out := make([]ingredient.ID, len(r.Overrepresented))
	for i, n := range r.Overrepresented {
		out[i] = lex.MustID(n)
	}
	return out
}
