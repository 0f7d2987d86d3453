// Package ingredient defines the canonical ingredient space used by every
// analysis in the library: a lexicon of 721 ingredient entities (including
// 96 compound ingredients) assigned to the paper's 21 categories, together
// with alias metadata consumed by the mention-resolution protocol in
// package textnorm.
//
// The lexicon mirrors the construction of the paper: the FlavorDB-derived
// entity list extended with compound ingredients ("tomato puree", "ginger
// garlic paste", ...), each entity manually assigned one category.
package ingredient

import "fmt"

// Category is one of the paper's 21 manually assigned ingredient
// categories.
type Category uint8

// The 21 categories, exactly as enumerated in Section II of the paper.
const (
	Vegetable Category = iota
	Dairy
	Legume
	Maize
	Cereal
	Meat
	NutsAndSeeds
	Plant
	Fish
	Seafood
	Spice
	Bakery
	BeverageAlcoholic
	Beverage
	EssentialOil
	Flower
	Fruit
	Fungus
	Herb
	Additive
	Dish

	NumCategories = 21
)

var categoryNames = [NumCategories]string{
	Vegetable:         "Vegetable",
	Dairy:             "Dairy",
	Legume:            "Legume",
	Maize:             "Maize",
	Cereal:            "Cereal",
	Meat:              "Meat",
	NutsAndSeeds:      "Nuts and Seeds",
	Plant:             "Plant",
	Fish:              "Fish",
	Seafood:           "Seafood",
	Spice:             "Spice",
	Bakery:            "Bakery",
	BeverageAlcoholic: "Beverage Alcoholic",
	Beverage:          "Beverage",
	EssentialOil:      "Essential Oil",
	Flower:            "Flower",
	Fruit:             "Fruit",
	Fungus:            "Fungus",
	Herb:              "Herb",
	Additive:          "Additive",
	Dish:              "Dish",
}

// String returns the category's display name as used in the paper.
func (c Category) String() string {
	if int(c) < len(categoryNames) {
		return categoryNames[c]
	}
	return fmt.Sprintf("Category(%d)", uint8(c))
}

// Valid reports whether c is one of the 21 defined categories.
func (c Category) Valid() bool { return int(c) < NumCategories }

// AllCategories returns the 21 categories in declaration order.
func AllCategories() []Category {
	out := make([]Category, NumCategories)
	for i := range out {
		out[i] = Category(i)
	}
	return out
}
