package cuisinevol

// Public surface for the subsystems beyond the paper's core pipeline:
// the food-pairing substrate (FlavorDB's role in refs [3]-[6], [9]), the
// raw-recipe ingestion pipeline (§II data compilation), and the §VII
// future-work model extensions (alternative hypotheses and horizontal
// transmission).

import (
	"fmt"

	"cuisinevol/internal/evomodel"
	"cuisinevol/internal/flavor"
	"cuisinevol/internal/ingest"
	"cuisinevol/internal/ingredient"
)

// Flavor-pairing types (see internal/flavor).
type (
	// FlavorProfile maps every lexicon ingredient to a synthetic flavor-
	// molecule set with realistic category affinity.
	FlavorProfile = flavor.Profile
	// PairingResult is one cuisine's food-pairing analysis (Ahn et al.
	// construction: recipe-level molecule sharing vs a random-recipe
	// null).
	PairingResult = flavor.PairingResult
)

// GenerateFlavorProfile builds the deterministic synthetic FlavorDB-like
// molecule profile for the built-in lexicon.
func GenerateFlavorProfile(seed uint64) (*FlavorProfile, error) {
	return flavor.Generate(flavor.DefaultConfig(seed))
}

// FoodPairing computes the food-pairing index of a cuisine: the mean
// flavor-molecule sharing of its recipes against a random-recipe null
// (nRand replicates). Positive Delta supports the food-pairing
// hypothesis for that cuisine; negative Delta contradicts it.
func FoodPairing(profile *FlavorProfile, c *Corpus, region string, nRand int, seed uint64) (PairingResult, error) {
	return flavor.AnalyzeCuisine(profile, c.Region(region), nRand, seed)
}

// Ingestion types (see internal/ingest).
type (
	// RawRecipe is a scraped-form recipe record: free-text ingredient
	// mentions plus multi-level geo annotation.
	RawRecipe = ingest.RawRecipe
	// IngestStats reports resolution and drop counts for an ingestion
	// run.
	IngestStats = ingest.Stats
)

// IngestRawRecipes resolves raw records through the aliasing protocol
// into a corpus, applying the paper's recipe-size bounds [2, 38].
func IngestRawRecipes(raws []RawRecipe) (*Corpus, IngestStats, error) {
	return ingest.Ingest(raws, ingest.Options{})
}

// RawifyCorpus renders a corpus into noisy scraped-form records — the
// inverse of IngestRawRecipes, useful for pipeline testing and demos.
func RawifyCorpus(c *Corpus, seed uint64) []RawRecipe {
	return ingest.Rawify(c, seed)
}

// Alternative-hypothesis model kinds (paper §VII: "develop alternative
// hypotheses beyond simple copy-mutation").
const (
	// FitnessOnly samples recipes by ingredient fitness without copying.
	FitnessOnly = evomodel.FitnessOnly
	// PreferentialAttachment samples recipes proportionally to prior
	// usage without copying.
	PreferentialAttachment = evomodel.PreferentialAttachment
)

// HorizontalConfig couples per-region copy-mutate processes with recipe
// migration (paper §VII: horizontal propagation between regions).
type HorizontalConfig = evomodel.HorizontalConfig

// RunHorizontalTransmission evolves several regions under coupled
// dynamics; see evomodel.RunHorizontal.
func RunHorizontalTransmission(cfg HorizontalConfig) (map[string][][]IngredientID, error) {
	return evomodel.RunHorizontal(cfg, ingredient.Builtin())
}

// HorizontalParamsForRegion derives a region's parameters from a corpus
// for use in a HorizontalConfig.
func HorizontalParamsForRegion(c *Corpus, region string, kind ModelKind) ModelParams {
	return evomodel.ParamsForView(c.Region(region), kind, 0)
}

// Lineage records the genealogy of a copy-mutate run: founder shares,
// generation depths and reproductive success per recipe.
type Lineage = evomodel.Lineage

// RunModelWithLineage is RunModel keeping the genealogy of the evolved
// recipe pool.
func RunModelWithLineage(c *Corpus, region string, kind ModelKind, seed uint64) ([][]IngredientID, *Lineage, error) {
	view := c.Region(region)
	if view.Len() == 0 {
		return nil, nil, fmt.Errorf("cuisinevol: region %q has no recipes", region)
	}
	return evomodel.RunWithLineage(evomodel.ParamsForView(view, kind, seed), c.Lexicon())
}
