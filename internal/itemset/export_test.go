package itemset

// UniqueTransactions returns the number of unique transactions after
// dedup (the bit width of every posting bitmap).
func (ix *Index) UniqueTransactions() int { return ix.uniques }

// TotalOccurrences returns the total item occurrences across all
// indexed transactions — with N and DistinctItems, the exact statistics
// the adaptive kernel heuristic needs.
func (ix *Index) TotalOccurrences() int { return ix.totalOcc }
