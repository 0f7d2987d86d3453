package itemset

import "math/bits"

// UniqueTransactions returns the number of unique transactions after
// dedup (the bit width of every posting bitmap).
func (ix *Index) UniqueTransactions() int { return ix.uniques }

// TotalOccurrences returns the total item occurrences across all
// indexed transactions.
func (ix *Index) TotalOccurrences() int { return ix.totalOcc }

// appendPostingIDs appends a container's member ids to out in ascending
// order: the reference the differential and fuzz layers compare
// container pairs through.
func appendPostingIDs(out []uint32, p posting, words int) []uint32 {
	switch p.kind {
	case containerArray:
		out = append(out, p.ids...)
	case containerRun:
		for r := 0; r < len(p.ids); r += 2 {
			for x, e := p.ids[r], p.ids[r]+p.ids[r+1]; x < e; x++ {
				out = append(out, x)
			}
		}
	default:
		for w := 0; w < len(p.bits) && w < words; w++ {
			for m := p.bits[w]; m != 0; m &= m - 1 {
				out = append(out, uint32(w<<6+bits.TrailingZeros64(m)))
			}
		}
	}
	return out
}
