package itemset

import (
	"reflect"
	"testing"

	"cuisinevol/internal/ingredient"
)

// TestLiveIndexAppendNeverRetainsInput pins Append's ownership
// contract: once Append returns, the caller may overwrite its
// transaction slices, and the next Snapshot still indexes what was
// appended. A log that stored the caller's slices would index the
// overwritten contents instead.
func TestLiveIndexAppendNeverRetainsInput(t *testing.T) {
	batches := [][][]ingredient.ID{
		{tx(1, 2, 3), tx(2, 5), {}, tx(1, 2, 3)},
		{tx(4, 7, 9), tx(2, 5), tx(8)},
	}
	var saved [][]ingredient.ID
	for _, batch := range batches {
		for _, txn := range batch {
			saved = append(saved, append([]ingredient.ID{}, txn...))
		}
	}

	li := NewLiveIndex()
	for _, batch := range batches {
		mustAppend(t, li, batch...)
	}
	// Overwrite every item in place (still strictly ascending, so the
	// clobbered transactions would index cleanly) and every slot of the
	// batch slices themselves.
	for _, batch := range batches {
		for i, txn := range batch {
			for j := range txn {
				txn[j] += 1000
			}
			batch[i] = tx(90, 91)
		}
	}

	want, err := BuildIndex(saved)
	if err != nil {
		t.Fatal(err)
	}
	if got := li.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot indexes the caller's overwritten slices\nsnapshot: %+v\nwant:     %+v", got, want)
	}
}
