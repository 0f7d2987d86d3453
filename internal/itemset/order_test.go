package itemset

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/randx"
)

// orderCase is a set of itemsets given as Index positions into items.
type orderCase struct {
	name   string
	items  []itemCount // the item table: ascending IDs
	sets   [][]int32   // ascending positions, distinct sets
	counts []int
}

// idTable builds an item table over the given ascending IDs.
func idTable(ids ...ingredient.ID) []itemCount {
	items := make([]itemCount, len(ids))
	for i, id := range ids {
		items[i] = itemCount{item: id}
	}
	return items
}

// denseTable builds an item table of n items with IDs 0..n-1.
func denseTable(n int) []itemCount {
	items := make([]itemCount, n)
	for i := range items {
		items[i] = itemCount{item: ingredient.ID(i)}
	}
	return items
}

// assertComparatorOrder assembles c's sets, spread round-robin over
// nsinks sinks, and requires the result to equal the same sets sorted
// by sortCanonical — nil when there are none.
func assertComparatorOrder(t *testing.T, c orderCase, nsinks int) {
	t.Helper()
	var want []Itemset
	sinks := make([]*setSink, nsinks)
	for i := range sinks {
		sinks[i] = new(setSink)
	}
	for i, set := range c.sets {
		copy(sinks[i%nsinks].add(len(set), c.counts[i]), set)
		items := make([]ingredient.ID, len(set))
		for j, p := range set {
			items[j] = c.items[p].item
		}
		want = append(want, Itemset{Items: items, Count: c.counts[i]})
	}
	sortCanonical(want)
	var o canonOrder
	// Twice through the same scratch: reuse must not change the order.
	for round := 0; round < 2; round++ {
		got := o.assemble(c.items, sinks...)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s (%d sinks, round %d): radix order differs from the comparator\n got: %v\nwant: %v",
				c.name, nsinks, round, got, want)
		}
	}
}

// TestCanonicalOrderMatchesComparator pins the radix assembly against
// sortCanonical, the comparator raw Apriori keeps, on the shapes where
// a radix order can go wrong: negative IDs and int32 extremes, all
// counts equal (only size and lexicographic order decide), mixed sizes
// with shared prefixes and suffixes, counts and positions wider than
// one pass's histogram, a single set, and the empty result.
func TestCanonicalOrderMatchesComparator(t *testing.T) {
	extremes := idTable(math.MinInt32, math.MinInt32+1, -1<<20, -7, -1, 0, 1, 1<<20, math.MaxInt32-1, math.MaxInt32)
	wide := denseTable(70000)
	cases := []orderCase{
		{name: "empty", items: extremes},
		{name: "single set", items: extremes, sets: [][]int32{{0, 9}}, counts: []int{3}},
		{name: "single singleton", items: extremes, sets: [][]int32{{9}}, counts: []int{1}},
		{
			name:  "int32 extremes",
			items: extremes,
			sets: [][]int32{
				{9}, {0}, {4}, {5}, {0, 9}, {0, 1}, {8, 9}, {3, 4}, {4, 5}, {0, 4, 9}, {1, 2, 3},
			},
			counts: []int{5, 5, 5, 4, 4, 4, 4, 4, 3, 3, 3},
		},
		{
			name:  "all counts equal",
			items: extremes,
			sets: [][]int32{
				{2, 3, 4}, {2, 3}, {1, 3}, {1, 2}, {3}, {1}, {2, 4}, {1, 2, 3}, {1, 2, 4}, {0, 9}, {0}, {9},
			},
			counts: []int{2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2},
		},
		{
			name:  "mixed sizes",
			items: denseTable(6),
			sets: [][]int32{
				{0, 1, 2, 3, 4}, {0, 1, 2, 3}, {1, 2, 3, 4}, {0, 1, 2}, {2, 3, 4}, {0, 4}, {3, 4}, {0, 1},
				{5}, {4}, {0}, {0, 5}, {1, 5}, {0, 1, 5},
			},
			counts: []int{2, 3, 2, 4, 3, 5, 5, 6, 9, 6, 9, 2, 2, 2},
		},
		{
			name:   "wide positions",
			items:  wide,
			sets:   [][]int32{{69999}, {0}, {65535}, {65536}, {256, 65536}, {255, 65537}, {0, 69999}, {1, 2}, {0, 256, 65536}},
			counts: []int{7, 7, 7, 7, 7, 7, 7, 7, 7},
		},
		{
			name:   "wide counts",
			items:  denseTable(4),
			sets:   [][]int32{{0}, {1}, {2}, {3}, {0, 1}, {0, 2}, {1, 3}, {2, 3}, {0, 1, 2}},
			counts: []int{1, math.MaxInt32, 1 << 16, 1<<16 + 1, 1 << 40, 255, 256, 1<<32 + 3, 1},
		},
	}
	for _, c := range cases {
		for _, nsinks := range []int{1, 3} {
			assertComparatorOrder(t, c, nsinks)
		}
	}
}

// TestCanonicalOrderRandomized compares the radix assembly with the
// comparator on random distinct sets over random universes, counts
// drawn from a narrow range (many ties) or a wide one.
func TestCanonicalOrderRandomized(t *testing.T) {
	src := randx.New(20261017)
	for trial := 0; trial < 60; trial++ {
		universe := 1 + src.Intn(300)
		if trial%10 == 9 {
			universe = 1<<16 + src.Intn(1<<16)
		}
		// Ascending IDs from near MinInt32, gaps sized to stay in range.
		items := make([]itemCount, universe)
		maxGap := (1<<32 - 1024) / universe
		id := int64(math.MinInt32 + src.Intn(1000))
		for i := range items {
			items[i].item = ingredient.ID(id)
			id += int64(1 + src.Intn(maxGap))
		}
		countRange := 1 + src.Intn(4)
		if trial%2 == 1 {
			countRange = 1 << 20
		}
		seen := map[string]bool{}
		c := orderCase{name: fmt.Sprintf("trial %d", trial), items: items}
		for tries := src.Intn(400); tries > 0; tries-- {
			size := 1 + src.Intn(min(6, universe))
			ints := src.SampleInts(universe, size)
			set := make([]int32, size)
			for i, p := range ints {
				set[i] = int32(p)
			}
			sortInt32s(set)
			key := fmt.Sprint(set)
			if seen[key] {
				continue
			}
			seen[key] = true
			c.sets = append(c.sets, set)
			c.counts = append(c.counts, 1+src.Intn(countRange))
		}
		assertComparatorOrder(t, c, 1+trial%4)
	}
}
