package graphpool

import (
	"cmp"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// TestSortByKeyMatchesSortFunc: the walk's radix sort orders elements
// exactly as a comparison sort by ID does, ties kept in their order, over
// lists of zero and one element, negative IDs, IDs at and above 1<<40, IDs
// that share all but their lowest byte, and lists in order already, ties
// among them.
func TestSortByKeyMatchesSortFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ascending := int64(-500)
	draws := []func() int64{
		func() int64 { return rng.Int63n(256) },
		func() int64 { return rng.Int63n(50_000) - 25_000 },
		func() int64 { return 1<<40 + rng.Int63n(1<<20) },
		func() int64 { return rng.Int63() - rng.Int63() },
		func() int64 { return []int64{math.MinInt64, -1, 0, 1, math.MaxInt64}[rng.Intn(5)] },
		func() int64 { ascending += rng.Int63n(3); return ascending },
	}
	for round := 0; round < 400; round++ {
		n := []int{0, 1, 2, 3, 100, 2000}[round%6]
		draw := draws[round/6%len(draws)]
		elems := make([]keyed, n)
		for i := range elems {
			elems[i] = keyed{id: draw(), rec: uint32(i)} // rec records the input order
		}
		want := slices.Clone(elems)
		slices.SortStableFunc(want, func(a, b keyed) int { return cmp.Compare(a.id, b.id) })
		sortByKey(elems, func(k *keyed) int64 { return k.id })
		if !reflect.DeepEqual(elems, want) {
			t.Fatalf("round %d (%d elements): radix order differs from SortFunc's", round, n)
		}
	}
}
