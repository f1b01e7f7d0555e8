package deltagraph

import (
	"math/rand"
	"slices"
	"testing"

	"historygraph/internal/graph"
)

// TestMergeColumns: merging a leaf-eventlist's columns, from one partition or
// several, gives what concatenating them and sorting stably by time gives,
// event for event. Times come from a narrow range so that most are shared
// across columns, and any column may be empty.
func TestMergeColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 2000; round++ {
		cols := make([]graph.EventList, 1+rng.Intn(12)) // up to 3 partitions of 4 columns
		span := 1 + rng.Intn(20)
		seq := graph.NodeID(0)
		for c := range cols {
			if rng.Intn(4) == 0 {
				continue
			}
			at := graph.Time(rng.Intn(span))
			for i := rng.Intn(40); i > 0; i-- {
				at += graph.Time(rng.Intn(3) / 2) // two in three share the time before
				seq++
				cols[c] = append(cols[c], graph.Event{Type: graph.AddNode, At: at, Node: seq, Edge: graph.EdgeID(c)})
			}
		}
		var want graph.EventList
		for _, c := range cols {
			want = append(want, c...)
		}
		want.Sort()
		if got := mergeColumns(slices.Clone(cols)); !slices.Equal(got, want) {
			t.Fatalf("round %d: merged\n%v\nsorted\n%v", round, got, want)
		}
	}
}

// TestMergeColumnsLone: a lone non-empty column comes back as it was decoded,
// not copied, whatever empty columns stand around it; no column at all is an
// empty list.
func TestMergeColumnsLone(t *testing.T) {
	col := graph.EventList{{Type: graph.AddNode, At: 3, Node: 1}, {Type: graph.AddNode, At: 3, Node: 2}}
	for _, cols := range [][]graph.EventList{{col}, {nil, col}, {col, {}, nil}} {
		if got := mergeColumns(cols); len(got) != len(col) || &got[0] != &col[0] {
			t.Errorf("mergeColumns(%v) = %v, a copy or another list", cols, got)
		}
	}
	if got := mergeColumns([]graph.EventList{nil, {}}); len(got) != 0 {
		t.Errorf("two empty columns merge to %v", got)
	}
}
