package server

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"historygraph"
	"historygraph/internal/graph"
	"historygraph/internal/wire"
)

// TestWalkSnapshot: whatever the source (a pooled view or the same graph
// detached), the ownership (everything, or half the slots) and the shape
// asked for (element lists, counts only, a stream), the one walk yields
// the same elements in ascending ID order, only owned ones, and counts
// equal to the list lengths.
func TestWalkSnapshot(t *testing.T) {
	gm := newTestManager(t)
	at := gm.LastTime() / 2
	h, err := gm.GetHistGraph(at, "+node:all+edge:all")
	if err != nil {
		t.Fatal(err)
	}
	defer gm.Release(h)
	half := &slotOwnership{epoch: 1}
	for s := 0; s < graph.NumSlots; s += 2 {
		half.owned[s] = true
	}
	for _, own := range []*slotOwnership{nil, half} {
		var ref wire.Snapshot
		for name, src := range map[string]elements{"view": h, "detached": detached{h.Snapshot()}} {
			t.Run(fmt.Sprintf("filtered=%t/%s", own.filtering(), name), func(t *testing.T) {
				full := snapshotOf(src, at, true, own)
				if full.NumNodes != len(full.Nodes) || full.NumEdges != len(full.Edges) || full.NumNodes == 0 || full.NumEdges == 0 {
					t.Fatalf("counts %d/%d over lists of %d/%d", full.NumNodes, full.NumEdges, len(full.Nodes), len(full.Edges))
				}
				if !slices.IsSortedFunc(full.Nodes, func(a, b wire.Node) int { return int(a.ID - b.ID) }) ||
					!slices.IsSortedFunc(full.Edges, func(a, b wire.Edge) int { return int(a.ID - b.ID) }) {
					t.Fatal("elements not in ascending ID order")
				}
				for _, n := range full.Nodes {
					if !own.ownsNode(historygraph.NodeID(n.ID)) {
						t.Fatalf("node %d is in an unowned slot", n.ID)
					}
				}
				for _, e := range full.Edges {
					if !own.ownsNode(historygraph.NodeID(e.From)) {
						t.Fatalf("edge %d hangs off node %d in an unowned slot", e.ID, e.From)
					}
				}
				if own.filtering() && (full.NumNodes == src.NumNodes() || full.NumEdges == src.NumEdges()) {
					t.Fatal("the half ownership dropped nothing")
				}
				if ref.Nodes == nil {
					ref = full
				} else if !reflect.DeepEqual(full, ref) {
					t.Fatal("view and detached sources answer differently")
				}

				counts := snapshotOf(src, at, false, own)
				if counts.Nodes != nil || counts.Edges != nil || counts.NumNodes != full.NumNodes || counts.NumEdges != full.NumEdges {
					t.Fatalf("counts-only answer %+v against lists of %d/%d", counts, full.NumNodes, full.NumEdges)
				}

				var buf bytes.Buffer
				se := wire.NewStreamEncoder(&buf, 7)
				nodes, edges, walk := walkSnapshot(src, own, true)
				if err := walk.Walk(7, se); err != nil {
					t.Fatal(err)
				}
				if err := se.Summary(&wire.Snapshot{At: int64(at), NumNodes: nodes, NumEdges: edges}); err != nil {
					t.Fatal(err)
				}
				streamed, err := wire.DecodeSnapshotStream(&buf)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(*streamed, full) {
					t.Fatal("the stream carries other elements than the whole message")
				}
			})
		}
	}
}
