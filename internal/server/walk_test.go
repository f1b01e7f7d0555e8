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

// TestWalkSnapshot: whatever the ownership (everything, or half the slots)
// and the shape asked for (element lists, counts only, a stream), the one
// walk yields the same elements in ascending ID order, only owned ones, and
// counts equal to the list lengths; and the owned elements of what
// SnapshotToJSON makes of the same graph detached are what it yields.
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
		t.Run(fmt.Sprintf("filtered=%t/detached", own.filtering()), func(t *testing.T) {
			det := SnapshotToJSON(h.Snapshot(), at, true)
			det.Nodes = slices.DeleteFunc(det.Nodes, func(n wire.Node) bool { return !own.ownsNode(historygraph.NodeID(n.ID)) })
			det.Edges = slices.DeleteFunc(det.Edges, func(e wire.Edge) bool { return !own.ownsNode(historygraph.NodeID(e.From)) })
			det.NumNodes, det.NumEdges = len(det.Nodes), len(det.Edges)
			if !reflect.DeepEqual(det, snapshotOf(h, at, true, own)) {
				t.Fatal("the view and its detached copy answer differently")
			}
		})
		t.Run(fmt.Sprintf("filtered=%t/view", own.filtering()), func(t *testing.T) {
			full := snapshotOf(h, at, true, own)
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
			if own.filtering() && (full.NumNodes == h.NumNodes() || full.NumEdges == h.NumEdges()) {
				t.Fatal("the half ownership dropped nothing")
			}

			counts := snapshotOf(h, at, false, own)
			if counts.Nodes != nil || counts.Edges != nil || counts.NumNodes != full.NumNodes || counts.NumEdges != full.NumEdges {
				t.Fatalf("counts-only answer %+v against lists of %d/%d", counts, full.NumNodes, full.NumEdges)
			}

			var buf bytes.Buffer
			se := wire.NewStreamEncoder(&buf, 7)
			nodes, edges, walk := walkSnapshot(h, own, true)
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
