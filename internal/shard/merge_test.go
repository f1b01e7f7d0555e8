package shard

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"historygraph/internal/wire"
)

// concatSorted is the merge as it was before the legs' order was relied on:
// concatenate every leg's list, then sort by ID.
func concatSorted[T any](lists [][]T, id func(*T) int64) []T {
	var out []T
	for _, l := range lists {
		out = append(out, l...)
	}
	sort.Slice(out, func(i, j int) bool { return id(&out[i]) < id(&out[j]) })
	return out
}

// TestMergeByIDMatchesConcatenateAndSort merges random disjoint ID-sorted
// legs, nil and empty ones and failed ones among them, and compares every
// merged answer with the concatenate-and-sort one, nil against empty
// included.
func TestMergeByIDMatchesConcatenateAndSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 500; round++ {
		legs := 1 + rng.Intn(4)
		nodeLists, edgeLists := make([][]wire.Node, legs), make([][]wire.Edge, legs)
		// Each ID goes to at most one leg, and each leg keeps its IDs in order.
		for id := int64(-20); id < int64(rng.Intn(60)); id++ {
			if leg := rng.Intn(legs + 1); leg < legs {
				nodeLists[leg] = append(nodeLists[leg], wire.Node{ID: id})
			}
			if leg := rng.Intn(legs + 1); leg < legs {
				edgeLists[leg] = append(edgeLists[leg], wire.Edge{ID: id << 20, From: id, To: -id})
			}
		}
		parts := make([]*wire.Snapshot, legs)
		intervals := make([]*wire.Interval, legs)
		var errs []wire.PartitionError
		var liveNodes [][]wire.Node
		var liveEdges [][]wire.Edge
		for i := range parts {
			switch rng.Intn(6) {
			case 0: // a failed leg
				errs = append(errs, wire.PartitionError{Partition: i, Error: "down"})
				continue
			case 1: // an empty leg, which the binary codec keeps apart from a nil one
				nodeLists[i], edgeLists[i] = []wire.Node{}, []wire.Edge{}
			case 2:
				nodeLists[i], edgeLists[i] = nil, nil
			}
			parts[i] = &wire.Snapshot{NumNodes: len(nodeLists[i]), NumEdges: len(edgeLists[i]), Nodes: nodeLists[i], Edges: edgeLists[i]}
			intervals[i] = &wire.Interval{NumNodes: len(nodeLists[i]), NumEdges: len(edgeLists[i]), Nodes: nodeLists[i], Edges: edgeLists[i]}
			liveNodes, liveEdges = append(liveNodes, nodeLists[i]), append(liveEdges, edgeLists[i])
		}
		wantNodes, wantEdges := concatSorted(liveNodes, nodeID), concatSorted(liveEdges, edgeID)

		got := mergeSnapshots(7, parts, errs)
		if !reflect.DeepEqual(got.Nodes, wantNodes) || !reflect.DeepEqual(got.Edges, wantEdges) {
			t.Fatalf("round %d: snapshot merge\n nodes %v\n want  %v\n edges %v\n want  %v", round, got.Nodes, wantNodes, got.Edges, wantEdges)
		}
		if got.NumNodes != len(wantNodes) || got.NumEdges != len(wantEdges) || !reflect.DeepEqual(got.Partial, errs) {
			t.Fatalf("round %d: counts %d/%d partial %v, want %d/%d %v", round, got.NumNodes, got.NumEdges, got.Partial, len(wantNodes), len(wantEdges), errs)
		}
		gotI := mergeIntervals(intervals, errs)
		if !reflect.DeepEqual(gotI.Nodes, wantNodes) || !reflect.DeepEqual(gotI.Edges, wantEdges) {
			t.Fatalf("round %d: interval merge\n nodes %v\n want  %v\n edges %v\n want  %v", round, gotI.Nodes, wantNodes, gotI.Edges, wantEdges)
		}
	}
}
