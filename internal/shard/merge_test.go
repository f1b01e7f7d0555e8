package shard

import (
	"bytes"
	"errors"
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

func nodeKey(n *wire.Node) int64 { return n.ID }
func edgeKey(e *wire.Edge) int64 { return e.ID }

// cutRuns cuts list into runs at random boundaries, none of them empty.
func cutRuns[T any](rng *rand.Rand, list []T) [][]T {
	var runs [][]T
	for len(list) > 0 {
		n := 1 + rng.Intn(len(list))
		runs, list = append(runs, list[:n]), list[n:]
	}
	return runs
}

// TestMergeByIDMatchesConcatenateAndSort merges random disjoint ID-sorted
// legs, nil and empty ones and failed ones among them, and compares every
// merged answer with the concatenate-and-sort one, nil against empty
// included. The same legs also go through the merge core as streams, each
// cut into runs at random boundaries and some dying part way, merged into
// a stream encoder; the decoded stream must hold exactly what the legs
// delivered, and name every failed and dead partition in order.
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
		streams := make([]*leg, legs)
		var errs, streamErrs []wire.PartitionError
		var liveNodes, sentNodes [][]wire.Node
		var liveEdges, sentEdges [][]wire.Edge
		wantCached, wantStreamCached := true, true
		for i := range parts {
			switch rng.Intn(6) {
			case 0: // a failed leg
				errs = append(errs, wire.PartitionError{Partition: i, Error: "down"})
				streamErrs = append(streamErrs, errs[len(errs)-1])
				wantCached, wantStreamCached = false, false
				continue
			case 1: // an empty leg, which the binary codec keeps apart from a nil one
				nodeLists[i], edgeLists[i] = []wire.Node{}, []wire.Edge{}
			case 2:
				nodeLists[i], edgeLists[i] = nil, nil
			}
			cached := rng.Intn(4) > 0
			wantCached = wantCached && cached
			parts[i] = &wire.Snapshot{NumNodes: len(nodeLists[i]), NumEdges: len(edgeLists[i]), Nodes: nodeLists[i], Edges: edgeLists[i], Cached: cached}
			intervals[i] = &wire.Interval{NumNodes: len(nodeLists[i]), NumEdges: len(edgeLists[i]), Nodes: nodeLists[i], Edges: edgeLists[i]}
			liveNodes, liveEdges = append(liveNodes, nodeLists[i]), append(liveEdges, edgeLists[i])

			var frames []*wire.StreamFrame
			for _, run := range cutRuns(rng, nodeLists[i]) {
				frames = append(frames, &wire.StreamFrame{Nodes: run})
			}
			for _, run := range cutRuns(rng, edgeLists[i]) {
				frames = append(frames, &wire.StreamFrame{Edges: run})
			}
			frames = append(frames, &wire.StreamFrame{Summary: &wire.Snapshot{Cached: cached}})
			if rng.Intn(5) == 0 { // the stream breaks off before frame cut
				frames = frames[:rng.Intn(len(frames))]
				streamErrs = append(streamErrs, wire.PartitionError{Partition: i, Error: "truncated"})
				wantStreamCached = false
			}
			wantStreamCached = wantStreamCached && cached
			for _, f := range frames {
				sentNodes, sentEdges = append(sentNodes, f.Nodes), append(sentEdges, f.Edges)
			}
			streams[i] = &leg{next: func() (*wire.StreamFrame, error) {
				if len(frames) == 0 {
					return nil, errors.New("truncated")
				}
				f := frames[0]
				frames = frames[1:]
				return f, nil
			}}
		}
		wantNodes, wantEdges := concatSorted(liveNodes, nodeKey), concatSorted(liveEdges, edgeKey)

		got := mergeSnapshots(7, parts, errs)
		if !reflect.DeepEqual(got.Nodes, wantNodes) || !reflect.DeepEqual(got.Edges, wantEdges) {
			t.Fatalf("round %d: snapshot merge\n nodes %v\n want  %v\n edges %v\n want  %v", round, got.Nodes, wantNodes, got.Edges, wantEdges)
		}
		if got.NumNodes != len(wantNodes) || got.NumEdges != len(wantEdges) || !reflect.DeepEqual(got.Partial, errs) {
			t.Fatalf("round %d: counts %d/%d partial %v, want %d/%d %v", round, got.NumNodes, got.NumEdges, got.Partial, len(wantNodes), len(wantEdges), errs)
		}
		if got.Cached != wantCached {
			t.Fatalf("round %d: snapshot merge cached %t, want %t", round, got.Cached, wantCached)
		}
		gotI := mergeIntervals(intervals, errs)
		if !reflect.DeepEqual(gotI.Nodes, wantNodes) || !reflect.DeepEqual(gotI.Edges, wantEdges) {
			t.Fatalf("round %d: interval merge\n nodes %v\n want  %v\n edges %v\n want  %v", round, gotI.Nodes, wantNodes, gotI.Edges, wantEdges)
		}

		// The streamed form: the encoder cuts runs of its own size, and a
		// stream carries no nil-against-empty difference.
		var buf bytes.Buffer
		se := wire.NewStreamEncoder(&buf, 1+rng.Intn(8))
		sum := wire.Snapshot{At: 7}
		var err error
		sum.Partial, sum.Cached, err = mergeLegs(streams, errs,
			func(n wire.Node) error { sum.NumNodes++; return se.Node(n) },
			func(e wire.Edge) error { sum.NumEdges++; return se.Edge(e) })
		if err != nil {
			t.Fatal(err)
		}
		if err := se.Summary(&sum); err != nil {
			t.Fatal(err)
		}
		gotS, err := wire.DecodeSnapshotStream(&buf)
		if err != nil {
			t.Fatalf("round %d: merged stream does not decode: %v", round, err)
		}
		wantNodes, wantEdges = concatSorted(sentNodes, nodeKey), concatSorted(sentEdges, edgeKey)
		if !reflect.DeepEqual(gotS.Nodes, wantNodes) || !reflect.DeepEqual(gotS.Edges, wantEdges) {
			t.Fatalf("round %d: stream merge\n nodes %v\n want  %v\n edges %v\n want  %v", round, gotS.Nodes, wantNodes, gotS.Edges, wantEdges)
		}
		if gotS.NumNodes != len(wantNodes) || gotS.NumEdges != len(wantEdges) || !reflect.DeepEqual(gotS.Partial, streamErrs) || gotS.Cached != wantStreamCached {
			t.Fatalf("round %d: stream counts %d/%d partial %v cached %t, want %d/%d %v %t", round,
				gotS.NumNodes, gotS.NumEdges, gotS.Partial, gotS.Cached, len(wantNodes), len(wantEdges), streamErrs, wantStreamCached)
		}
	}
}
