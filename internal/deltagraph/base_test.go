package deltagraph

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"testing"

	"historygraph/internal/baseline"
	"historygraph/internal/datagen"
	"historygraph/internal/delta"
	"historygraph/internal/graph"
	"historygraph/internal/kvstore"
)

// appendReopening appends events to both indexes one at a time, and after
// every leaf cut checkpoints *reopened and opens it again, so that every
// pending node of it is one Open committed from what the checkpoint stored.
func appendReopening(t *testing.T, built *DeltaGraph, reopened **DeltaGraph, events graph.EventList) {
	t.Helper()
	leaves := len((*reopened).skel.leaves)
	for _, ev := range events {
		for _, dg := range []*DeltaGraph{built, *reopened} {
			if err := dg.Append(ev); err != nil {
				t.Fatal(err)
			}
		}
		if n := len((*reopened).skel.leaves); n != leaves {
			leaves = n
			reopen(t, reopened)
		}
	}
}

// reopen checkpoints *dg and replaces it with the index Open makes of its
// store.
func reopen(t *testing.T, dg **DeltaGraph) {
	t.Helper()
	if err := (*dg).Checkpoint(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Options{Store: (*dg).Store(), AuxIndexes: (*dg).auxes})
	if err != nil {
		t.Fatal(err)
	}
	*dg = re
}

// sameIndexBytes: the two indexes hold the same permanent payloads and the
// same pending graphs.
func sameIndexBytes(t *testing.T, what string, built, forced *DeltaGraph) {
	t.Helper()
	for _, dg := range []*DeltaGraph{built, forced} {
		if err := dg.Flush(); err != nil { // the builder's puts reach the store
			t.Fatal(err)
		}
	}
	if built.nextDeltaID != forced.nextDeltaID {
		t.Fatalf("%s: next delta id %d, as built %d", what, forced.nextDeltaID, built.nextDeltaID)
	}
	samePayloads(t, what+": index store", payloads(t, forced.store, 1, 1, forced.nextDeltaID, kvstore.ComponentAuxBase), payloads(t, built.store, 1, 1, built.nextDeltaID, kvstore.ComponentAuxBase))
	want, wantAux := pendingGraphs(built)
	got, gotAux := pendingGraphs(forced)
	if len(got) != len(want) || !reflect.DeepEqual(gotAux, wantAux) {
		t.Fatalf("%s: %d pending nodes with aux snapshots %v, as built %d with %v", what, len(got), gotAux, len(want), wantAux)
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s: pending node %d holds another graph than as built", what, i)
		}
	}
}

// pendingGraphs returns the graph and the aux snapshots of every pending node
// of dg, highest level first, each level in order.
func pendingGraphs(dg *DeltaGraph) ([]*graph.Snapshot, [][]AuxSnapshot) {
	dg.mu.RLock()
	defer dg.mu.RUnlock()
	var graphs []*graph.Snapshot
	var aux [][]AuxSnapshot
	for level := len(dg.pending) - 1; level >= 0; level-- {
		for _, c := range dg.pending[level] {
			graphs, aux = append(graphs, c.graph.Snapshot()), append(aux, c.aux)
		}
	}
	return graphs, aux
}

// leafAndMidTimes lists every leaf's time and a time inside every leaf.
func leafAndMidTimes(dg *DeltaGraph) []graph.Time {
	leaves := dg.LeafTimes()
	ts, prev := make([]graph.Time, 0, 2*len(leaves)), graph.Time(0)
	for _, at := range leaves {
		ts = append(ts, prev+(at-prev)/2, at)
		prev = at
	}
	return ts
}

// TestPendingBaseIsInvisible: which base a checkpoint stores a pending node
// from, its first leaf or the null graph, shows in no stored byte and in no
// answer. Two indexes take the same events; one is as the builder makes it,
// the other is checkpointed and opened again after every leaf cut, so that
// each of its pending nodes is a graph Open rebuilt from its base. The
// permanent payloads stay byte-equal, the pending graphs equal, every past
// time reads as naive replay has it on both, and both, checkpointed and
// reopened once more, go on writing the same bytes.
func TestPendingBaseIsInvisible(t *testing.T) {
	events := datagen.MessyTrace(30, 1400)
	const leaf = 24
	split := len(events) - 6*leaf // about half of MessyTrace changes nothing
	for _, fn := range []string{"intersection", "union", "balanced", "skewed:0.3", "rightskewed:0.5", "leftskewed:0.5", "empty"} {
		for _, arity := range []int{2, 3, 4} {
			t.Run(fmt.Sprintf("%s/k%d", fn, arity), func(t *testing.T) {
				f, err := delta.ByName(fn)
				if err != nil {
					t.Fatal(err)
				}
				var pair [2]*DeltaGraph // as built, reopened at every cut
				for i := range pair {
					if pair[i], err = New(Options{LeafSize: leaf, Arity: arity, Function: f, AuxIndexes: []AuxIndex{degreeAux{}}}); err != nil {
						t.Fatal(err)
					}
				}
				check := func(what string, hi int) {
					t.Helper()
					sameIndexBytes(t, what, pair[0], pair[1])
					naive, err := baseline.BuildNaiveLog(events[:hi], kvstore.NewMemStore())
					if err != nil {
						t.Fatal(err)
					}
					for _, q := range leafAndMidTimes(pair[0]) {
						want, err := naive.Snapshot(q, allAttrs)
						if err != nil {
							t.Fatal(err)
						}
						for i, dg := range pair {
							if got, err := dg.GetSnapshot(q, allAttrs); err != nil || !got.Equal(want) {
								t.Fatalf("%s: index %d, snapshot at %d differs from naive replay (%v)", what, i, q, err)
							}
						}
					}
				}
				for lo := 0; lo < split; lo += 150 {
					hi := min(lo+150, split)
					appendReopening(t, pair[0], &pair[1], events[lo:hi])
					check(fmt.Sprintf("after %d events", hi), hi)
				}
				for i := range pair {
					reopen(t, &pair[i])
				}
				before := pair[0].Stats().Leaves
				appendReopening(t, pair[0], &pair[1], events[split:])
				if got := pair[0].Stats().Leaves - before; got < 2 {
					t.Fatalf("only %d leaves cut after the reopen", got)
				}
				check("after the reopen", len(events))
			})
		}
	}
}

// orphanTrace is a seeded trace in which ids carry attribute values without
// being in the graph: ids that are never added, and ids that were deleted
// (bare, as the data model asks) and have values set on them afterwards. Such
// an id is not added or deleted while it holds a value, so that every event
// plays backward exactly, and every event has a time of its own.
func orphanTrace(seed int64, n int) graph.EventList {
	rng := rand.New(rand.NewSource(seed))
	const nodes, edges, never = 14, 24, 6 // ids above nodes (edges) are never added
	s := graph.NewSnapshot()
	var events graph.EventList
	for len(events) < n {
		ev := graph.Event{At: graph.Time(len(events) + 1)}
		edge := rng.Intn(2) == 0
		id := int64(1 + rng.Intn(nodes+never))
		_, present := s.Nodes[graph.NodeID(id)]
		attrs := s.NodeAttrs[graph.NodeID(id)]
		var info graph.EdgeInfo
		if edge {
			id = int64(1 + rng.Intn(edges+never))
			info, present = s.Edges[graph.EdgeID(id)]
			attrs = s.EdgeAttrs[graph.EdgeID(id)]
		}
		addable := !present && len(attrs) == 0 && (edge && id <= edges || !edge && id <= nodes)
		switch k := rng.Intn(8); {
		case k < 2 && addable:
			ev.Type, ev.Node = graph.AddNode, graph.NodeID(id)
			if edge {
				ev.Type, ev.Edge, ev.Node, ev.Node2 = graph.AddEdge, graph.EdgeID(id), graph.NodeID(id%nodes+1), graph.NodeID(id*7%nodes+1)
			}
		case k < 4 && present && len(attrs) == 0:
			ev.Type, ev.Node = graph.DelNode, graph.NodeID(id)
			if edge {
				ev.Type, ev.Edge, ev.Node, ev.Node2 = graph.DelEdge, graph.EdgeID(id), info.From, info.To
			}
		default: // an attribute set, changed or removed, whether the element is there or not
			ev.Type, ev.Node, ev.Attr = graph.SetNodeAttr, graph.NodeID(id), []string{"a", "b"}[rng.Intn(2)]
			if edge {
				ev.Type, ev.Edge, ev.Node = graph.SetEdgeAttr, graph.EdgeID(id), 0
			}
			if ev.Old, ev.HadOld = attrs[ev.Attr]; !ev.HadOld || rng.Intn(3) != 0 {
				ev.New, ev.HasNew = []string{"x", "y", "z"}[rng.Intn(3)], true
			}
		}
		s.Apply(ev)
		events = append(events, ev)
	}
	return events
}

// TestFarNodeKeepsAttributesOfAbsentElements: "every element a graph holds
// anything of" counts the ids that hold attribute values and are not in the
// graph, which ForEachNode and ForEachEdge pass over. A pending leaf copied
// from the current graph keeps such an id's values, a parent is evaluated on
// an id whose values alone differ between a child and the current graph (one
// no edge record is left for, too), and a function that is not element-wise
// is evaluated on every such id the current graph holds. With any of these
// over members only, the index writes other bytes than whole-graph
// construction does (refBuilder), and answers wrongly at leaf times.
func TestFarNodeKeepsAttributesOfAbsentElements(t *testing.T) {
	for _, fn := range []string{"intersection", "empty"} {
		for seed := int64(1); seed <= 3; seed++ {
			f, err := delta.ByName(fn)
			if err != nil {
				t.Fatal(err)
			}
			events := orphanTrace(seed, 700)
			opts := Options{LeafSize: 8, Arity: 2, Function: f}
			dg, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefBuilder(t, opts)
			// held counts, at every check, the values the pending graphs give
			// ids they do not contain where the current graph gives others, and
			// orphans the values the current graph gives ids it does not contain.
			held, orphans := 0, 0
			for lo := 0; lo < len(events); lo += 50 {
				hi := lo + 50
				if err := dg.AppendAll(events[lo:hi]); err != nil {
					t.Fatal(err)
				}
				ref.appendAll(t, canonical(events[:hi])[len(canonical(events[:lo])):])
				ref.compare(t, dg)
				graphs, _ := pendingGraphs(dg)
				cur := dg.CurrentSnapshot()
				for n := range cur.NodeAttrs {
					if _, in := cur.Nodes[n]; !in {
						orphans++
					}
				}
				for e := range cur.EdgeAttrs {
					if _, in := cur.Edges[e]; !in {
						orphans++
					}
				}
				for _, g := range graphs {
					for n, attrs := range g.NodeAttrs {
						if _, in := g.Nodes[n]; !in && !maps.Equal(attrs, cur.NodeAttrs[n]) {
							held++
						}
					}
					for e, attrs := range g.EdgeAttrs {
						if _, in := g.Edges[e]; !in && !maps.Equal(attrs, cur.EdgeAttrs[e]) {
							held++
						}
					}
				}
				for _, q := range dg.LeafTimes() {
					want := graph.SnapshotAt(events[:hi], q)
					if got, err := dg.GetSnapshot(q, allAttrs); err != nil || !got.Equal(want) {
						t.Fatalf("%s, seed %d, after %d events: at leaf time %d node attrs %v, edge attrs %v; replay has %v, %v (%v)",
							fn, seed, hi, q, got.NodeAttrs, got.EdgeAttrs, want.NodeAttrs, want.EdgeAttrs, err)
					}
				}
			}
			// What each case is for: the walk over the differing elements must
			// find the first, the walk over the current graph the second.
			if covered := map[bool]int{true: held, false: orphans}[f.Elementwise()]; covered < 50 {
				t.Fatalf("%s, seed %d: the pending graphs gave ids they do not contain values the current graph does not %d times, and the current graph gave values to ids it does not contain %d times: the trace does not cover what it is for",
					fn, seed, held, orphans)
			}
		}
	}
}
