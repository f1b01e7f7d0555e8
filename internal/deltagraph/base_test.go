package deltagraph

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"historygraph/internal/baseline"
	"historygraph/internal/datagen"
	"historygraph/internal/delta"
	"historygraph/internal/graph"
	"historygraph/internal/kvstore"
)

// rebaseEveryNode moves every pending node of dg, leaves included, to the
// null graph, whatever the rule says of it, and returns how many it moved.
func rebaseEveryNode(dg *DeltaGraph) (moved int) {
	dg.mu.Lock()
	defer dg.mu.Unlock()
	for _, level := range dg.pending {
		for i := range level {
			if !level[i].onNull {
				moved++
			}
			dg.rebaseLocked(&level[i])
		}
	}
	return moved
}

// appendRebasing appends events to both indexes one at a time, and after every
// leaf cut calls onCut (if any) and then moves every pending node of forced to
// the null graph.
func appendRebasing(t *testing.T, built, forced *DeltaGraph, events graph.EventList, onCut func()) {
	t.Helper()
	leaves := len(forced.skel.leaves)
	for _, ev := range events {
		for _, dg := range []*DeltaGraph{built, forced} {
			if err := dg.Append(ev); err != nil {
				t.Fatal(err)
			}
		}
		if n := len(forced.skel.leaves); n != leaves {
			leaves = n
			if onCut != nil {
				onCut()
			}
			rebaseEveryNode(forced)
		}
	}
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
	samePayloads(t, what+": index store", payloads(t, forced.store, 1, 1, forced.nextDeltaID), payloads(t, built.store, 1, 1, built.nextDeltaID))
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
			base := graph.NewSnapshot()
			if !c.onNull {
				base = dg.cur.Snapshot()
			}
			graphs, aux = append(graphs, graphOf(c, base)), append(aux, c.aux)
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

// TestPendingBaseIsInvisible: which base a pending node is held on shows in no
// stored byte and in no answer. Two indexes take the same events; one is as
// the builder makes it, in the other every pending node is moved to the null
// graph after every leaf cut, the leaves among them, which the rule would
// never move. The permanent payloads stay byte-equal, the pending graphs
// equal, every past time reads as naive replay has it on both, and the two
// checkpoints, which do differ (a node held from the null graph is stored from
// it), reopen into indexes that go on writing the same bytes.
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
				var pair [2]*DeltaGraph // as built, forced
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
					appendRebasing(t, pair[0], pair[1], events[lo:hi], nil)
					check(fmt.Sprintf("after %d events", hi), hi)
				}
				if rebaseEveryNode(pair[1]) != 0 {
					t.Fatal("a pending node of the forced index was left on the current graph")
				}
				for i, dg := range pair {
					if err := dg.Checkpoint(); err != nil {
						t.Fatal(err)
					}
					if pair[i], err = Open(Options{Store: dg.Store(), AuxIndexes: []AuxIndex{degreeAux{}}}); err != nil {
						t.Fatal(err)
					}
				}
				before := pair[0].Stats().Leaves
				appendRebasing(t, pair[0], pair[1], events[split:], nil)
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
		x := nodeElem(graph.NodeID(1 + rng.Intn(nodes+never)))
		if rng.Intn(2) == 0 {
			x = edgeElem(graph.EdgeID(1 + rng.Intn(edges+never)))
		}
		im := imageIn(s, x)
		addable := !im.present && len(im.attrs) == 0 && (x.edge && x.id <= edges || !x.edge && x.id <= nodes)
		switch k := rng.Intn(8); {
		case k < 2 && addable:
			ev.Type, ev.Node = graph.AddNode, graph.NodeID(x.id)
			if x.edge {
				ev.Type, ev.Edge, ev.Node, ev.Node2 = graph.AddEdge, graph.EdgeID(x.id), graph.NodeID(x.id%nodes+1), graph.NodeID(x.id*7%nodes+1)
			}
		case k < 4 && im.present && len(im.attrs) == 0:
			ev.Type, ev.Node = graph.DelNode, graph.NodeID(x.id)
			if x.edge {
				ev.Type, ev.Edge, ev.Node, ev.Node2 = graph.DelEdge, graph.EdgeID(x.id), im.info.From, im.info.To
			}
		default: // an attribute set, changed or removed, whether the element is there or not
			ev.Type, ev.Node, ev.Attr = graph.SetNodeAttr, graph.NodeID(x.id), []string{"a", "b"}[rng.Intn(2)]
			if x.edge {
				ev.Type, ev.Edge, ev.Node = graph.SetEdgeAttr, graph.EdgeID(x.id), 0
			}
			if ev.Old, ev.HadOld = im.attrs[ev.Attr]; !ev.HadOld || rng.Intn(3) != 0 {
				ev.New, ev.HasNew = []string{"x", "y", "z"}[rng.Intn(3)], true
			}
		}
		s.Apply(ev)
		events = append(events, ev)
	}
	return events
}

// TestFarNodeKeepsAttributesOfAbsentElements: "every element the current graph
// holds anything of" counts the ids that hold attribute values and are not in
// the graph, which ForEachNode and ForEachEdge pass over. A node moved to the
// null graph takes such an id's values from the current graph when its patch
// does not name the id, and a parent over a node on the null graph is
// evaluated there even when no child names it. With either walk over members
// only, the forced index below writes other bytes than the one as built and
// both answer wrongly at leaf times.
func TestFarNodeKeepsAttributesOfAbsentElements(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		events := orphanTrace(seed, 700)
		var pair [2]*DeltaGraph // as built, forced
		for i := range pair {
			var err error
			if pair[i], err = New(Options{LeafSize: 8, Arity: 2}); err != nil {
				t.Fatal(err)
			}
		}
		byRule, taken := 0, 0
		// At a leaf cut: what the forced move is about to read out of the
		// current graph (ids not in it, with values no patch names), and the
		// nodes the rule has moved in the index as built, counted at every
		// cut they live through.
		onCut := func() {
			cur := pair[1].CurrentSnapshot()
			for _, level := range pair[1].pending {
				for _, c := range level {
					eachElem(cur, func(x elem) {
						if _, named := c.patch[x]; !named && !c.onNull && !imageIn(cur, x).present {
							taken++
						}
					})
				}
			}
			for _, level := range pair[0].pending {
				for _, c := range level {
					if c.onNull {
						byRule++
					}
				}
			}
		}
		for lo := 0; lo < len(events); lo += 50 {
			appendRebasing(t, pair[0], pair[1], events[lo:lo+50], onCut)
			hi := lo + 50
			sameIndexBytes(t, fmt.Sprintf("seed %d, after %d events", seed, hi), pair[0], pair[1])
			for _, q := range pair[0].LeafTimes() {
				want := graph.SnapshotAt(events[:hi], q)
				for i, dg := range pair {
					if got, err := dg.GetSnapshot(q, allAttrs); err != nil || !got.Equal(want) {
						t.Fatalf("seed %d, after %d events: index %d at leaf time %d has node attrs %v, edge attrs %v; replay has %v, %v (%v)",
							seed, hi, i, q, got.NodeAttrs, got.EdgeAttrs, want.NodeAttrs, want.EdgeAttrs, err)
					}
				}
			}
		}
		if byRule == 0 || taken < 50 {
			t.Fatalf("seed %d: the rule held a node from the null graph at %d cuts, and the forced moves read %d absent elements' values out of the current graph: the trace does not cover what it is for", seed, byRule, taken)
		}
	}
}
