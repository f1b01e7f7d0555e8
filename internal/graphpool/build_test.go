package graphpool

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"historygraph/internal/delta"
	"historygraph/internal/graph"
)

// TestBuildLeavesNothingBehind: what a graph under construction adds and
// takes out again before it is committed — a node with a value, an edge
// with a value, a value given and taken back — leaves no record, value or
// exception behind, whether the graph is explicit or a dependent of the
// current graph, built from events, undone events, a delta or images. The pool then
// holds the elements it held before the build while the graph is held, and,
// once the lists the build grew are grown, as many bytes.
func TestBuildLeavesNothingBehind(t *testing.T) {
	p := New()
	for _, ev := range []graph.Event{
		{Type: graph.AddNode, Node: 1}, {Type: graph.AddNode, Node: 2},
		{Type: graph.AddEdge, Edge: 1, Node: 1, Node2: 2},
		{Type: graph.SetNodeAttr, Node: 1, Attr: "a", New: "x", HasNew: true},
	} {
		p.ApplyEvent(ev)
	}
	p.ClearRecent()
	passing := graph.EventList{
		{Type: graph.AddNode, Node: 9},
		{Type: graph.SetNodeAttr, Node: 9, Attr: "a", New: "y", HasNew: true},
		{Type: graph.AddEdge, Edge: 7, Node: 9, Node2: 1},
		{Type: graph.SetEdgeAttr, Edge: 7, Attr: "w", New: "2", HasNew: true},
		{Type: graph.SetNodeAttr, Node: 1, Attr: "a", Old: "x", HadOld: true, New: "z", HasNew: true},
		{Type: graph.SetNodeAttr, Node: 1, Attr: "a", Old: "z", HadOld: true, New: "x", HasNew: true},
		{Type: graph.DelEdge, Edge: 1, Node: 1, Node2: 2},
		{Type: graph.AddEdge, Edge: 1, Node: 1, Node2: 2},
		{Type: graph.SetEdgeAttr, Edge: 7, Attr: "w", Old: "2", HadOld: true},
		{Type: graph.DelEdge, Edge: 7, Node: 9, Node2: 1},
		{Type: graph.SetNodeAttr, Node: 9, Attr: "a", Old: "y", HadOld: true},
		{Type: graph.DelNode, Node: 9},
	}
	there := graph.NewSnapshot()
	there.ApplyAll(passing[:4])
	for pass := 0; pass < 2; pass++ {
		for _, dependent := range []bool{false, true} {
			for _, how := range []string{"events", "undone", "delta", "images"} {
				before, st := p.ApproxBytes(), p.Stats()
				b, err := p.NewBuild(CurrentGraph, dependent, allAttrs)
				if err != nil {
					t.Fatal(err)
				}
				switch how {
				case "events":
					b.ApplyEvents(passing, false)
				case "undone": // there and back: the inverse of every event, newest first
					b.ApplyEvents(passing[:4], false)
					b.ApplyEvents(passing[:4], true)
				case "delta":
					b.ApplyDelta(delta.FromSnapshot(there))
					b.ApplyDelta(&delta.Delta{DelNodes: []graph.NodeID{9}, DelEdges: []delta.EdgeRec{{ID: 7, From: 9, To: 1}},
						DelNodeAttrs: []delta.NodeAttrRec{{Node: 9, Attr: "a"}}, DelEdgeAttrs: []delta.EdgeAttrRec{{Edge: 7, From: 9, Attr: "w"}}})
				case "images": // each element set to what another graph has, edge 1 between other nodes, then set back
					b.SetNode(9, true, map[string]string{"a": "y"})
					b.SetEdge(7, graph.EdgeInfo{From: 9, To: 1}, true, map[string]string{"w": "2"})
					b.SetNode(1, true, map[string]string{"a": "z"})
					b.SetEdge(1, graph.EdgeInfo{From: 2, To: 1}, true, nil)
					b.SetEdge(1, graph.EdgeInfo{From: 1, To: 2}, true, nil)
					b.SetNode(1, true, map[string]string{"a": "x"})
					b.SetEdge(7, graph.EdgeInfo{}, false, nil)
					b.SetNode(9, false, nil)
				}
				id := b.Commit(KindHistorical, 1)
				v, _ := p.View(id)
				if !v.Snapshot().Equal(p.Current().Snapshot()) || v.NumNodes() != 2 || v.NumEdges() != 1 {
					t.Fatalf("dependent=%v, %s: the graph is not the current graph it came back to", dependent, how)
				}
				after := p.Stats()
				if got := p.ApproxBytes(); pass == 1 && got != before || after.PoolNodes != st.PoolNodes || after.PoolEdges != st.PoolEdges {
					t.Errorf("dependent=%v, %s: holding the graph, the pool has %d B, %d nodes, %d edges; before the build %d B, %d, %d",
						dependent, how, got, after.PoolNodes, after.PoolEdges, before, st.PoolNodes, st.PoolEdges)
				}
				p.mu.RLock()
				exceptions := 0
				for _, pn := range p.nodes {
					if v.entry.m.exc >= 0 && p.bit(pn.bits(), v.entry.m.exc) {
						exceptions++
					}
				}
				p.mu.RUnlock()
				if exceptions > 0 {
					t.Errorf("dependent=%v, %s: %d nodes hold an exception that says what the current graph says", dependent, how, exceptions)
				}
				if err := p.Release(id); err != nil {
					t.Fatal(err)
				}
				p.CleanNow()
			}
		}
	}
}

// TestForEachDiffering: the walk names, once each, exactly the ids on which
// one of the graphs it is given holds another image than the current graph:
// membership, an edge's endpoints (an id two graphs hold between different
// nodes), an attribute value, a value on an id the graph does not contain.
// Ids on which only a graph it is not given differs are not named.
func TestForEachDiffering(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const ids = 24
	draw := func() *graph.Snapshot {
		s := graph.NewSnapshot()
		for i := 1; i <= ids; i++ {
			n, e := graph.NodeID(i), graph.EdgeID(i)
			if rng.Intn(2) == 0 {
				s.Nodes[n] = struct{}{}
			}
			if rng.Intn(2) == 0 {
				s.Edges[e] = graph.EdgeInfo{From: n, To: graph.NodeID(1 + (i+rng.Intn(2))%ids)}
			}
			if rng.Intn(3) == 0 {
				s.NodeAttrs[n] = map[string]string{"a": fmt.Sprint(rng.Intn(2))}
			}
			if rng.Intn(3) == 0 {
				s.EdgeAttrs[e] = map[string]string{"w": fmt.Sprint(rng.Intn(2))}
			}
		}
		return s
	}
	sameNode := func(a, b *graph.Snapshot, n graph.NodeID) bool {
		_, inA := a.Nodes[n]
		_, inB := b.Nodes[n]
		return inA == inB && maps.Equal(a.NodeAttrs[n], b.NodeAttrs[n])
	}
	sameEdge := func(a, b *graph.Snapshot, e graph.EdgeID) bool {
		infoA, inA := a.Edges[e]
		infoB, inB := b.Edges[e]
		return inA == inB && infoA == infoB && maps.Equal(a.EdgeAttrs[e], b.EdgeAttrs[e])
	}
	named := 0
	for round := range 40 {
		p := New()
		cur := draw()
		p.LoadCurrent(cur)
		var given []GraphID
		var graphs []*graph.Snapshot
		for i := range 4 {
			s := draw()
			id := p.OverlayMaterialized(s)
			if i < 2 {
				given, graphs = append(given, id), append(graphs, s)
			}
		}
		gotNodes, gotEdges := map[graph.NodeID]int{}, map[graph.EdgeID]int{}
		p.ForEachDiffering(given, func(n graph.NodeID) { gotNodes[n]++ }, func(e graph.EdgeID) { gotEdges[e]++ })
		for i := 1; i <= ids; i++ {
			n, e := graph.NodeID(i), graph.EdgeID(i)
			wantNode, wantEdge := 0, 0
			for _, s := range graphs {
				if !sameNode(s, cur, n) {
					wantNode = 1
				}
				if !sameEdge(s, cur, e) {
					wantEdge = 1
				}
			}
			if gotNodes[n] != wantNode || gotEdges[e] != wantEdge {
				t.Fatalf("round %d: node %d named %d times, want %d; edge %d named %d times, want %d",
					round, n, gotNodes[n], wantNode, e, gotEdges[e], wantEdge)
			}
			named += wantNode + wantEdge
		}
		if len(gotNodes)+len(gotEdges) > 2*ids {
			t.Fatalf("round %d: ids named that no graph holds", round)
		}
	}
	if named == 0 {
		t.Fatal("no id differed: the draws cover nothing")
	}

	// An id whose first record only a third graph holds, while the given one
	// and the current graph hold it between two other pairs of nodes.
	p := New()
	third := graph.NewSnapshot()
	third.Edges[1] = graph.EdgeInfo{From: 1, To: 2}
	p.OverlayMaterialized(third)
	cur, other := graph.NewSnapshot(), graph.NewSnapshot()
	cur.Edges[1], other.Edges[1] = graph.EdgeInfo{From: 2, To: 3}, graph.EdgeInfo{From: 3, To: 4}
	p.LoadCurrent(cur)
	edges := 0
	p.ForEachDiffering([]GraphID{p.OverlayMaterialized(other)}, func(graph.NodeID) {}, func(graph.EdgeID) { edges++ })
	if edges != 1 {
		t.Fatalf("an edge held between other nodes than the current graph's, on records past the first, named %d times", edges)
	}
}
