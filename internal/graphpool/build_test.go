package graphpool

import (
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
