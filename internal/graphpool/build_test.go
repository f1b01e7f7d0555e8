package graphpool

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"historygraph/internal/delta"
	"historygraph/internal/graph"
)

// TestBuildLeavesNothingBehind: what a graph under construction adds and
// takes out again before it is committed — a node with a value, an edge
// with a value, a value given and taken back — leaves no record, value or
// exception behind, whether the graph is explicit or a dependent of the
// current graph, built from events, undone events or a delta. The pool then
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
			for _, how := range []string{"events", "undone", "delta"} {
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

// drawGraph draws a graph over node and edge ids 1 to ids: each node and edge
// in it or not, an edge between two pairs of nodes, a node or an edge with one
// of two values or none.
func drawGraph(rng *rand.Rand, ids int) *graph.Snapshot {
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

// recorder decides as its function does and notes the elements Combine asks
// it to decide, and how often it asks Member of each.
type recorder struct {
	delta.Differential
	nodes   map[graph.NodeID]bool
	edges   map[graph.EdgeID]bool
	members map[[2]int64]int
}

func newRecorder(f delta.Differential) *recorder {
	return &recorder{f, map[graph.NodeID]bool{}, map[graph.EdgeID]bool{}, map[[2]int64]int{}}
}

func (r *recorder) note(kind graph.ElementKind, id int64) {
	if kind == graph.KindNode {
		r.nodes[graph.NodeID(id)] = true
	} else {
		r.edges[graph.EdgeID(id)] = true
	}
}

func (r *recorder) Member(kind graph.ElementKind, id int64, kids []int32) int32 {
	r.note(kind, id)
	r.members[[2]int64{int64(kind), id}]++
	return r.Differential.Member(kind, id, kids)
}

func (r *recorder) Value(kind graph.ElementKind, id int64, attr string, kids, vals []int32) int32 {
	r.note(kind, id)
	return r.Differential.Value(kind, id, attr, kids, vals)
}

// TestCombine: the walk decides, once each, exactly the ids on which one of
// the graphs it is given holds another image than the current graph —
// membership, an edge's endpoints (an id two graphs hold between different
// nodes), an attribute value, a value on an id the graph does not contain —
// or, for Empty, anything at all; ids on which only a graph it is not given
// differs are not decided, and the parent holds them as the current graph
// does. Each delta it writes, sorted, is delta.Compute's between the child
// and the parent, and Grow is the difference of their sizes.
func TestCombine(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const ids = 24
	draw := func() *graph.Snapshot { return drawGraph(rng, ids) }
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
	decided := 0
	for round := range 40 {
		for _, f := range []delta.Differential{delta.Intersection{}, delta.Union{}, delta.Balanced(), delta.Empty{}} {
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
			base := cur
			if !f.Elementwise() {
				base = graph.NewSnapshot()
			}
			rec := newRecorder(f)
			made, err := p.Combine(given, make([]bool, len(given)), rec)
			if err != nil {
				t.Fatal(err)
			}
			where := fmt.Sprintf("round %d, %s", round, f.Name())
			parent := made.Parent.Snapshot()
			for i := 1; i <= ids; i++ {
				n, e := graph.NodeID(i), graph.EdgeID(i)
				wantNode, wantEdge := false, false
				for _, s := range graphs {
					wantNode = wantNode || !sameNode(s, base, n)
					wantEdge = wantEdge || !sameEdge(s, base, e)
				}
				if rec.nodes[n] != wantNode || rec.edges[e] != wantEdge {
					t.Fatalf("%s: node %d decided %v, want %v; edge %d decided %v, want %v", where, n, rec.nodes[n], wantNode, e, rec.edges[e], wantEdge)
				}
				if (!wantNode && !sameNode(parent, base, n)) || (!wantEdge && !sameEdge(parent, base, e)) {
					t.Fatalf("%s: the parent holds node %d or edge %d, which no child differs on, otherwise than the base", where, n, e)
				}
				if _, inAll := graphs[0].Nodes[n]; f.Name() == "intersection" {
					_, in1 := graphs[1].Nodes[n]
					if _, got := parent.Nodes[n]; got != (inAll && in1) {
						t.Fatalf("%s: the parent holds node %d: %v, the children %v and %v", where, n, got, inAll, in1)
					}
				}
				if wantNode {
					decided++
				}
			}
			for key, n := range rec.members {
				if n > 1 {
					t.Fatalf("%s: Member asked %d times of element %v", where, n, key)
				}
			}
			for i, d := range made.Deltas {
				d.SortStable()
				if want := delta.Compute(graphs[i], parent); !reflect.DeepEqual(d, want) {
					t.Fatalf("%s: the delta to child %d is %+v, delta.Compute finds %+v", where, i, d, want)
				}
			}
			if made.Grow != parent.Size()-graphs[0].Size() || made.Parent.NumNodes() != len(parent.Nodes) || made.Parent.NumEdges() != len(parent.Edges) {
				t.Fatalf("%s: grows %d, counts %d nodes and %d edges; the parent is %d larger, with %d and %d", where,
					made.Grow, made.Parent.NumNodes(), made.Parent.NumEdges(), parent.Size()-graphs[0].Size(), len(parent.Nodes), len(parent.Edges))
			}
		}
	}
	if decided == 0 {
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
	rec := newRecorder(delta.Union{})
	made, err := p.Combine([]GraphID{p.OverlayMaterialized(other), CurrentGraph}, []bool{false, false}, rec)
	if err != nil {
		t.Fatal(err)
	}
	if n := rec.members[[2]int64{int64(graph.KindEdge), 1}]; n != 1 {
		t.Fatalf("an edge held between other nodes than the current graph's, on records past the first, decided %d times", n)
	}
	if info, ok := made.Parent.EdgeInfo(1); !ok || info != cur.Edges[1] {
		t.Fatalf("the union of the edge as two graphs hold it is %v (%v), want the newer's, %v", info, ok, cur.Edges[1])
	}
}

// TestEvaluate: Evaluate makes of its graphs the graph Combine makes of the
// same graphs with the same function, as a historical graph that shows the
// attributes it is given, on the lowest bit among them that an unpinned one
// holds, and lets go of every one of them: with and without 64 graphs held
// first, so that they are past bit 63, and with the lowest one pinned; with
// every attribute, node attributes alone and none, and a value of a kind it
// does not show keeps none of its bit. Given a graph that is not active, it
// changes nothing.
func TestEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	nodeAttrs := graph.MustParseAttrOptions("+node:all")
	for round := range 10 {
		for _, f := range []delta.Differential{delta.Intersection{}, delta.Union{}, delta.Empty{}} {
			for _, hold := range []int{0, 64} {
				for _, pin := range []bool{false, true} {
					where := fmt.Sprintf("round %d, %s, %d held, pinned %v", round, f.Name(), hold, pin)
					p := New()
					p.LoadCurrent(drawGraph(rng, 24))
					for range hold {
						p.OverlayMaterialized(graph.NewSnapshot())
					}
					var given, again []GraphID
					for range 3 {
						s := drawGraph(rng, 24)
						given, again = append(given, p.OverlayMaterialized(s)), append(again, p.OverlayMaterialized(s))
					}
					made, err := p.Combine(given, make([]bool, len(given)), f)
					if err != nil {
						t.Fatal(err)
					}
					opts := []graph.AttrOptions{allAttrs, nodeAttrs, {}}[round%3]
					if pin {
						if err := p.Pin(again[0]); err != nil {
							t.Fatal(err)
						}
					}
					lowest := -1
					for _, row := range p.MappingTable() {
						if lowest < 0 && slices.Contains(again, row.ID) && (!pin || row.ID != again[0]) {
							lowest = row.Bits[0]
						}
					}
					st := p.Stats()
					id, err := p.Evaluate(again, f, opts)
					if err != nil {
						t.Fatal(err)
					}
					v, err := p.View(id)
					if err != nil {
						t.Fatal(err)
					}
					if want := opts.FilterSnapshot(made.Parent.Snapshot()); !v.Snapshot().Equal(want) || v.NumNodes() != len(want.Nodes) || v.NumEdges() != len(want.Edges) {
						t.Fatalf("%s: the graph evaluated is not the parent combined", where)
					}
					for _, row := range p.MappingTable() {
						if row.ID == id && (row.Bits[0] != lowest || row.Kind != KindHistorical || (hold > 0) != (lowest >= 64)) {
							t.Fatalf("%s: the graph is %v on bit %d, want historical on %d", where, row.Kind, row.Bits[0], lowest)
						}
					}
					// A graph that shows no value of a kind holds none: the
					// values the child it took over held lost its bit.
					for _, l := range valueLists(p, !opts.AnyNodeAttrs(), !opts.AnyEdgeAttrs()) {
						for _, av := range l.all() {
							if p.bit(av.bits(), lowest) {
								t.Fatalf("%s: a value of a kind the graph does not show keeps its bit %d", where, lowest)
							}
						}
					}
					for _, kid := range again {
						if _, err := p.View(kid); err == nil {
							t.Fatalf("%s: graph %d is still active", where, kid)
						}
					}
					if after := p.Stats(); after.ActiveGraphs-after.ReleasedGraphs != st.ActiveGraphs-st.ReleasedGraphs-len(again)+1 {
						t.Fatalf("%s: %d graphs live after, %d before", where, after.ActiveGraphs-after.ReleasedGraphs, st.ActiveGraphs-st.ReleasedGraphs)
					}
				}
			}
		}
	}

	p := New()
	kid := p.OverlayMaterialized(drawGraph(rng, 24))
	bytes, st := p.ApproxBytes(), p.Stats()
	if _, err := p.Evaluate([]GraphID{kid, kid + 1}, delta.Union{}, allAttrs); err == nil {
		t.Fatal("a graph that is not active is evaluated")
	}
	if got, after := p.ApproxBytes(), p.Stats(); got != bytes || after != st {
		t.Fatalf("a failed Evaluate leaves the pool at %d B, %+v; before %d B, %+v", got, after, bytes, st)
	}
}

// valueLists returns the value lists of the pool's node records (if nodes)
// and of its edge ids (if edges).
func valueLists(p *Pool, nodes, edges bool) []*attrList {
	var out []*attrList
	for _, pn := range p.nodes {
		if nodes && pn.vals != nil {
			out = append(out, pn.vals)
		}
	}
	for _, l := range p.edgeVals {
		if edges {
			out = append(out, l)
		}
	}
	return out
}
