package graphpool

import (
	"sort"
	"testing"

	"historygraph/internal/delta"
	"historygraph/internal/graph"
)

// frozenMatchesView checks that the frozen projection agrees with the live
// view on membership, adjacency, and counts.
func frozenMatchesView(t *testing.T, v *View) {
	t.Helper()
	f := v.Freeze()
	if f.NumNodes() != v.NumNodes() {
		t.Fatalf("NumNodes: frozen %d, view %d", f.NumNodes(), v.NumNodes())
	}
	seen := 0
	f.ForEachNode(func(n graph.NodeID) bool {
		seen++
		if !v.HasNode(n) {
			t.Fatalf("frozen node %d not in view", n)
		}
		fn := f.Neighbors(n)
		vn := v.Neighbors(n)
		sort.Slice(fn, func(i, j int) bool { return fn[i] < fn[j] })
		sort.Slice(vn, func(i, j int) bool { return vn[i] < vn[j] })
		if len(fn) != len(vn) {
			t.Fatalf("node %d: frozen neighbors %v, view %v", n, fn, vn)
		}
		for i := range fn {
			if fn[i] != vn[i] {
				t.Fatalf("node %d: frozen neighbors %v, view %v", n, fn, vn)
			}
		}
		if len(fn) != v.Degree(n) {
			t.Fatalf("node %d: frozen degree %d != %d", n, len(fn), v.Degree(n))
		}
		return true
	})
	if seen != v.NumNodes() {
		t.Fatalf("frozen visited %d nodes, view has %d", seen, v.NumNodes())
	}
}

func TestFrozenViewHistorical(t *testing.T) {
	p := New()
	p.OverlaySnapshot(buildSnapshot(30), 1) // co-resident noise
	id := p.OverlaySnapshot(buildSnapshot(20), 2)
	v, _ := p.View(id)
	frozenMatchesView(t, v)
}

func TestFrozenViewCurrentAndMaterialized(t *testing.T) {
	p := New()
	for i := 1; i <= 10; i++ {
		p.ApplyEvent(graph.Event{Type: graph.AddNode, Node: graph.NodeID(i)})
	}
	for i := 1; i < 10; i++ {
		p.ApplyEvent(graph.Event{Type: graph.AddEdge, Edge: graph.EdgeID(i), Node: graph.NodeID(i), Node2: graph.NodeID(i + 1)})
	}
	frozenMatchesView(t, p.Current())

	matID := p.OverlayMaterialized(buildSnapshot(15))
	mv, _ := p.View(matID)
	frozenMatchesView(t, mv)
}

func TestFrozenViewDependent(t *testing.T) {
	p := New()
	base := buildSnapshot(40)
	matID := p.OverlayMaterialized(base)
	target := base.Clone()
	delete(target.Nodes, 1)
	delete(target.Edges, 1)
	target.Nodes[99] = struct{}{}
	d := delta.Compute(target, base)
	histID, err := p.OverlayDependent(matID, d, 5, allAttrs)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := p.View(histID)
	frozenMatchesView(t, v)
	f := v.Freeze()
	found99 := false
	f.ForEachNode(func(n graph.NodeID) bool {
		if n == 99 {
			found99 = true
		}
		if n == 1 {
			t.Fatal("deleted node visible in frozen dependent view")
		}
		return true
	})
	if !found99 {
		t.Error("exception node missing from frozen view")
	}
}
