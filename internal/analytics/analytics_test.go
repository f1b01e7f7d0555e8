package analytics

import (
	"math"
	"testing"

	"historygraph/internal/graph"
)

func lineGraph(n int) *SnapshotGraph {
	s := graph.NewSnapshot()
	for i := 1; i <= n; i++ {
		s.Nodes[graph.NodeID(i)] = struct{}{}
	}
	for i := 1; i < n; i++ {
		s.Edges[graph.EdgeID(i)] = graph.EdgeInfo{From: graph.NodeID(i), To: graph.NodeID(i + 1)}
	}
	return FromSnapshot(s)
}

func TestSnapshotGraphAdapter(t *testing.T) {
	g := lineGraph(5)
	if g.NumNodes() != 5 {
		t.Fatal("NumNodes wrong")
	}
	if len(g.Neighbors(3)) != 2 || len(g.Neighbors(1)) != 1 {
		t.Error("Neighbors wrong")
	}
	count := 0
	g.ForEachNode(func(graph.NodeID) bool { count++; return count < 3 })
	if count != 3 {
		t.Error("ForEachNode early exit failed")
	}
}

func TestPageRankProperties(t *testing.T) {
	g := lineGraph(10)
	ranks := PageRank(g, 0.85, 30)
	sum := 0.0
	for _, r := range ranks {
		sum += r
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("mass = %g", sum)
	}
	// Symmetry of the line graph: rank(i) == rank(n+1-i).
	for i := 1; i <= 5; i++ {
		a, b := ranks[graph.NodeID(i)], ranks[graph.NodeID(11-i)]
		if math.Abs(a-b) > 1e-9 {
			t.Errorf("asymmetry at %d: %g vs %g", i, a, b)
		}
	}
	// Middle nodes outrank endpoints.
	if ranks[5] <= ranks[1] {
		t.Error("middle node should outrank endpoint")
	}
	if out := PageRank(FromSnapshot(graph.NewSnapshot()), 0.85, 5); len(out) != 0 {
		t.Error("pagerank of empty graph")
	}
}

func TestRankOfAndTopK(t *testing.T) {
	scores := map[graph.NodeID]float64{1: 0.5, 2: 0.9, 3: 0.1, 4: 0.9}
	ranks := RankOf(scores)
	if ranks[2] != 1 || ranks[4] != 2 || ranks[1] != 3 || ranks[3] != 4 {
		t.Errorf("ranks = %v (ties must break by ID)", ranks)
	}
	top := TopK(scores, 2)
	if len(top) != 2 || top[0] != 2 || top[1] != 4 {
		t.Errorf("top2 = %v", top)
	}
	if len(TopK(scores, 10)) != 4 {
		t.Error("TopK should clamp")
	}
}

func TestConnectedComponents(t *testing.T) {
	s := graph.NewSnapshot()
	for i := 1; i <= 6; i++ {
		s.Nodes[graph.NodeID(i)] = struct{}{}
	}
	s.Edges[1] = graph.EdgeInfo{From: 1, To: 2}
	s.Edges[2] = graph.EdgeInfo{From: 2, To: 3}
	s.Edges[3] = graph.EdgeInfo{From: 4, To: 5}
	labels, n := ConnectedComponents(FromSnapshot(s))
	if n != 3 {
		t.Fatalf("components = %d, want 3", n)
	}
	if labels[1] != labels[3] || labels[4] != labels[5] || labels[1] == labels[6] {
		t.Errorf("labels = %v", labels)
	}
}

func TestTriangleCount(t *testing.T) {
	s := graph.NewSnapshot()
	for i := 1; i <= 5; i++ {
		s.Nodes[graph.NodeID(i)] = struct{}{}
	}
	// Triangle 1-2-3 plus a pendant edge and a second triangle 3-4-5.
	edges := [][2]graph.NodeID{{1, 2}, {2, 3}, {1, 3}, {3, 4}, {4, 5}, {3, 5}}
	for i, e := range edges {
		s.Edges[graph.EdgeID(i+1)] = graph.EdgeInfo{From: e[0], To: e[1]}
	}
	if got := TriangleCount(FromSnapshot(s)); got != 2 {
		t.Errorf("triangles = %d, want 2", got)
	}
	if TriangleCount(lineGraph(10)) != 0 {
		t.Error("line graph has no triangles")
	}
	// A complete graph K5 has C(5,3)=10 triangles.
	k5 := graph.NewSnapshot()
	for i := 1; i <= 5; i++ {
		k5.Nodes[graph.NodeID(i)] = struct{}{}
	}
	id := graph.EdgeID(1)
	for i := 1; i <= 5; i++ {
		for j := i + 1; j <= 5; j++ {
			k5.Edges[id] = graph.EdgeInfo{From: graph.NodeID(i), To: graph.NodeID(j)}
			id++
		}
	}
	if got := TriangleCount(FromSnapshot(k5)); got != 10 {
		t.Errorf("K5 triangles = %d, want 10", got)
	}
}
