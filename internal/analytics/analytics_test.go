package analytics

import (
	"sort"
	"testing"

	"historygraph/internal/graph"
	"historygraph/internal/pregel"
)

// The whole-graph references the tests hold the scans to. They run on one
// process over any pregel.Graph; the server answers through the partition
// scans in dist.go, never through these.

// RankOf returns 1-based ranks by descending score (ties broken by ID for
// determinism).
func RankOf(scores map[graph.NodeID]float64) map[graph.NodeID]int {
	ranks := make(map[graph.NodeID]int, len(scores))
	for i, id := range TopK(scores, len(scores)) {
		ranks[id] = i + 1
	}
	return ranks
}

// TopK returns the k highest-scored nodes in rank order.
func TopK(scores map[graph.NodeID]float64, k int) []graph.NodeID {
	ids := make([]graph.NodeID, 0, len(scores))
	for id := range scores {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if scores[ids[i]] != scores[ids[j]] {
			return scores[ids[i]] > scores[ids[j]]
		}
		return ids[i] < ids[j]
	})
	if len(ids) > k {
		ids = ids[:k]
	}
	return ids
}

// ConnectedComponents labels every node with a component representative
// and returns the number of components (directed edges treated as
// undirected).
func ConnectedComponents(g pregel.Graph) (map[graph.NodeID]graph.NodeID, int) {
	parent := make(map[graph.NodeID]graph.NodeID, g.NumNodes())
	var find func(graph.NodeID) graph.NodeID
	find = func(x graph.NodeID) graph.NodeID {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	g.ForEachNode(func(n graph.NodeID) bool {
		parent[n] = n
		return true
	})
	g.ForEachNode(func(n graph.NodeID) bool {
		for _, nb := range g.Neighbors(n) {
			if _, ok := parent[nb]; !ok {
				continue
			}
			ra, rb := find(n), find(nb)
			if ra != rb {
				parent[ra] = rb
			}
		}
		return true
	})
	labels := make(map[graph.NodeID]graph.NodeID, len(parent))
	roots := make(map[graph.NodeID]struct{})
	for n := range parent {
		r := find(n)
		labels[n] = r
		roots[r] = struct{}{}
	}
	return labels, len(roots)
}

// TriangleCount counts distinct triangles ("how many new triangles have
// been formed over the last year" is one of the paper's motivating
// queries).
func TriangleCount(g pregel.Graph) int {
	// Neighbor sets with the standard degree-ordering optimization.
	nbrs := make(map[graph.NodeID]map[graph.NodeID]struct{}, g.NumNodes())
	g.ForEachNode(func(n graph.NodeID) bool {
		set := make(map[graph.NodeID]struct{})
		for _, nb := range g.Neighbors(n) {
			if nb != n {
				set[nb] = struct{}{}
			}
		}
		nbrs[n] = set
		return true
	})
	less := func(a, b graph.NodeID) bool {
		da, db := len(nbrs[a]), len(nbrs[b])
		if da != db {
			return da < db
		}
		return a < b
	}
	count := 0
	for u, set := range nbrs {
		for v := range set {
			if !less(u, v) {
				continue
			}
			for w := range nbrs[v] {
				if !less(v, w) {
					continue
				}
				if _, ok := set[w]; ok {
					count++
				}
			}
		}
	}
	return count
}

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

// TestPageRankProperties runs the kernel over the snapshot adapter: on a
// line graph the ranks are symmetric bit for bit (order-free sums), the
// middle outranks the ends, and an empty graph ranks nothing.
func TestPageRankProperties(t *testing.T) {
	top := pregel.PageRank(lineGraph(10), 0.85, 30, -1)
	ranks := map[graph.NodeID]float64{}
	sum := 0.0
	for _, e := range top {
		ranks[graph.NodeID(e.Node)] = e.Score
		sum += e.Score
	}
	if len(ranks) != 10 || sum > 1+1e-12 || sum < 0.99 {
		t.Errorf("%d ranks, mass = %g", len(ranks), sum)
	}
	// Symmetry of the line graph: rank(i) == rank(n+1-i).
	for i := 1; i <= 5; i++ {
		if a, b := ranks[graph.NodeID(i)], ranks[graph.NodeID(11-i)]; a != b {
			t.Errorf("asymmetry at %d: %g vs %g", i, a, b)
		}
	}
	// Middle nodes outrank endpoints.
	if ranks[5] <= ranks[1] {
		t.Error("middle node should outrank endpoint")
	}
	if out := pregel.PageRank(FromSnapshot(graph.NewSnapshot()), 0.85, 5, -1); len(out) != 0 {
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
