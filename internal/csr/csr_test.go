package csr

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"historygraph/internal/graph"
)

// fakeSource is a Source over explicit node and edge lists, standing in
// for a pinned view: nodes may be referenced by edges without existing
// (ghost endpoints), and multi-edges between one pair are legal.
type fakeSource struct {
	nodes []graph.NodeID
	edges []graph.EdgeInfo
}

func (f *fakeSource) NumNodes() int { return len(f.nodes) }
func (f *fakeSource) NumEdges() int { return len(f.edges) }
func (f *fakeSource) ForEachNode(fn func(graph.NodeID) bool) {
	for _, n := range f.nodes {
		if !fn(n) {
			return
		}
	}
}
func (f *fakeSource) ForEachEdge(fn func(graph.EdgeID, graph.EdgeInfo) bool) {
	for i, e := range f.edges {
		if !fn(graph.EdgeID(i), e) {
			return
		}
	}
}

// randomSource builds a deterministic random graph with ghosts, self-loops
// and multi-edges — every corner the CSR must normalize away.
func randomSource(seed int64, nodes, edges int) *fakeSource {
	rng := rand.New(rand.NewSource(seed))
	src := &fakeSource{}
	for n := 0; n < nodes; n++ {
		if rng.Intn(4) > 0 { // every fourth ID stays a ghost
			src.nodes = append(src.nodes, graph.NodeID(n))
		}
	}
	for i := 0; i < edges; i++ {
		from := graph.NodeID(rng.Intn(nodes))
		to := graph.NodeID(rng.Intn(nodes))
		src.edges = append(src.edges, graph.EdgeInfo{From: from, To: to, Directed: rng.Intn(2) == 0})
		if rng.Intn(8) == 0 { // occasional exact duplicate (multi-edge)
			src.edges = append(src.edges, graph.EdgeInfo{From: from, To: to})
		}
	}
	return src
}

// refAdjacency computes the expected row set by brute force: distinct
// undirected adjacency per endpoint, a self-loop contributing one entry.
func refAdjacency(src *fakeSource) (rows map[graph.NodeID]map[graph.NodeID]bool, exists map[graph.NodeID]bool) {
	rows = map[graph.NodeID]map[graph.NodeID]bool{}
	exists = map[graph.NodeID]bool{}
	touch := func(n graph.NodeID) {
		if rows[n] == nil {
			rows[n] = map[graph.NodeID]bool{}
		}
	}
	for _, n := range src.nodes {
		touch(n)
		exists[n] = true
	}
	for _, e := range src.edges {
		touch(e.From)
		touch(e.To)
		rows[e.From][e.To] = true
		rows[e.To][e.From] = true
	}
	return rows, exists
}

func TestBuildMatchesBruteForce(t *testing.T) {
	src := randomSource(1, 80, 200)
	g := Build(src)
	rows, exists := refAdjacency(src)

	if g.NumNodes() != len(src.nodes) {
		t.Fatalf("NumNodes = %d, want %d", g.NumNodes(), len(src.nodes))
	}
	if g.NumRows() != len(rows) {
		t.Fatalf("NumRows = %d, want %d", g.NumRows(), len(rows))
	}

	seen := map[graph.NodeID]bool{}
	prev := graph.NodeID(-1 << 62)
	g.ForEachRow(func(id graph.NodeID, ex bool, nbrs []graph.NodeID) bool {
		if id <= prev {
			t.Fatalf("rows out of order: %d after %d", id, prev)
		}
		prev = id
		seen[id] = true
		if ex != exists[id] {
			t.Fatalf("row %d exists = %t, want %t", id, ex, exists[id])
		}
		want := make([]graph.NodeID, 0, len(rows[id]))
		for nb := range rows[id] {
			want = append(want, nb)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(want) == 0 {
			want = nil
		}
		var got []graph.NodeID
		if len(nbrs) > 0 {
			got = append(got, nbrs...)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("row %d adjacency = %v, want %v", id, got, want)
		}
		if !reflect.DeepEqual(append([]graph.NodeID(nil), g.Neighbors(id)...), append([]graph.NodeID(nil), nbrs...)) {
			t.Fatalf("Neighbors(%d) disagrees with its row", id)
		}
		return true
	})
	if len(seen) != len(rows) {
		t.Fatalf("walked %d rows, want %d", len(seen), len(rows))
	}

	if g.Neighbors(1<<40) != nil {
		t.Fatal("absent ID must have no row")
	}

	nodeCount := 0
	g.ForEachNode(func(n graph.NodeID) bool {
		if !exists[n] {
			t.Fatalf("ForEachNode visited ghost %d", n)
		}
		nodeCount++
		return true
	})
	if nodeCount != g.NumNodes() {
		t.Fatalf("ForEachNode visited %d, want %d", nodeCount, g.NumNodes())
	}
}

func TestBuildEmpty(t *testing.T) {
	g := Build(&fakeSource{})
	if g.NumRows() != 0 || g.NumNodes() != 0 {
		t.Fatalf("empty build has rows: %d/%d", g.NumRows(), g.NumNodes())
	}
	g.ForEachRow(func(graph.NodeID, bool, []graph.NodeID) bool {
		t.Fatal("empty CSR visited a row")
		return false
	})
}

func TestBuildSelfLoopAndEarlyStop(t *testing.T) {
	src := &fakeSource{
		nodes: []graph.NodeID{1, 2, 3},
		edges: []graph.EdgeInfo{{From: 2, To: 2}, {From: 1, To: 3}},
	}
	g := Build(src)
	if got := g.Neighbors(2); len(got) != 1 || got[0] != 2 {
		t.Fatalf("self-loop row = %v, want [2]", got)
	}
	visits := 0
	g.ForEachRow(func(graph.NodeID, bool, []graph.NodeID) bool {
		visits++
		return false
	})
	if visits != 1 {
		t.Fatalf("early stop visited %d rows", visits)
	}
	visits = 0
	g.ForEachNode(func(graph.NodeID) bool {
		visits++
		return false
	})
	if visits != 1 {
		t.Fatalf("early node stop visited %d", visits)
	}
}
