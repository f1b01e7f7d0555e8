// Package analytics provides the graph algorithms the paper's motivating
// examples and experiments use: PageRank (Figure 1, Dataset 3, the bitmap
// penalty measurement), degree statistics, connected components, and
// triangle counting. Algorithms run over any Graph — a GraphPool view or a
// snapshot adapter — so the same code measures both the bitmap-filtered
// and the plain-copy paths.
package analytics

import (
	"sort"

	"historygraph/internal/graph"
)

// Graph is the read interface the algorithms traverse. graphpool.View
// satisfies it directly.
type Graph interface {
	ForEachNode(fn func(graph.NodeID) bool)
	Neighbors(n graph.NodeID) []graph.NodeID
	NumNodes() int
}

// SnapshotGraph adapts a set-based snapshot to the Graph interface with a
// pre-built adjacency index (the "extracted copy" the bitmap-penalty
// experiment compares against).
type SnapshotGraph struct {
	snap *graph.Snapshot
	adj  map[graph.NodeID][]graph.NodeID
}

// FromSnapshot builds the adapter.
func FromSnapshot(s *graph.Snapshot) *SnapshotGraph {
	g := &SnapshotGraph{snap: s, adj: make(map[graph.NodeID][]graph.NodeID, len(s.Nodes))}
	for _, info := range s.Edges {
		g.adj[info.From] = append(g.adj[info.From], info.To)
		if info.To != info.From {
			g.adj[info.To] = append(g.adj[info.To], info.From)
		}
	}
	return g
}

// ForEachNode implements Graph.
func (g *SnapshotGraph) ForEachNode(fn func(graph.NodeID) bool) {
	for n := range g.snap.Nodes {
		if !fn(n) {
			return
		}
	}
}

// Neighbors implements Graph.
func (g *SnapshotGraph) Neighbors(n graph.NodeID) []graph.NodeID { return g.adj[n] }

// NumNodes implements Graph.
func (g *SnapshotGraph) NumNodes() int { return len(g.snap.Nodes) }

// FastGraph is an optional extension: allocation-free neighbor iteration.
// graphpool.FrozenView and SnapshotGraph implement it; PageRank uses it
// when available, so the only per-visit cost difference between a pool
// view and an extracted copy is the bitmap membership test — exactly the
// penalty the paper measures.
type FastGraph interface {
	Graph
	ForEachNeighbor(n graph.NodeID, fn func(graph.NodeID) bool)
	Degree(n graph.NodeID) int
}

// ForEachNeighbor implements FastGraph for SnapshotGraph.
func (g *SnapshotGraph) ForEachNeighbor(n graph.NodeID, fn func(graph.NodeID) bool) {
	for _, nb := range g.adj[n] {
		if !fn(nb) {
			return
		}
	}
}

// Degree implements FastGraph for SnapshotGraph.
func (g *SnapshotGraph) Degree(n graph.NodeID) int { return len(g.adj[n]) }

// PageRank runs damped power iteration over g.
func PageRank(g Graph, damping float64, iterations int) map[graph.NodeID]float64 {
	n := g.NumNodes()
	if n == 0 {
		return map[graph.NodeID]float64{}
	}
	if damping == 0 {
		damping = 0.85
	}
	if iterations <= 0 {
		iterations = 20
	}
	rank := make(map[graph.NodeID]float64, n)
	g.ForEachNode(func(id graph.NodeID) bool {
		rank[id] = 1 / float64(n)
		return true
	})
	fg, fast := g.(FastGraph)
	for it := 0; it < iterations; it++ {
		next := make(map[graph.NodeID]float64, n)
		base := (1 - damping) / float64(n)
		for id := range rank {
			next[id] = base
		}
		for id, r := range rank {
			if fast {
				deg := fg.Degree(id)
				if deg == 0 {
					continue
				}
				share := damping * r / float64(deg)
				fg.ForEachNeighbor(id, func(nb graph.NodeID) bool {
					if _, ok := next[nb]; ok {
						next[nb] += share
					}
					return true
				})
				continue
			}
			nbrs := g.Neighbors(id)
			if len(nbrs) == 0 {
				continue
			}
			share := damping * r / float64(len(nbrs))
			for _, nb := range nbrs {
				if _, ok := next[nb]; ok {
					next[nb] += share
				}
			}
		}
		rank = next
	}
	return rank
}

// RankOf returns 1-based ranks by descending score (ties broken by ID for
// determinism) — used for the Figure 1 "rank evolution" workload.
func RankOf(scores map[graph.NodeID]float64) map[graph.NodeID]int {
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
	ranks := make(map[graph.NodeID]int, len(ids))
	for i, id := range ids {
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
func ConnectedComponents(g Graph) (map[graph.NodeID]graph.NodeID, int) {
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
// queries; the harness diffs two snapshots' counts).
func TriangleCount(g Graph) int {
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
