// Package csr materializes a pinned graph view into a compact CSR-style
// (compressed sparse row) snapshot: one sorted ID array, one adjacency
// array, and per-row offsets — the LLAMA-style read-optimized layout the
// analytics scan path iterates instead of walking the pool's per-edge
// hash maps and overlay bitmaps. A build pays the view walk once; the
// scan over it is sequential array traversal with no locks, no bitmap
// membership tests, and no per-node map lookups, which is what makes
// whole-graph algorithms (degree distribution, connected components,
// PageRank supersteps) cheap enough to serve online.
//
// A Graph is immutable once built. The serving layer builds one per scan
// from a view its view cache holds, and keeps none: reuse across requests
// is the view cache's.
package csr

import (
	"sort"

	"historygraph/internal/graph"
)

// Source is the view shape a CSR build walks; graphpool.View satisfies it
// directly.
type Source interface {
	NumNodes() int
	NumEdges() int
	ForEachNode(fn func(graph.NodeID) bool)
	ForEachEdge(fn func(graph.EdgeID, graph.EdgeInfo) bool)
}

// Graph is the materialized snapshot. Rows exist for every ID that is a
// node of the snapshot or an endpoint of one of its edges — a partition's
// slice legitimately stores edges whose far endpoint lives on another
// partition (or was never added), and those ghost endpoints keep a row
// (with Exists false) so distributed scans can classify every adjacency
// pair. Adjacency rows are sorted and deduplicated: row u holds the
// distinct IDs adjacent to u, exactly the set View.Neighbors(u) returns
// (directed edges traversable both ways, a self-loop contributing u to
// its own row once).
type Graph struct {
	numNodes int // nodes of the snapshot (rows with exists=true)

	ids     []graph.NodeID // all row IDs, ascending
	exists  []bool         // ids[i] is a node of the snapshot
	offsets []int          // row i is targets[offsets[i]:offsets[i+1]]
	targets []graph.NodeID // concatenated adjacency rows, each sorted+deduped
}

// Build materializes src. The source is walked exactly twice (nodes, then
// edges); the caller may release its view as soon as Build returns.
func Build(src Source) *Graph {
	g := &Graph{numNodes: src.NumNodes()}
	present := make(map[graph.NodeID]bool, g.numNodes)
	src.ForEachNode(func(n graph.NodeID) bool {
		present[n] = true
		return true
	})
	ends := make([][2]graph.NodeID, 0, src.NumEdges())
	src.ForEachEdge(func(_ graph.EdgeID, info graph.EdgeInfo) bool {
		ends = append(ends, [2]graph.NodeID{info.From, info.To})
		if _, ok := present[info.From]; !ok {
			present[info.From] = false
		}
		if _, ok := present[info.To]; !ok {
			present[info.To] = false
		}
		return true
	})
	g.ids = make([]graph.NodeID, 0, len(present))
	for id := range present {
		g.ids = append(g.ids, id)
	}
	sort.Slice(g.ids, func(i, j int) bool { return g.ids[i] < g.ids[j] })
	index := make(map[graph.NodeID]int, len(g.ids))
	g.exists = make([]bool, len(g.ids))
	for i, id := range g.ids {
		index[id] = i
		g.exists[i] = present[id]
	}
	// Count row widths, then fill; a self-loop lands one entry (u in u's
	// own row), matching View.Neighbors' Other(u) == u case.
	counts := make([]int, len(g.ids))
	for _, e := range ends {
		fi, ti := index[e[0]], index[e[1]]
		counts[fi]++
		if fi != ti {
			counts[ti]++
		}
	}
	g.offsets = make([]int, len(g.ids)+1)
	for i, c := range counts {
		g.offsets[i+1] = g.offsets[i] + c
	}
	g.targets = make([]graph.NodeID, g.offsets[len(g.ids)])
	cursor := make([]int, len(g.ids))
	copy(cursor, g.offsets[:len(g.ids)])
	for _, e := range ends {
		fi, ti := index[e[0]], index[e[1]]
		g.targets[cursor[fi]] = e[1]
		cursor[fi]++
		if fi != ti {
			g.targets[cursor[ti]] = e[0]
			cursor[ti]++
		}
	}
	// Sort and dedup each row in place (multi-edges between one pair
	// collapse to one adjacency, as View.Neighbors dedups), compacting the
	// target array left as rows shrink.
	w := 0
	for i := range g.ids {
		row := g.targets[g.offsets[i]:g.offsets[i+1]]
		sort.Slice(row, func(a, b int) bool { return row[a] < row[b] })
		start := w
		for j, v := range row {
			if j == 0 || v != row[j-1] {
				g.targets[w] = v
				w++
			}
		}
		g.offsets[i] = start
	}
	g.offsets[len(g.ids)] = w
	g.targets = g.targets[:w:w]
	return g
}

// NumNodes returns how many nodes the snapshot has (ghost endpoints are
// not nodes).
func (g *Graph) NumNodes() int { return g.numNodes }

// find returns the row index of n and whether a row exists.
func (g *Graph) find(n graph.NodeID) (int, bool) {
	i := sort.Search(len(g.ids), func(i int) bool { return g.ids[i] >= n })
	return i, i < len(g.ids) && g.ids[i] == n
}

// ForEachNode visits the snapshot's nodes in ascending ID order;
// returning false stops the walk.
func (g *Graph) ForEachNode(fn func(graph.NodeID) bool) {
	for i, id := range g.ids {
		if g.exists[i] && !fn(id) {
			return
		}
	}
}

// Neighbors returns the distinct IDs adjacent to n, sorted ascending. The
// returned slice aliases the CSR and must not be mutated.
func (g *Graph) Neighbors(n graph.NodeID) []graph.NodeID {
	i, ok := g.find(n)
	if !ok {
		return nil
	}
	return g.targets[g.offsets[i]:g.offsets[i+1]]
}

// ForEachRow visits every row — snapshot nodes and ghost endpoints alike
// — in ascending ID order with its sorted adjacency. The nbrs slice
// aliases the CSR and must not be mutated or retained. Returning false
// stops the walk. Distributed scans use this to classify every adjacency
// pair (internal vs cross-partition) in one sequential pass.
func (g *Graph) ForEachRow(fn func(id graph.NodeID, exists bool, nbrs []graph.NodeID) bool) {
	for i, id := range g.ids {
		if !fn(id, g.exists[i], g.targets[g.offsets[i]:g.offsets[i+1]]) {
			return
		}
	}
}

// NumRows returns how many rows the CSR holds (nodes plus ghost
// endpoints).
func (g *Graph) NumRows() int { return len(g.ids) }
