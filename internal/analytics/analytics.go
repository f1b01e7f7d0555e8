// Package analytics provides the whole-graph scans the /analytics plane
// serves — degree distribution, connected components, evolution between
// two timepoints — as per-partition parts and the merges that fold them,
// plus the boundary-pair routing a distributed PageRank job starts from.
// PageRank itself is internal/pregel's superstep kernel.
package analytics

import "historygraph/internal/graph"

// SnapshotGraph adapts a set-based snapshot to the read interface graph
// algorithms traverse (pregel.Graph) with a pre-built adjacency index —
// the "extracted copy" the bitmap-penalty experiment compares a pool view
// against.
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

// ForEachNode visits the snapshot's nodes.
func (g *SnapshotGraph) ForEachNode(fn func(graph.NodeID) bool) {
	for n := range g.snap.Nodes {
		if !fn(n) {
			return
		}
	}
}

// Neighbors returns n's adjacency, one entry per incident edge.
func (g *SnapshotGraph) Neighbors(n graph.NodeID) []graph.NodeID { return g.adj[n] }

// NumNodes returns the snapshot's node count.
func (g *SnapshotGraph) NumNodes() int { return len(g.snap.Nodes) }
