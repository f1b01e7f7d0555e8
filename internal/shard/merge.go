package shard

// Merging partial answers relies on one invariant: the node-hash
// partitioning confines every element's entire event history to exactly
// one partition (nodes and node attributes hash by node ID; edges and
// edge attributes hash by the edge's From endpoint, which every edge
// event carries). Partial snapshots are therefore disjoint, so a merge
// is a union — counts add — and since every leg lists its elements in
// ascending ID order (WIRE.md), merging the lists in one pass reproduces the
// exact bytes an unsharded server would emit.

import (
	"slices"
	"sort"

	"historygraph/internal/wire"
)

// mergeByID merges lists, each in ascending order of id and disjoint, into
// one in ascending order, in one pass over the elements (nil when they are
// all empty, as appending them would leave it).
func mergeByID[T any](lists [][]T, id func(*T) int64) (out []T) {
	for _, l := range lists {
		out = slices.Grow(out, len(l))
	}
	for {
		best := -1
		for i, l := range lists {
			if len(l) > 0 && (best < 0 || id(&l[0]) < id(&lists[best][0])) {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, lists[best][0])
		lists[best] = lists[best][1:]
	}
}

func nodeID(n *wire.Node) int64 { return n.ID }
func edgeID(e *wire.Edge) int64 { return e.ID }

// mergeSnapshots unions partial snapshots into one response. Failed
// partitions (nil entries) are skipped and reported via errs. The merged
// response is Cached only when every partition answered from its hot
// cache — the cluster-wide analogue of the unsharded flag.
func mergeSnapshots(at int64, parts []*wire.Snapshot, errs []wire.PartitionError) wire.Snapshot {
	out := wire.Snapshot{At: at, Partial: errs}
	cached := len(errs) == 0
	var nodes [][]wire.Node
	var edges [][]wire.Edge
	for _, p := range parts {
		if p == nil {
			continue
		}
		out.NumNodes += p.NumNodes
		out.NumEdges += p.NumEdges
		cached = cached && p.Cached
		nodes, edges = append(nodes, p.Nodes), append(edges, p.Edges)
	}
	out.Cached = cached
	out.Nodes, out.Edges = mergeByID(nodes, nodeID), mergeByID(edges, edgeID)
	return out
}

// mergeNeighbors unions per-partition adjacency: degrees add (each
// incident edge lives on exactly one partition) and neighbor sets union.
// The merged neighbor list is sorted — partition order is meaningless.
func mergeNeighbors(at, node int64, parts []*wire.Neighbors, errs []wire.PartitionError) wire.Neighbors {
	out := wire.Neighbors{At: at, Node: node, Neighbors: []int64{}, Partial: errs}
	cached := len(errs) == 0
	seen := make(map[int64]struct{})
	for _, p := range parts {
		if p == nil {
			continue
		}
		out.Degree += p.Degree
		cached = cached && p.Cached
		for _, n := range p.Neighbors {
			// A neighbor can repeat across partitions: two parallel edges
			// between the same endpoints may live on different partitions
			// when their From endpoints differ.
			if _, dup := seen[n]; !dup {
				seen[n] = struct{}{}
				out.Neighbors = append(out.Neighbors, n)
			}
		}
	}
	out.Cached = cached
	sort.Slice(out.Neighbors, func(i, j int) bool { return out.Neighbors[i] < out.Neighbors[j] })
	return out
}

// mergeIntervals unions interval answers: added elements are disjoint
// across partitions, and the transient event streams interleave by
// timestamp (ties keep partition order — the global recorded order
// within one timestamp is not reconstructible from the shards).
func mergeIntervals(parts []*wire.Interval, errs []wire.PartitionError) wire.Interval {
	out := wire.Interval{Partial: errs}
	first := true
	var nodes [][]wire.Node
	var edges [][]wire.Edge
	for _, p := range parts {
		if p == nil {
			continue
		}
		if first {
			out.Start, out.End = p.Start, p.End
			first = false
		}
		out.NumNodes += p.NumNodes
		out.NumEdges += p.NumEdges
		nodes, edges = append(nodes, p.Nodes), append(edges, p.Edges)
		out.Transients = append(out.Transients, p.Transients...)
	}
	out.Nodes, out.Edges = mergeByID(nodes, nodeID), mergeByID(edges, edgeID)
	out.Transients.Sort()
	return out
}
