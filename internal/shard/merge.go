package shard

// Merging partial answers relies on one invariant: the node-hash
// partitioning confines every element's entire event history to exactly
// one partition (nodes and node attributes hash by node ID; edges and
// edge attributes hash by the edge's From endpoint, which every edge
// event carries). Partial snapshots are therefore disjoint, so a merge
// is a union — counts add, element lists concatenate — and re-sorting by
// ID reproduces the exact bytes an unsharded server would emit.

import (
	"sort"

	"historygraph/internal/wire"
)

// mergeSnapshots unions partial snapshots into one response. Failed
// partitions (nil entries) are skipped and reported via errs. The merged
// response is Cached only when every partition answered from its hot
// cache — the cluster-wide analogue of the unsharded flag.
func mergeSnapshots(at int64, parts []*wire.Snapshot, errs []wire.PartitionError) wire.Snapshot {
	out := wire.Snapshot{At: at, Partial: errs}
	cached := len(errs) == 0
	for _, p := range parts {
		if p == nil {
			continue
		}
		out.NumNodes += p.NumNodes
		out.NumEdges += p.NumEdges
		cached = cached && p.Cached
		out.Nodes = append(out.Nodes, p.Nodes...)
		out.Edges = append(out.Edges, p.Edges...)
	}
	out.Cached = cached
	sort.Slice(out.Nodes, func(i, j int) bool { return out.Nodes[i].ID < out.Nodes[j].ID })
	sort.Slice(out.Edges, func(i, j int) bool { return out.Edges[i].ID < out.Edges[j].ID })
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
		out.Nodes = append(out.Nodes, p.Nodes...)
		out.Edges = append(out.Edges, p.Edges...)
		out.Transients = append(out.Transients, p.Transients...)
	}
	sort.Slice(out.Nodes, func(i, j int) bool { return out.Nodes[i].ID < out.Nodes[j].ID })
	sort.Slice(out.Edges, func(i, j int) bool { return out.Edges[i].ID < out.Edges[j].ID })
	out.Transients.Sort()
	return out
}
