package shard

// Merging partial answers relies on one invariant: the node-hash
// partitioning confines every element's entire event history to exactly
// one partition (nodes and node attributes hash by node ID; edges and
// edge attributes hash by the edge's From endpoint, which every edge
// event carries). Partial snapshots are therefore disjoint, so a merge
// is a union — counts add — and since every leg lists its elements in
// ascending ID order (WIRE.md), taking the least head of the legs until
// all are spent reproduces the exact bytes an unsharded server would emit.
//
// That merge is written once, in mergeLegs. A leg is one partition's
// answer read as ID-ordered runs: a streamed leg pulls its runs off the
// worker's stream as the merge reaches them, and a whole message is a leg
// with one run of nodes and one of edges. The merge hands the elements to
// sinks, as a worker's walkSnapshot does: the whole-message merges append
// in them, the streamed /snapshot encodes in them.

import (
	"cmp"
	"slices"

	"historygraph/internal/wire"
)

// leg is one partition's answer as the merge reads it.
type leg struct {
	nodes  []wire.Node // what is left of the node run being merged
	edges  []wire.Edge // what is left of the edge run being merged
	cached bool        // the partition answered from its hot cache
	err    error       // the stream broke off: the leg is dead
	// next reads the leg's next frame. It is nil for a whole message, whose
	// runs are all there is, and once the summary or an error is read.
	next func() (*wire.StreamFrame, error)
	// close releases a streamed leg's connection.
	close func()
}

// pull reads the leg's next frame: a run, or the end of the leg.
func (l *leg) pull() {
	f, err := l.next()
	switch {
	case err != nil:
		l.err, l.next = err, nil
	case f.Summary != nil:
		l.cached, l.next = f.Summary.Cached, nil
	default:
		l.nodes, l.edges = f.Nodes, f.Edges
	}
}

// head returns the ID of the leg's next node, or of its next edge, reading
// runs as it needs them; ok is false once the leg has no more of that kind.
func (l *leg) head(edges bool) (id int64, ok bool) {
	for {
		switch {
		case !edges && len(l.nodes) > 0:
			return l.nodes[0].ID, true
		case edges && len(l.edges) > 0:
			return l.edges[0].ID, true
		case l.next == nil || len(l.edges) > 0: // ended, or past its nodes
			return 0, false
		}
		l.pull()
	}
}

// mergeLegs is the coordinator's one merge. legs[i] is partition i's
// answer, nil where errs reports that the partition failed. It hands every
// node of the legs to the node sink and then every edge to the edge sink,
// each in ascending ID order, and reads each leg to its end; a sink's
// error stops it. A leg that dies is passed over from then on: what it
// delivered stays merged, and it is collected into the Partial list at the
// end. Partial lists the missing partitions in partition order, and Cached
// holds only when every partition answered from its hot cache and none is
// missing — the cluster-wide analogue of the unsharded flag.
func mergeLegs(legs []*leg, errs []wire.PartitionError, node func(wire.Node) error, edge func(wire.Edge) error) (partial []wire.PartitionError, cached bool, err error) {
	for _, edges := range []bool{false, true} {
		for {
			var best *leg
			var least int64
			for _, l := range legs {
				if l == nil {
					continue
				}
				if id, ok := l.head(edges); ok && (best == nil || id < least) {
					best, least = l, id
				}
			}
			if best == nil {
				break
			}
			if edges {
				err = edge(best.edges[0])
				best.edges = best.edges[1:]
			} else {
				err = node(best.nodes[0])
				best.nodes = best.nodes[1:]
			}
			if err != nil {
				return nil, false, err
			}
		}
	}
	partial, cached = errs, true
	for i, l := range legs {
		if l == nil {
			continue
		}
		for l.next != nil {
			l.pull()
		}
		if l.err != nil {
			partial = append(partial, partitionError(i, l.err))
		}
		cached = cached && l.cached
	}
	slices.SortFunc(partial, func(a, b wire.PartitionError) int { return cmp.Compare(a.Partition, b.Partition) })
	return partial, cached && len(partial) == 0, nil
}

// appendTo is a merge sink that appends to *s.
func appendTo[T any](s *[]T) func(T) error {
	return func(v T) error {
		*s = append(*s, v)
		return nil
	}
}

// mergeSnapshots unions partial snapshots into one response. Failed
// partitions (nil entries) are skipped and reported via errs.
func mergeSnapshots(at int64, parts []*wire.Snapshot, errs []wire.PartitionError) wire.Snapshot {
	out := wire.Snapshot{At: at}
	legs := make([]*leg, len(parts))
	nodes, edges := 0, 0
	for i, p := range parts {
		if p != nil {
			out.NumNodes += p.NumNodes
			out.NumEdges += p.NumEdges
			nodes, edges = nodes+len(p.Nodes), edges+len(p.Edges)
			legs[i] = &leg{nodes: p.Nodes, edges: p.Edges, cached: p.Cached}
		}
	}
	// Nil when every list is empty, as appending them would leave it.
	out.Nodes, out.Edges = slices.Grow(out.Nodes, nodes), slices.Grow(out.Edges, edges)
	out.Partial, out.Cached, _ = mergeLegs(legs, errs, appendTo(&out.Nodes), appendTo(&out.Edges))
	return out
}

// mergeNeighbors unions per-partition adjacency: degrees add (each
// incident edge lives on exactly one partition) and neighbor sets union.
// The merged neighbor list is sorted — partition order is meaningless.
func mergeNeighbors(at, node int64, parts []*wire.Neighbors, errs []wire.PartitionError) wire.Neighbors {
	out := wire.Neighbors{At: at, Node: node, Neighbors: []int64{}, Partial: errs}
	cached := len(errs) == 0
	for _, p := range parts {
		if p == nil {
			continue
		}
		out.Degree += p.Degree
		cached = cached && p.Cached
		out.Neighbors = append(out.Neighbors, p.Neighbors...)
	}
	out.Cached = cached
	// A neighbor can repeat across partitions: two parallel edges between
	// the same endpoints may live on different partitions when their From
	// endpoints differ.
	slices.Sort(out.Neighbors)
	out.Neighbors = slices.Compact(out.Neighbors)
	return out
}

// mergeIntervals unions interval answers: added elements are disjoint
// across partitions, and the transient event streams interleave by
// timestamp (ties keep partition order — the global recorded order
// within one timestamp is not reconstructible from the shards).
func mergeIntervals(parts []*wire.Interval, errs []wire.PartitionError) wire.Interval {
	var out wire.Interval
	legs := make([]*leg, len(parts))
	first := true
	for i, p := range parts {
		if p == nil {
			continue
		}
		if first {
			out.Start, out.End = p.Start, p.End
			first = false
		}
		out.NumNodes += p.NumNodes
		out.NumEdges += p.NumEdges
		legs[i] = &leg{nodes: p.Nodes, edges: p.Edges}
		out.Transients = append(out.Transients, p.Transients...)
	}
	out.Partial, _, _ = mergeLegs(legs, errs, appendTo(&out.Nodes), appendTo(&out.Edges))
	out.Transients.Sort()
	return out
}
