package analytics

// Distributed counterparts of the whole-graph scans: each partition
// reduces its CSR rows to a compact mergeable part, and the coordinator
// folds the parts into the exact answer the single-process algorithm
// would give on the unsharded graph.
//
// The partitioning invariant that makes the merges exact: every event is
// hash-routed by its primary node (edges by From), so a node's existence
// is known only to its owner, every edge lives at its From endpoint's
// partition, and for each locally stored edge both endpoint rows exist
// locally (the far endpoint as a ghost row). An adjacency pair {u,v} is
// therefore *internal* when both endpoints hash to the scanning partition
// — visible only there, counted locally — and *boundary* otherwise,
// shipped to the coordinator which deduplicates globally (both owners may
// store edges between the same pair) and applies each unique pair once.
//
// An unsharded server runs the same scan with parts=1 (no boundary pairs)
// and merges the single part, so sharded and single-process answers come
// off one code path byte for byte.

import (
	"sort"

	"historygraph/internal/graph"
	"historygraph/internal/wire"
)

// RowGraph is the CSR shape the partition scans walk: every row — owned
// nodes and ghost endpoints alike — in ascending ID order with its
// sorted, deduplicated adjacency. csr.Graph implements it.
type RowGraph interface {
	NumNodes() int
	ForEachRow(fn func(id graph.NodeID, exists bool, nbrs []graph.NodeID) bool)
}

// appendPair flattens a boundary pair in canonical (min,max) order.
func appendPair(pairs []int64, a, b graph.NodeID) []int64 {
	if b < a {
		a, b = b, a
	}
	return append(pairs, int64(a), int64(b))
}

// DegreePartOf scans one partition's CSR for the degree distribution:
// each owned existing node with its internal distinct-neighbor count,
// plus the boundary pairs. Degree counts every distinct adjacent ID
// whether or not that endpoint exists as a node — matching Degrees on the
// unsharded graph — so boundary pairs contribute to a node's degree
// without consulting the remote endpoint's existence.
func DegreePartOf(g RowGraph, at graph.Time, parts, self int) *wire.DegreePart {
	part := &wire.DegreePart{At: int64(at)}
	g.ForEachRow(func(id graph.NodeID, exists bool, nbrs []graph.NodeID) bool {
		owned := parts <= 1 || graph.Partition(id, parts) == self
		if owned && exists {
			internal := 0
			for _, nb := range nbrs {
				if parts <= 1 || graph.Partition(nb, parts) == self {
					internal++
				}
			}
			part.Nodes = append(part.Nodes, int64(id))
			part.Counts = append(part.Counts, int64(internal))
			for _, nb := range nbrs {
				if parts > 1 && graph.Partition(nb, parts) != self && id < nb {
					part.Pairs = appendPair(part.Pairs, id, nb)
				}
			}
			return true
		}
		// Ghost or nonexistent row: its boundary pairs still matter (the
		// remote endpoint may exist), emitted from whichever side sorts
		// first so each locally visible pair goes out once.
		for _, nb := range nbrs {
			if parts > 1 && graph.Partition(nb, parts) != graph.Partition(id, parts) && id < nb {
				part.Pairs = appendPair(part.Pairs, id, nb)
			}
		}
		return true
	})
	sortPairs(part.Pairs)
	return part
}

// MergeDegree folds partition parts into the degree distribution.
func MergeDegree(at int64, parts []*wire.DegreePart) *wire.DegreeDist {
	degree := map[int64]int64{}
	cached := len(parts) > 0
	var pairs []int64
	for _, p := range parts {
		for i, n := range p.Nodes {
			degree[n] += p.Counts[i]
		}
		pairs = append(pairs, p.Pairs...)
		cached = cached && p.Cached
	}
	for _, pr := range dedupPairs(pairs) {
		if _, ok := degree[pr[0]]; ok {
			degree[pr[0]]++
		}
		if _, ok := degree[pr[1]]; ok && pr[1] != pr[0] {
			degree[pr[1]]++
		}
	}
	out := &wire.DegreeDist{At: at, NumNodes: int64(len(degree)), Cached: cached}
	hist := map[int64]int64{}
	var total int64
	for _, d := range degree {
		hist[d]++
		total += d
		if d > out.MaxDegree {
			out.MaxDegree = d
		}
	}
	if len(degree) > 0 {
		out.AvgDegree = float64(total) / float64(len(degree))
	}
	out.Degrees, out.Counts = sortedHist(hist)
	return out
}

// ComponentsPartOf scans one partition's CSR for connected components:
// a local union-find label per owned existing node (connectivity through
// internal pairs whose endpoints both exist) plus the boundary pairs.
// Components span existing nodes only — the single-process algorithm
// skips neighbors absent from the snapshot — so internal pairs union only
// when both endpoints exist; boundary pairs defer the existence check to
// the coordinator, which owns the merged node set.
func ComponentsPartOf(g RowGraph, at graph.Time, parts, self int) *wire.ComponentsPart {
	part := &wire.ComponentsPart{At: int64(at)}
	exists := make(map[graph.NodeID]bool, g.NumNodes())
	g.ForEachRow(func(id graph.NodeID, ex bool, _ []graph.NodeID) bool {
		exists[id] = ex
		return true
	})
	parent := make(map[graph.NodeID]graph.NodeID, g.NumNodes())
	var find func(graph.NodeID) graph.NodeID
	find = func(x graph.NodeID) graph.NodeID {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	g.ForEachRow(func(id graph.NodeID, ex bool, nbrs []graph.NodeID) bool {
		sameOwner := func(n graph.NodeID) bool {
			return parts <= 1 || graph.Partition(n, parts) == self
		}
		if sameOwner(id) && ex {
			if _, ok := parent[id]; !ok {
				parent[id] = id
			}
			for _, nb := range nbrs {
				if sameOwner(nb) && exists[nb] {
					if _, ok := parent[nb]; !ok {
						parent[nb] = nb
					}
					if ra, rb := find(id), find(nb); ra != rb {
						parent[ra] = rb
					}
				}
			}
		}
		for _, nb := range nbrs {
			if parts > 1 && graph.Partition(nb, parts) != graph.Partition(id, parts) && id < nb {
				part.Pairs = appendPair(part.Pairs, id, nb)
			}
		}
		return true
	})
	for id := range parent {
		part.Nodes = append(part.Nodes, int64(id))
	}
	sort.Slice(part.Nodes, func(i, j int) bool { return part.Nodes[i] < part.Nodes[j] })
	part.Labels = make([]int64, len(part.Nodes))
	for i, id := range part.Nodes {
		part.Labels[i] = int64(find(graph.NodeID(id)))
	}
	sortPairs(part.Pairs)
	return part
}

// MergeComponents folds partition parts into the component-size
// distribution. Labels are union-find-order dependent, so the merged
// response carries only order-independent aggregates — the outputs a
// sharded and an unsharded run agree on exactly.
func MergeComponents(at int64, parts []*wire.ComponentsPart) *wire.Components {
	parent := map[int64]int64{}
	var find func(int64) int64
	find = func(x int64) int64 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int64) {
		if _, ok := parent[a]; !ok {
			parent[a] = a
		}
		if _, ok := parent[b]; !ok {
			parent[b] = b
		}
		if ra, rb := find(a), find(b); ra != rb {
			parent[ra] = rb
		}
	}
	nodes := map[int64]struct{}{}
	cached := len(parts) > 0
	var pairs []int64
	for _, p := range parts {
		for i, n := range p.Nodes {
			nodes[n] = struct{}{}
			union(n, p.Labels[i])
		}
		pairs = append(pairs, p.Pairs...)
		cached = cached && p.Cached
	}
	for _, pr := range dedupPairs(pairs) {
		_, okA := nodes[pr[0]]
		_, okB := nodes[pr[1]]
		if okA && okB {
			union(pr[0], pr[1])
		}
	}
	sizes := map[int64]int64{}
	for n := range nodes {
		sizes[find(n)]++
	}
	out := &wire.Components{
		At: at, NumNodes: int64(len(nodes)),
		NumComponents: int64(len(sizes)), Cached: cached,
	}
	hist := map[int64]int64{}
	for _, s := range sizes {
		hist[s]++
		if s > out.Largest {
			out.Largest = s
		}
	}
	out.Sizes, out.Counts = sortedHist(hist)
	return out
}

// DiffSource is the pair-of-views shape the evolution scan diffs;
// graphpool.View satisfies it directly. Evolution works off views, not
// CSRs, because edge identity (EdgeID) is what distinguishes a replaced
// edge from a persistent one and the CSR drops it.
type DiffSource interface {
	NumNodes() int
	NumEdges() int
	ForEachNode(fn func(graph.NodeID) bool)
	ForEachEdge(fn func(graph.EdgeID, graph.EdgeInfo) bool)
	HasNode(graph.NodeID) bool
	HasEdge(graph.EdgeID) bool
}

// EvolutionPartOf diffs one partition's two pinned views. Every element's
// full history lives on one partition, so the counters sum exactly. Each
// view's ids are collected by one walk and tested against the other view
// after it: a view's walk holds its pool's read lock, and a test made inside
// it would take that lock again, behind any writer queued meanwhile, which
// waits for the walk.
func EvolutionPartOf(g1, g2 DiffSource, t1, t2 graph.Time) *wire.EvolutionPart {
	return &wire.EvolutionPart{
		T1: int64(t1), T2: int64(t2),
		NodesT1: int64(g1.NumNodes()), NodesT2: int64(g2.NumNodes()),
		EdgesT1: int64(g1.NumEdges()), EdgesT2: int64(g2.NumEdges()),
		NodesAdded:   missing(nodeIDs(g2), g1.HasNode),
		NodesRemoved: missing(nodeIDs(g1), g2.HasNode),
		EdgesAdded:   missing(edgeIDs(g2), g1.HasEdge),
		EdgesRemoved: missing(edgeIDs(g1), g2.HasEdge),
	}
}

func nodeIDs(g DiffSource) (ids []graph.NodeID) {
	g.ForEachNode(func(n graph.NodeID) bool { ids = append(ids, n); return true })
	return ids
}

func edgeIDs(g DiffSource) (ids []graph.EdgeID) {
	g.ForEachEdge(func(e graph.EdgeID, _ graph.EdgeInfo) bool { ids = append(ids, e); return true })
	return ids
}

// missing counts the ids has says no to.
func missing[ID any](ids []ID, has func(ID) bool) (n int64) {
	for _, id := range ids {
		if !has(id) {
			n++
		}
	}
	return n
}

// MergeEvolution sums partition evolution counters.
func MergeEvolution(parts []*wire.EvolutionPart) *wire.Evolution {
	out := &wire.Evolution{Cached: len(parts) > 0}
	for _, p := range parts {
		out.T1, out.T2 = p.T1, p.T2
		out.NodesT1 += p.NodesT1
		out.NodesT2 += p.NodesT2
		out.EdgesT1 += p.EdgesT1
		out.EdgesT2 += p.EdgesT2
		out.NodesAdded += p.NodesAdded
		out.NodesRemoved += p.NodesRemoved
		out.EdgesAdded += p.EdgesAdded
		out.EdgesRemoved += p.EdgesRemoved
		out.Cached = out.Cached && p.Cached
	}
	return out
}

// BoundaryPairs collects one partition's cross-partition adjacency pairs
// — the same pair stream the degree and component scans emit, standalone
// for PageRank job setup. Pairs are emitted regardless of endpoint
// existence (degree semantics count nonexistent neighbors; owners drop
// shares addressed to nonexistent nodes), flattened, sorted, and locally
// unique.
func BoundaryPairs(g RowGraph, parts, self int) []int64 {
	var pairs []int64
	if parts <= 1 {
		return nil
	}
	g.ForEachRow(func(id graph.NodeID, _ bool, nbrs []graph.NodeID) bool {
		for _, nb := range nbrs {
			if graph.Partition(nb, parts) != graph.Partition(id, parts) && id < nb {
				pairs = appendPair(pairs, id, nb)
			}
		}
		return true
	})
	sortPairs(pairs)
	return pairs
}

// RoutePairs assigns each deduplicated boundary pair to both endpoint
// owners' outboxes — every partition learns the ghost adjacency other
// partitions stored for its vertices. Returned lists are flattened,
// sorted, and deduplicated.
func RoutePairs(pairs []int64, parts int) [][]int64 {
	out := make([][]int64, parts)
	for _, pr := range dedupPairs(pairs) {
		pa := graph.Partition(graph.NodeID(pr[0]), parts)
		pb := graph.Partition(graph.NodeID(pr[1]), parts)
		out[pa] = append(out[pa], pr[0], pr[1])
		if pb != pa {
			out[pb] = append(out[pb], pr[0], pr[1])
		}
	}
	return out
}

// MergeRanks folds per-partition top-K lists into the global top-K. Each
// node is owned by exactly one partition, so per-partition truncation to
// k entries loses nothing.
func MergeRanks(lists [][]wire.RankEntry, k int) []wire.RankEntry {
	var all []wire.RankEntry
	for _, l := range lists {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].Node < all[j].Node
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// dedupPairs sorts a flattened pair list and returns the unique pairs.
func dedupPairs(pairs []int64) [][2]int64 {
	out := make([][2]int64, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, [2]int64{pairs[i], pairs[i+1]})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	w := 0
	for i, pr := range out {
		if i == 0 || pr != out[i-1] {
			out[w] = pr
			w++
		}
	}
	return out[:w]
}

// sortPairs orders a flattened pair list ascending (a, then b) in place —
// the canonical order the wire delta coding expects.
func sortPairs(pairs []int64) {
	n := len(pairs) / 2
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool {
		a, b := idx[i], idx[j]
		if pairs[2*a] != pairs[2*b] {
			return pairs[2*a] < pairs[2*b]
		}
		return pairs[2*a+1] < pairs[2*b+1]
	})
	sorted := make([]int64, len(pairs))
	for i, a := range idx {
		sorted[2*i] = pairs[2*a]
		sorted[2*i+1] = pairs[2*a+1]
	}
	copy(pairs, sorted)
}

// sortedHist flattens a histogram map to parallel ascending key/count
// slices.
func sortedHist(hist map[int64]int64) (keys, counts []int64) {
	keys = make([]int64, 0, len(hist))
	for k := range hist {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	counts = make([]int64, len(keys))
	for i, k := range keys {
		counts[i] = hist[k]
	}
	return keys, counts
}
