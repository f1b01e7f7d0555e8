// Package pregel is the vertex-centric message-passing PageRank the paper
// runs over retrieved snapshots ("we have implemented an iterative
// vertex-based message-passing system analogous to Pregel", Section 3.2).
// Vertices are hash-partitioned — the same partitioning used for
// DeltaGraph storage — and each partition holds its vertices' ranks across
// supersteps, exchanging cross-partition shares at a barrier.
//
// One kernel, PartitionPageRank, answers every deployment shape. A cluster
// runs one per worker partition, the shard coordinator being the barrier
// that routes shares between them; PageRank runs the same step sequence at
// one partition for an unsharded server, the examples and the benchmarks.
//
// The sums are order-free. Each share damping*rank/deg is rounded once,
// where it is made, to an int64 in units of 2^-62, and every later step
// adds integers: the local accumulator, a partition's outgoing partials,
// the coordinator's routing and Absorb. Integer addition is associative,
// so the accumulated round is the same whichever order, grouping or
// partitioning delivers it, and every shape answers the same bits. A
// round's shares sum to at most damping × Σrank ≤ damping < 1, so no
// accumulator or partial sum reaches 2^62, half the int64 range.
package pregel

import (
	"math"
	"sort"

	"historygraph/internal/graph"
	"historygraph/internal/wire"
)

// Graph is the read interface the kernel loads from; csr.Graph,
// graphpool views and analytics.SnapshotGraph satisfy it.
type Graph interface {
	ForEachNode(fn func(graph.NodeID) bool)
	Neighbors(n graph.NodeID) []graph.NodeID
	NumNodes() int
}

// unit is the fixed-point scale: a share s travels as round(s * 2^62).
const unit = 1 << 62

// PartitionPageRank holds one partition's vertex state across supersteps.
// It is not safe for concurrent use; the serving layer serializes steps
// per job (the coordinator drives one step at a time anyway).
type PartitionPageRank struct {
	damping float64
	parts   int
	self    int
	n       int64 // global vertex count, set by Start

	ids   []graph.NodeID       // owned existing vertices
	index map[graph.NodeID]int // position in ids
	rows  [][]graph.NodeID     // adjacency until Start splits it

	// Set by Start: a vertex scatters to deg distinct targets, of which
	// local are positions in ids and remote are owned by other partitions
	// (targets owned here that do not exist take nothing).
	deg    []int
	local  [][]int
	remote [][]graph.NodeID

	ranks []float64
	acc   []int64 // the accumulating round, in units of 2^-62
}

// NewPartitionPageRank loads the owned existing vertices of g and their
// locally visible adjacency. Rows are copied, so g may be dropped once the
// constructor returns: a job reads its graph once, here, and every
// superstep runs over its own rows.
func NewPartitionPageRank(g Graph, parts, self int, damping float64) *PartitionPageRank {
	p := &PartitionPageRank{
		damping: damping, parts: parts, self: self,
		index: make(map[graph.NodeID]int, g.NumNodes()),
	}
	g.ForEachNode(func(id graph.NodeID) bool {
		if p.owns(id) {
			p.index[id] = len(p.ids)
			p.ids = append(p.ids, id)
		}
		return true
	})
	// Rows are read after the walk: a pool view's walk holds the pool's
	// read lock, and a Neighbors inside it would take that lock again,
	// behind any writer queued meanwhile, which waits for the walk.
	p.rows = make([][]graph.NodeID, len(p.ids))
	for i, id := range p.ids {
		p.rows[i] = append([]graph.NodeID(nil), g.Neighbors(id)...)
	}
	return p
}

func (p *PartitionPageRank) owns(id graph.NodeID) bool {
	return p.parts <= 1 || graph.Partition(id, p.parts) == p.self
}

// NumVertices returns how many vertices this partition owns.
func (p *PartitionPageRank) NumVertices() int64 { return int64(len(p.ids)) }

// Start finishes setup once the coordinator has gathered every
// partition's boundary pairs: n is the global vertex count; ghosts is the
// flattened deduplicated pair list touching this partition's vertices
// (adjacency stored on other partitions that local rows cannot see).
// Rows are deduplicated and split into local and remote targets; ranks
// initialize to 1/n.
func (p *PartitionPageRank) Start(n int64, ghosts []int64) {
	p.n = n
	for i := 0; i+1 < len(ghosts); i += 2 {
		a, b := graph.NodeID(ghosts[i]), graph.NodeID(ghosts[i+1])
		if ia, ok := p.index[a]; ok {
			p.rows[ia] = append(p.rows[ia], b)
		}
		if ib, ok := p.index[b]; ok {
			p.rows[ib] = append(p.rows[ib], a)
		}
	}
	p.deg = make([]int, len(p.ids))
	p.local = make([][]int, len(p.ids))
	p.remote = make([][]graph.NodeID, len(p.ids))
	for i, row := range p.rows {
		sort.Slice(row, func(a, b int) bool { return row[a] < row[b] })
		for j, nb := range row {
			if j > 0 && nb == row[j-1] {
				continue
			}
			p.deg[i]++
			if !p.owns(nb) {
				p.remote[i] = append(p.remote[i], nb)
			} else if t, ok := p.index[nb]; ok {
				p.local[i] = append(p.local[i], t)
			}
		}
	}
	p.rows = nil
	p.ranks = make([]float64, len(p.ids))
	p.acc = make([]int64, len(p.ids))
	for i := range p.ranks {
		p.ranks[i] = 1 / float64(n)
	}
}

// Absorb folds one batch of incoming shares into the accumulating round.
// Shares addressed to nonexistent nodes are dropped — this partition owns
// the target, so it alone knows.
func (p *PartitionPageRank) Absorb(inbox []wire.PRMessage) {
	for _, m := range inbox {
		if i, ok := p.index[graph.NodeID(m.Node)]; ok {
			p.acc[i] += m.Share
		}
	}
}

// Finalize commits the accumulated round: every vertex's rank becomes
// (1-damping)/n plus its accumulated shares, and the accumulator resets.
func (p *PartitionPageRank) Finalize() {
	base := (1 - p.damping) / float64(p.n)
	for i, a := range p.acc {
		p.ranks[i] = base + float64(a)/unit
		p.acc[i] = 0
	}
}

// Compute scatters shares from the committed ranks: local targets
// accumulate directly, cross-partition shares come back summed per
// target (ascending by node) for the coordinator to route.
func (p *PartitionPageRank) Compute() []wire.PRMessage {
	remote := map[graph.NodeID]int64{}
	for i, r := range p.ranks {
		if p.deg[i] == 0 {
			continue
		}
		share := int64(math.Round(p.damping * r / float64(p.deg[i]) * unit))
		for _, t := range p.local[i] {
			p.acc[t] += share
		}
		for _, nb := range p.remote[i] {
			remote[nb] += share
		}
	}
	out := make([]wire.PRMessage, 0, len(remote))
	for nb, s := range remote {
		out = append(out, wire.PRMessage{Node: int64(nb), Share: s})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// TopK returns this partition's k highest ranks (all of them for k < 0),
// descending by score with ties broken by ascending node ID —
// per-partition truncation loses nothing because every vertex is owned by
// exactly one partition.
func (p *PartitionPageRank) TopK(k int) []wire.RankEntry {
	all := make([]wire.RankEntry, 0, len(p.ids))
	for i, id := range p.ids {
		all = append(all, wire.RankEntry{Node: int64(id), Score: p.ranks[i]})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].Node < all[j].Node
	})
	if k >= 0 && len(all) > k {
		all = all[:k]
	}
	return all
}

// PageRank runs iterations rounds of damped power iteration over g at one
// partition and returns its k highest ranks (all of them for k < 0). It is
// the coordinator's step sequence with no one to route to: the first step
// computes, each middle step absorbs, finalizes and computes, and the last
// finalizes and collects, so an unsharded answer is a cluster's bit for
// bit. iterations must be at least 1.
func PageRank(g Graph, damping float64, iterations, k int) []wire.RankEntry {
	p := NewPartitionPageRank(g, 1, 0, damping)
	p.Start(p.NumVertices(), nil)
	out := p.Compute()
	for step := 2; step <= iterations; step++ {
		p.Absorb(out)
		p.Finalize()
		out = p.Compute()
	}
	p.Absorb(out)
	p.Finalize()
	return p.TopK(k)
}
