package deltagraph

// IndexStats summarizes the index shape and cost; the experiment harness
// and the analytical-model tests consume it.
type IndexStats struct {
	// Leaves is the number of real leaves (excluding the empty anchor).
	Leaves int
	// InteriorNodes counts the interior nodes, pending ones included.
	InteriorNodes int
	// Height is the number of levels above the leaves: the level of the
	// highest node, which is pending (Root).
	Height int
	// DeltaEdges and EventlistEdges count skeleton edges by kind.
	DeltaEdges     int
	EventlistEdges int
	// DiskBytes is the backing store footprint, in stored (compressed)
	// bytes. The store is a log: it holds the permanent payloads once, and
	// every Checkpoint appends its own records (CheckpointBytes, compressed:
	// the recent eventlist, the pending nodes that differ from their bases
	// and the meta record, never the current graph) plus a tombstone for
	// each payload record of the checkpoint before — nothing is reclaimed,
	// so after n checkpoints the file carries n of them, of which the last
	// is live.
	DiskBytes int64
	// CheckpointBytes is the last checkpoint's payloads plus meta record,
	// encoded, before the store compresses them (0 until the index is
	// checkpointed, or opened from a checkpoint). Since checkpoint layout 5
	// it holds what the permanent payloads cannot rebuild, and no graph a
	// walk over them gives: 17 470 B at the benchmark's 59 392-event fixed
	// point and the default L of 8192. At L 4096 it was 20 887 B, where
	// layout 4 wrote 354 061 B.
	CheckpointBytes int64
	// DeltaBytesByLevel sums delta byte sizes by the level of the edge's
	// source node (level 1 = parents of leaves); the Section 5.3 models
	// predict these. This and EventlistBytes count encoded payloads, before
	// the store compresses them: the sizes the planner weighs edges by.
	DeltaBytesByLevel map[int]int64
	// DeltaRecordsByLevel sums delta record counts likewise.
	DeltaRecordsByLevel map[int]int
	// EventlistBytes sums all leaf-eventlist payload sizes.
	EventlistBytes int64
	// RootSize is the element count of Root's graph (0 if no root).
	RootSize int
	// RecentEvents is the size of the unflushed tail.
	RecentEvents int
	// PlanExecutions counts, since the index was created or opened, the
	// graphs that snapshot queries built from a source (the null graph, a
	// materialized node, the current graph): one for a singlepoint query,
	// and for a multipoint query one for every timepoint that is not derived
	// from a neighbour in time. Materialization, aux and interval queries do
	// not count, and neither does a cache hit at the serving layer, which
	// never reaches the index.
	PlanExecutions int64
}

// Stats computes current index statistics. It waits for the builder, so the
// edges and bytes it counts are every leaf cut's.
func (dg *DeltaGraph) Stats() IndexStats {
	if dg.rlockBuilt() != nil {
		dg.mu.RLock() // a put failed: report what there is
	}
	defer dg.mu.RUnlock()
	return dg.statsLocked()
}

func (dg *DeltaGraph) statsLocked() IndexStats {
	st := IndexStats{
		Leaves:              len(dg.skel.leaves) - 1,
		DiskBytes:           dg.store.SizeOnDisk(),
		CheckpointBytes:     dg.ckptBytes.Load(),
		DeltaBytesByLevel:   make(map[int]int64),
		DeltaRecordsByLevel: make(map[int]int),
		RecentEvents:        dg.recent.len(),
		PlanExecutions:      dg.planExecs.Load(),
	}
	for _, n := range dg.skel.nodes {
		if n.level > 0 && n.id != dg.skel.superRoot {
			st.InteriorNodes++
			st.Height = max(st.Height, n.level)
		}
	}
	for _, e := range dg.skel.edges {
		if e == nil {
			continue
		}
		switch e.kind {
		case kindDelta:
			st.DeltaEdges++
			var total int64
			for _, s := range e.sizes {
				total += s
			}
			lvl := dg.skel.nodes[e.from].level
			st.DeltaBytesByLevel[lvl] += total
			st.DeltaRecordsByLevel[lvl] += e.counts
		case kindEventFwd:
			st.EventlistEdges++
			for _, s := range e.sizes {
				st.EventlistBytes += s
			}
		}
	}
	if root := dg.rootLocked(); root >= 0 {
		st.RootSize = dg.skel.nodes[root].size
	}
	return st
}
