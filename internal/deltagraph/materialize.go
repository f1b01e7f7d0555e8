package deltagraph

import (
	"fmt"
	"math"
	"sort"

	"historygraph/internal/graph"
)

// Memory materialization (Section 4.5): any DeltaGraph node can be
// pre-fetched and pinned in memory. A zero-weight edge from the super-root
// to the node is added to the skeleton, so every subsequent query plan
// benefits automatically. Materializing a node is itself a retrieval of
// that node's graph.

// NodeRef identifies a skeleton node for materialization calls.
type NodeRef int

// Root returns a reference to the current root (the child of the
// super-root reached through the delta hierarchy), or an error if the
// index is empty.
func (dg *DeltaGraph) Root() (NodeRef, error) {
	if err := dg.rlockSealed(); err != nil {
		return 0, err
	}
	defer dg.mu.RUnlock()
	id := dg.rootLocked()
	if id < 0 {
		return 0, fmt.Errorf("deltagraph: index has no root yet")
	}
	return NodeRef(id), nil
}

func (dg *DeltaGraph) rootLocked() int {
	for _, ei := range dg.skel.out[dg.skel.superRoot] {
		e := dg.skel.edges[ei]
		if e != nil && e.kind == kindDelta {
			return e.to
		}
	}
	return -1
}

// Children returns the children of a node (for "materialize the root's
// children / grandchildren" policies).
func (dg *DeltaGraph) Children(ref NodeRef) []NodeRef {
	dg.mu.RLock()
	defer dg.mu.RUnlock()
	node := dg.skel.nodes[int(ref)]
	out := make([]NodeRef, 0, len(node.children))
	for _, c := range node.children {
		out = append(out, NodeRef(c))
	}
	return out
}

// Leaves returns references to all leaves (for total materialization) in
// chronological order, excluding the empty anchor leaf.
func (dg *DeltaGraph) Leaves() []NodeRef {
	dg.mu.RLock()
	defer dg.mu.RUnlock()
	out := make([]NodeRef, 0, len(dg.skel.leaves)-1)
	for _, id := range dg.skel.leaves[1:] {
		out = append(out, NodeRef(id))
	}
	return out
}

// LeafTimes returns the snapshot timepoints of all real leaves.
func (dg *DeltaGraph) LeafTimes() []graph.Time {
	dg.mu.RLock()
	defer dg.mu.RUnlock()
	ts := dg.skel.leafTimes()
	return ts[1:]
}

// Materialize pins the graph of the given skeleton node in memory and adds
// the zero-weight super-root edge. It is idempotent.
func (dg *DeltaGraph) Materialize(ref NodeRef) error {
	dg.mu.Lock()
	defer dg.unlock()
	return dg.materializeLocked(int(ref))
}

func (dg *DeltaGraph) materializeLocked(id int) error {
	if id < 0 || id >= len(dg.skel.nodes) {
		return fmt.Errorf("deltagraph: no such node %d", id)
	}
	node := dg.skel.nodes[id]
	if node.level < 0 {
		return fmt.Errorf("deltagraph: node %d was removed", id)
	}
	if node.materialized {
		return nil
	}
	if err := dg.sealLocked(); err != nil { // the path to the node starts at the root
		return err
	}
	snap, err := dg.nodeGraphLocked(id)
	if err != nil {
		return err
	}
	node.materialized = true
	node.matSnapshot = snap
	dg.skel.addEdge(&skelEdge{from: dg.skel.superRoot, to: id, kind: kindMat, sizes: make(componentSizes, 4+len(dg.auxes)), evIndex: -1})
	if dg.pool != nil {
		dg.matGraphs[id] = dg.pool.OverlayMaterialized(snap)
	}
	return nil
}

// nodeGraphLocked constructs the full graph of any skeleton node by
// following the cheapest delta path from the super-root (materializing a
// node is running a snapshot query for it, Section 4.5).
func (dg *DeltaGraph) nodeGraphLocked(id int) (*graph.Snapshot, error) {
	all := graph.MustParseAttrOptions("+node:all+edge:all")
	sel := selectorFor(all, dg.auxComponentIDs())
	dist, prev := dg.skel.shortestPaths(dg.skel.superRoot, sel)
	if dist[id] == math.MaxInt64 {
		return nil, fmt.Errorf("deltagraph: node %d unreachable", id)
	}
	hops := dg.skel.pathTo(id, prev)
	spec := fetchSpec{nodeAttr: true, edgeAttr: true}
	s := graph.NewSnapshot()
	for _, hop := range hops {
		if err := dg.applyHop(s, hop, spec); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Unmaterialize releases a materialized node: the zero-weight edge is
// removed and the pinned snapshot dropped. It fails if the pool copy has
// dependent graphs.
func (dg *DeltaGraph) Unmaterialize(ref NodeRef) error {
	dg.mu.Lock()
	defer dg.mu.Unlock()
	id := int(ref)
	if id < 0 || id >= len(dg.skel.nodes) || !dg.skel.nodes[id].materialized {
		return fmt.Errorf("deltagraph: node %d not materialized", id)
	}
	if dg.skel.nodes[id].matSnapshot != nil && id == dg.skel.leaves[0] {
		return fmt.Errorf("deltagraph: the empty anchor leaf stays materialized")
	}
	if gid, ok := dg.matGraphs[id]; ok {
		if err := dg.pool.Release(gid); err != nil {
			return err
		}
		delete(dg.matGraphs, id)
	}
	node := dg.skel.nodes[id]
	node.materialized = false
	node.matSnapshot = nil
	for _, ei := range dg.skel.out[dg.skel.superRoot] {
		e := dg.skel.edges[ei]
		if e != nil && e.kind == kindMat && e.to == id {
			dg.skel.removeEdge(ei)
			break
		}
	}
	return nil
}

// MaterializeLevel applies a named policy: "root", "children" (root's
// children), "grandchildren" (root's grandchildren), or "leaves" (total
// materialization — the Copy+Log-in-memory extreme of Section 4.5).
func (dg *DeltaGraph) MaterializeLevel(policy string) error {
	var refs []NodeRef
	switch policy {
	case "root":
		root, err := dg.Root()
		if err != nil {
			return err
		}
		refs = []NodeRef{root}
	case "children", "grandchildren":
		root, err := dg.Root()
		if err != nil {
			return err
		}
		refs = dg.Children(root)
		if policy == "grandchildren" {
			var gc []NodeRef
			for _, c := range refs {
				gc = append(gc, dg.Children(c)...)
			}
			if len(gc) > 0 {
				refs = gc
			}
		}
	case "leaves":
		refs = dg.Leaves()
	default:
		return fmt.Errorf("deltagraph: unknown materialization policy %q", policy)
	}
	for _, r := range refs {
		if err := dg.Materialize(r); err != nil {
			return err
		}
	}
	return nil
}

// MaterializedBytes estimates the memory pinned by materialization
// (element counts weighted like GraphPool's accounting), for the
// memory-vs-latency experiments.
func (dg *DeltaGraph) MaterializedBytes() int64 {
	if dg.rlockSealed() != nil { // a pinned root is re-pinned by the seal
		return 0
	}
	defer dg.mu.RUnlock()
	var total int64
	for _, n := range dg.skel.nodes {
		if n != nil && n.materialized && n.matSnapshot != nil {
			total += int64(n.matSnapshot.Size()) * 48
		}
	}
	return total
}

// MaterializedNodes lists currently materialized skeleton nodes (excluding
// the empty anchor).
func (dg *DeltaGraph) MaterializedNodes() []NodeRef {
	if dg.rlockSealed() != nil {
		return nil
	}
	defer dg.mu.RUnlock()
	var out []NodeRef
	for _, n := range dg.skel.nodes {
		if n != nil && n.materialized && n.id != dg.skel.leaves[0] {
			out = append(out, NodeRef(n.id))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
