package deltagraph

import (
	"fmt"
	"slices"
	"sort"

	"historygraph/internal/graph"
	"historygraph/internal/graphpool"
)

// allAttrOptions asks for every attribute: what a materialized graph holds.
var allAttrOptions = graph.AttrOptions{NodeAll: true, EdgeAll: true}

// Memory materialization (Section 4.5): any DeltaGraph node can be
// pre-fetched and pinned in memory. A zero-weight edge from the super-root
// to the node is added to the skeleton, so every subsequent query plan
// benefits automatically. Materializing a node is itself a retrieval of
// that node's graph.

// NodeRef identifies a skeleton node for materialization calls.
type NodeRef int

// Root returns a reference to the root: the highest pending node, the oldest
// of the highest level that has one, whose subtree covers the most leaves. It
// is an error if the index has no leaf yet.
func (dg *DeltaGraph) Root() (NodeRef, error) {
	dg.mu.RLock()
	defer dg.mu.RUnlock()
	id := dg.rootLocked()
	if id < 0 {
		return 0, fmt.Errorf("deltagraph: index has no root yet")
	}
	return NodeRef(id), nil
}

func (dg *DeltaGraph) rootLocked() int {
	for level := len(dg.pending) - 1; level >= 0; level-- {
		if len(dg.pending[level]) > 0 {
			return dg.pending[level][0].node
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
	return dg.materializeLocked([]int{int(ref)})
}

// materializeLocked pins the graphs of the given skeleton nodes. Materializing
// a node is running a snapshot query for it (Section 4.5), and materializing
// several is one multipoint query: one plan with the nodes for targets, in
// which nodes that share a path from the super-root share the deltas on it.
func (dg *DeltaGraph) materializeLocked(ids []int) error {
	var todo []int
	for _, id := range ids {
		if id < 0 || id >= len(dg.skel.nodes) {
			return fmt.Errorf("deltagraph: no such node %d", id)
		}
		if dg.skel.nodes[id].level < 0 {
			return fmt.Errorf("deltagraph: node %d was removed", id)
		}
		if c := dg.pendingNode(id); c != nil && !dg.skel.nodes[id].materialized {
			dg.pinLocked(id, c.graph.ID()) // its graph is in the pool already
		} else if !dg.skel.nodes[id].materialized && !slices.Contains(todo, id) {
			todo = append(todo, id)
		}
	}
	if len(todo) == 0 {
		return nil
	}
	if err := dg.publishLocked(); err != nil { // the paths to the nodes are stored deltas
		return err
	}
	p := planner{dg: dg, sel: selectorFor(allAttrOptions, dg.auxComponentIDs())}
	tree := &planNode{}
	for i, id := range todo {
		r, err := p.reach(id)
		if err != nil {
			return err
		}
		if r == nil {
			return fmt.Errorf("deltagraph: node %d unreachable", id)
		}
		tree.insert(r, i)
	}
	gids, err := dg.buildLocked(tree, make([]graph.Time, len(todo)), graphpool.KindMaterialized, allAttrOptions, false)
	if err != nil {
		return err
	}
	for i, id := range todo {
		dg.pinLocked(id, gids[i])
	}
	return nil
}

// pinLocked makes the pool graph gid the materialized graph of a skeleton
// node, held in memory once, in the pool; a zero-weight edge from the
// super-root offers it to every later plan. A pending node's graph is pinned
// where it is: when the node gets a parent the graph stays, materialized.
func (dg *DeltaGraph) pinLocked(id int, gid graphpool.GraphID) {
	dg.skel.nodes[id].materialized = true
	dg.skel.addEdge(&skelEdge{from: dg.skel.superRoot, to: id, kind: kindMat, sizes: make(componentSizes, 4+len(dg.auxes)), evIndex: -1})
	dg.matGraphs[id] = gid
}

// MaterializeLevel applies a named policy: "root" (Root), "children" (the
// root's children), "grandchildren" (the root's grandchildren), or "leaves"
// (total materialization — the Copy+Log-in-memory extreme of Section 4.5). A
// node without children stands for its own. A pinned node stays pinned across
// leaf cuts, which keep its id; the leaves outside the root's subtree are
// reached through the other pending nodes' graphs.
func (dg *DeltaGraph) MaterializeLevel(policy string) error {
	depth, ok := map[string]int{"root": 0, "children": 1, "grandchildren": 2}[policy]
	dg.mu.Lock()
	defer dg.unlock()
	if policy == "leaves" {
		return dg.materializeLocked(dg.skel.leaves[1:])
	} else if !ok {
		return fmt.Errorf("deltagraph: unknown materialization policy %q", policy)
	}
	root := dg.rootLocked()
	if root < 0 {
		return fmt.Errorf("deltagraph: index has no root yet")
	}
	ids := []int{root}
	for ; depth > 0; depth-- {
		var below []int
		for _, id := range ids {
			if kids := dg.skel.nodes[id].children; len(kids) > 0 {
				below = append(below, kids...)
			} else {
				below = append(below, id)
			}
		}
		ids = below
	}
	return dg.materializeLocked(ids)
}

// MaterializedBytes is the memory pinned by materialization, for the
// memory-vs-latency experiments: the pool's records and values that each
// materialized graph holds (View.Bytes).
func (dg *DeltaGraph) MaterializedBytes() int64 {
	dg.mu.RLock()
	defer dg.mu.RUnlock()
	var total int64
	for _, id := range dg.matGraphs {
		if v, err := dg.pool.View(id); err == nil {
			total += v.Bytes()
		}
	}
	return total
}

// MaterializedNodes lists currently materialized skeleton nodes (excluding
// the empty anchor).
func (dg *DeltaGraph) MaterializedNodes() []NodeRef {
	dg.mu.RLock()
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
