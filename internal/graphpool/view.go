package graphpool

import (
	"fmt"
	"slices"
	"unsafe"

	"historygraph/internal/graph"
)

// View is a read-only view of one active graph overlaid in the pool — the
// HistGraph handle the paper's programmatic API returns. All methods
// evaluate membership through the bitmap semantics, so a view is always
// consistent with the pool even as other graphs come and go. The test is
// resolved to bit numbers when the graph is registered (membership), so
// evaluating it consults neither the graph table nor the dependency.
type View struct {
	p     *Pool
	entry *graphEntry
}

// View returns a read view of the given active graph.
func (p *Pool) View(id GraphID) (*View, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	entry, ok := p.graphs[id]
	if !ok || entry.released {
		return nil, fmt.Errorf("graphpool: graph %d not active", id)
	}
	return &View{p: p, entry: entry}, nil
}

// Current returns a view of the current graph.
func (p *Pool) Current() *View {
	v, _ := p.View(CurrentGraph)
	return v
}

// has reports whether this graph holds what b is the bitmap of. The caller
// holds the read lock.
func (v *View) has(b bitmap) bool { return v.p.has(v.entry.m, b) }

// ID returns the view's graph ID.
func (v *View) ID() GraphID { return v.entry.id }

// At returns the timepoint the graph was retrieved for (zero for the
// current graph and materialized graphs).
func (v *View) At() graph.Time { return v.entry.at }

// DependsOnCurrent reports whether this graph is overlaid as exceptions
// against the current graph. Such a view's non-exception membership is
// evaluated through the current graph's live bits, so it is only valid
// while the current graph does not change — callers that hold views
// across updates (the server's hot-snapshot cache) must drop it on
// append.
func (v *View) DependsOnCurrent() bool { return v.entry.dep == CurrentGraph }

// NumNodes returns the node count of this graph.
func (v *View) NumNodes() int {
	v.p.mu.RLock()
	defer v.p.mu.RUnlock()
	return v.entry.nodeCount
}

// NumEdges returns the edge count of this graph.
func (v *View) NumEdges() int {
	v.p.mu.RLock()
	defer v.p.mu.RUnlock()
	return v.entry.edgeCount
}

// HasNode reports whether the node is in this graph.
func (v *View) HasNode(n graph.NodeID) bool {
	v.p.mu.RLock()
	defer v.p.mu.RUnlock()
	pn := v.p.findNode(n)
	return pn != nil && v.has(pn.bits())
}

// HasEdge reports whether the edge is in this graph.
func (v *View) HasEdge(e graph.EdgeID) bool {
	v.p.mu.RLock()
	defer v.p.mu.RUnlock()
	return v.p.held(v.entry.m, e) != nil
}

// EdgeInfo returns the endpoints of an edge in this graph.
func (v *View) EdgeInfo(e graph.EdgeID) (graph.EdgeInfo, bool) {
	v.p.mu.RLock()
	defer v.p.mu.RUnlock()
	if pe := v.p.held(v.entry.m, e); pe != nil {
		return v.p.info(pe), true
	}
	return graph.EdgeInfo{}, false
}

// ForEachNode calls fn for every node in this graph until fn returns false.
// The pool's read lock is held for the duration, and fn may call no pool
// method at all, a read included: one that takes the read lock again waits
// behind any writer queued meanwhile, which waits for the walk.
func (v *View) ForEachNode(fn func(graph.NodeID) bool) {
	v.p.mu.RLock()
	defer v.p.mu.RUnlock()
	for id, pn := range v.p.nodes {
		if v.has(pn.bits()) {
			if !fn(id) {
				return
			}
		}
	}
}

// ForEachEdge calls fn for every edge in this graph until fn returns false.
// The pool's read lock is held for the duration; fn may call no pool method
// (ForEachNode).
func (v *View) ForEachEdge(fn func(graph.EdgeID, graph.EdgeInfo) bool) {
	v.p.mu.RLock()
	defer v.p.mu.RUnlock()
	for id, pe := range v.p.records {
		if v.has(pe.bits()) {
			if !fn(id, v.p.info(pe)) {
				return
			}
		}
	}
}

// Nodes returns all node IDs in this graph (unordered).
func (v *View) Nodes() []graph.NodeID {
	out := make([]graph.NodeID, 0, v.NumNodes())
	v.ForEachNode(func(n graph.NodeID) bool {
		out = append(out, n)
		return true
	})
	return out
}

// IncidentEdges returns the IDs of this graph's edges incident to n.
func (v *View) IncidentEdges(n graph.NodeID) []graph.EdgeID {
	v.p.mu.RLock()
	defer v.p.mu.RUnlock()
	var out []graph.EdgeID
	for _, r := range v.p.adjacent(n) {
		if pe := v.p.edgeSlab.at(r); v.has(pe.bits()) {
			out = append(out, pe.id)
		}
	}
	return out
}

// Neighbors returns the distinct nodes adjacent to n in this graph, in
// ascending order (treating directed edges as traversable both ways, as the
// paper's getNeighbors example does).
func (v *View) Neighbors(n graph.NodeID) []graph.NodeID {
	v.p.mu.RLock()
	defer v.p.mu.RUnlock()
	adj := v.p.adjacent(n)
	var out []graph.NodeID
	for _, r := range adj {
		if pe := v.p.edgeSlab.at(r); v.has(pe.bits()) {
			out = append(slices.Grow(out, len(adj)), v.p.info(pe).Other(n)) // one allocation, on the first
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Degree returns the number of edges of this graph incident to n.
func (v *View) Degree(n graph.NodeID) int {
	v.p.mu.RLock()
	defer v.p.mu.RUnlock()
	d := 0
	for _, r := range v.p.adjacent(n) {
		if v.has(v.p.edgeSlab.at(r).bits()) {
			d++
		}
	}
	return d
}

// admits reports whether this graph may show the named node (else edge)
// attribute. A retrieved graph shows only those it was retrieved with: a
// dependent one inherits its dependency's values, and an explicit one copied
// from the current graph or a pinned one holds them all. The current graph
// and a materialized one show everything they hold.
func (v *View) admits(node bool, name string) bool {
	switch {
	case v.entry.kind != KindHistorical:
		return true
	case node:
		return v.entry.attrs.WantNodeAttr(name)
	}
	return v.entry.attrs.WantEdgeAttr(name)
}

// valueOf returns the value of the named attribute in l in this graph: the
// first of the name's values the graph holds. The caller holds the read lock.
func (v *View) valueOf(l *attrList, node bool, attr string) (string, bool) {
	if !v.admits(node, attr) {
		return "", false
	}
	return v.p.valueIn(v.entry.m, l, attr)
}

// attrsOf collects the attributes in l of one node (else edge) in this graph
// (nil when there are none). The caller holds the read lock.
func (v *View) attrsOf(l *attrList, node bool) map[string]string {
	var out map[string]string
	answered := noStr // values of one name are adjacent: the first member answers for it
	attrs := l.all()
	for i := range attrs {
		av := &attrs[i]
		if av.name() == answered || !v.has(av.bits()) {
			continue
		}
		answered = av.name()
		if name := v.p.strs[av.name()]; v.admits(node, name) {
			if out == nil {
				out = make(map[string]string, len(attrs)-i) // room for all that may follow
			}
			out[name] = v.p.strs[av.val]
		}
	}
	return out
}

// NodeAttr returns the value of a node attribute in this graph.
func (v *View) NodeAttr(n graph.NodeID, attr string) (string, bool) {
	v.p.mu.RLock()
	defer v.p.mu.RUnlock()
	pn := v.p.findNode(n)
	if pn == nil || !v.has(pn.bits()) {
		return "", false
	}
	return v.valueOf(pn.vals, true, attr)
}

// EdgeAttr returns the value of an edge attribute in this graph.
func (v *View) EdgeAttr(e graph.EdgeID, attr string) (string, bool) {
	v.p.mu.RLock()
	defer v.p.mu.RUnlock()
	if v.p.held(v.entry.m, e) == nil {
		return "", false
	}
	return v.valueOf(v.p.edgeVals[e], false, attr)
}

// NodeAttrs returns all attributes of n in this graph.
func (v *View) NodeAttrs(n graph.NodeID) map[string]string {
	v.p.mu.RLock()
	defer v.p.mu.RUnlock()
	pn := v.p.findNode(n)
	if pn == nil || !v.has(pn.bits()) {
		return nil
	}
	return v.attrsOf(pn.vals, true)
}

// EdgeAttrs returns all attributes of e in this graph (nil when the edge
// is absent or bare) — the edge-side sibling of NodeAttrs, so run-at-a-
// time consumers (the server's streaming encoder) can walk edges without
// detaching a whole Snapshot.
func (v *View) EdgeAttrs(e graph.EdgeID) map[string]string {
	v.p.mu.RLock()
	defer v.p.mu.RUnlock()
	if v.p.held(v.entry.m, e) == nil {
		return nil
	}
	return v.attrsOf(v.p.edgeVals[e], false)
}

// Snapshot extracts a full set-based copy of this graph out of the pool:
// its nodes and edges, and every attribute value it holds, those of
// elements it does not contain among them: a history may set an attribute on
// an id it never added, or on one it deleted.
func (v *View) Snapshot() *graph.Snapshot { return v.copyOut(true) }

// Structure is Snapshot without the attribute values: a copy of this graph's
// nodes and edges.
func (v *View) Structure() *graph.Snapshot { return v.copyOut(false) }

// copyOut is Snapshot, with the values only if attrs is set. The node and
// edge maps have room for this graph's.
func (v *View) copyOut(attrs bool) *graph.Snapshot {
	v.p.mu.RLock()
	defer v.p.mu.RUnlock()
	s := &graph.Snapshot{
		Nodes:     make(map[graph.NodeID]struct{}, v.entry.nodeCount),
		Edges:     make(map[graph.EdgeID]graph.EdgeInfo, v.entry.edgeCount),
		NodeAttrs: make(map[graph.NodeID]map[string]string),
		EdgeAttrs: make(map[graph.EdgeID]map[string]string),
	}
	for id, pn := range v.p.nodes {
		if v.has(pn.bits()) {
			s.Nodes[id] = struct{}{}
		}
		if !attrs {
			continue
		}
		if values := v.attrsOf(pn.vals, true); values != nil {
			s.NodeAttrs[id] = values
		}
	}
	for id, pe := range v.p.records {
		if v.has(pe.bits()) {
			s.Edges[id] = v.p.info(pe)
		}
	}
	if !attrs {
		return s
	}
	for id, l := range v.p.edgeVals {
		if values := v.attrsOf(l, false); values != nil {
			s.EdgeAttrs[id] = values
		}
	}
	return s
}

// Bytes is what the pool holds for this graph, costed as ApproxBytes costs
// it: the records of its nodes and edges, with their table slots and an edge
// record's 4 B in the adjacency list of each of its endpoints, and the
// attribute values it holds and their strings, each whole though other
// graphs may share it.
func (v *View) Bytes() int64 {
	v.p.mu.RLock()
	defer v.p.mu.RUnlock()
	values := func(l *attrList) (n int64) {
		for _, av := range l.all() {
			if v.has(av.bits()) {
				n += int64(unsafe.Sizeof(av)) + int64(len(v.p.strs[av.val]))
			}
		}
		return n
	}
	var n int64
	for _, pn := range v.p.nodes {
		if v.has(pn.bits()) {
			n += idSlot + int64(unsafe.Sizeof(*pn))
		}
		n += values(pn.vals)
	}
	for _, pe := range v.p.records {
		if v.has(pe.bits()) {
			n += idSlot + int64(unsafe.Sizeof(*pe)) + 4*int64(len(pe.ends()))
		}
	}
	for _, l := range v.p.edgeVals {
		n += values(l)
	}
	return n
}
