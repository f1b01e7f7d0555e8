// Package delta implements the columnar deltas stored on DeltaGraph edges
// and the differential functions that construct interior-node graphs from
// their children (Sections 4.2 and 5.2 of the paper).
//
// A delta ∆(T, S) carries exactly the information needed to construct the
// snapshot T from the snapshot S: the elements to delete from S (S − T) and
// the elements to add to S (T − S). Deltas are columnar: the structure,
// node-attribute and edge-attribute components are separate values in the
// key-value store so a query fetches only the columns its attr_options
// require.
package delta

import (
	"cmp"
	"slices"
	"strings"

	"historygraph/internal/graph"
)

// EdgeRec is one edge addition or deletion within a delta.
type EdgeRec struct {
	ID       graph.EdgeID
	From, To graph.NodeID
	Directed bool
}

// NodeAttrRec is one node-attribute set or delete within a delta. Val is
// the value as of the delta's target for sets; it is empty for deletes.
type NodeAttrRec struct {
	Node graph.NodeID
	Attr string
	Val  string
}

// EdgeAttrRec is one edge-attribute set or delete within a delta. From is
// carried so horizontal partitioning can route the record without a lookup.
type EdgeAttrRec struct {
	Edge graph.EdgeID
	From graph.NodeID
	Attr string
	Val  string
}

// Delta is the columnar difference between two snapshots. Applying it to
// the source snapshot yields the target.
type Delta struct {
	// Structure component (∆struct).
	AddNodes []graph.NodeID
	DelNodes []graph.NodeID
	AddEdges []EdgeRec
	DelEdges []EdgeRec
	// Node-attribute component (∆nodeattr).
	SetNodeAttrs []NodeAttrRec
	DelNodeAttrs []NodeAttrRec
	// Edge-attribute component (∆edgeattr).
	SetEdgeAttrs []EdgeAttrRec
	DelEdgeAttrs []EdgeAttrRec
}

// Compute returns ∆(target, source): the delta that transforms source into
// target. Both snapshots are read-only inputs.
func Compute(target, source *graph.Snapshot) *Delta {
	d := &Delta{}
	for n := range target.Nodes {
		if _, ok := source.Nodes[n]; !ok {
			d.AddNodes = append(d.AddNodes, n)
		}
	}
	for n := range source.Nodes {
		if _, ok := target.Nodes[n]; !ok {
			d.DelNodes = append(d.DelNodes, n)
		}
	}
	// Edge IDs are never reused, so an edge present in both snapshots has
	// identical info; a differing info (only possible with malformed
	// input) is handled as delete + re-add so Apply is still correct.
	for e, info := range target.Edges {
		if sinfo, ok := source.Edges[e]; !ok || sinfo != info {
			d.AddEdges = append(d.AddEdges, EdgeRec{ID: e, From: info.From, To: info.To, Directed: info.Directed})
		}
	}
	for e, info := range source.Edges {
		if tinfo, ok := target.Edges[e]; !ok || tinfo != info {
			d.DelEdges = append(d.DelEdges, EdgeRec{ID: e, From: info.From, To: info.To, Directed: info.Directed})
		}
	}
	for n, attrs := range target.NodeAttrs {
		src := source.NodeAttrs[n]
		for k, v := range attrs {
			if sv, ok := src[k]; !ok || sv != v {
				d.SetNodeAttrs = append(d.SetNodeAttrs, NodeAttrRec{Node: n, Attr: k, Val: v})
			}
		}
	}
	for n, attrs := range source.NodeAttrs {
		tgt := target.NodeAttrs[n]
		for k := range attrs {
			if _, ok := tgt[k]; !ok {
				d.DelNodeAttrs = append(d.DelNodeAttrs, NodeAttrRec{Node: n, Attr: k})
			}
		}
	}
	for e, attrs := range target.EdgeAttrs {
		src := source.EdgeAttrs[e]
		from := edgeFrom(target, source, e)
		for k, v := range attrs {
			if sv, ok := src[k]; !ok || sv != v {
				d.SetEdgeAttrs = append(d.SetEdgeAttrs, EdgeAttrRec{Edge: e, From: from, Attr: k, Val: v})
			}
		}
	}
	for e, attrs := range source.EdgeAttrs {
		tgt := target.EdgeAttrs[e]
		from := edgeFrom(target, source, e)
		for k := range attrs {
			if _, ok := tgt[k]; !ok {
				d.DelEdgeAttrs = append(d.DelEdgeAttrs, EdgeAttrRec{Edge: e, From: from, Attr: k})
			}
		}
	}
	d.SortStable()
	return d
}

func edgeFrom(a, b *graph.Snapshot, e graph.EdgeID) graph.NodeID {
	if info, ok := a.Edges[e]; ok {
		return info.From
	}
	if info, ok := b.Edges[e]; ok {
		return info.From
	}
	return 0
}

// SortStable orders every column deterministically so that encoded deltas
// are byte-identical across runs (the sampling hash and codec depend only on
// identities and this order). Compute sorts what it returns; a delta built
// record by record elsewhere (the index builder's, in the pool's record
// order) is sorted before it is encoded.
func (d *Delta) SortStable() {
	slices.Sort(d.AddNodes)
	slices.Sort(d.DelNodes)
	byEdge := func(a, b EdgeRec) int { return cmp.Compare(a.ID, b.ID) }
	slices.SortFunc(d.AddEdges, byEdge)
	slices.SortFunc(d.DelEdges, byEdge)
	byNodeAttr := func(a, b NodeAttrRec) int {
		return cmp.Or(cmp.Compare(a.Node, b.Node), strings.Compare(a.Attr, b.Attr))
	}
	slices.SortFunc(d.SetNodeAttrs, byNodeAttr)
	slices.SortFunc(d.DelNodeAttrs, byNodeAttr)
	byEdgeAttr := func(a, b EdgeAttrRec) int {
		return cmp.Or(cmp.Compare(a.Edge, b.Edge), strings.Compare(a.Attr, b.Attr))
	}
	slices.SortFunc(d.SetEdgeAttrs, byEdgeAttr)
	slices.SortFunc(d.DelEdgeAttrs, byEdgeAttr)
}

// Apply mutates s by applying the delta: deletions first, then additions,
// so ∆(T, S) applied to S yields T.
func (d *Delta) Apply(s *graph.Snapshot) {
	for _, rec := range d.DelNodeAttrs {
		if attrs := s.NodeAttrs[rec.Node]; attrs != nil {
			delete(attrs, rec.Attr)
			if len(attrs) == 0 {
				delete(s.NodeAttrs, rec.Node)
			}
		}
	}
	for _, rec := range d.DelEdgeAttrs {
		if attrs := s.EdgeAttrs[rec.Edge]; attrs != nil {
			delete(attrs, rec.Attr)
			if len(attrs) == 0 {
				delete(s.EdgeAttrs, rec.Edge)
			}
		}
	}
	// Attribute removals are always explicit records (Compute emits them),
	// so structural deletes must not cascade: a delete + re-add pair keeps
	// surviving attributes.
	for _, e := range d.DelEdges {
		delete(s.Edges, e.ID)
	}
	for _, n := range d.DelNodes {
		delete(s.Nodes, n)
	}
	for _, n := range d.AddNodes {
		s.Nodes[n] = struct{}{}
	}
	for _, e := range d.AddEdges {
		s.Edges[e.ID] = graph.EdgeInfo{From: e.From, To: e.To, Directed: e.Directed}
	}
	// A new element's map is sized by its run of records: the columns are
	// sorted by element (SortStable).
	for i, rec := range d.SetNodeAttrs {
		attrs := s.NodeAttrs[rec.Node]
		if attrs == nil {
			n := 1
			for i+n < len(d.SetNodeAttrs) && d.SetNodeAttrs[i+n].Node == rec.Node {
				n++
			}
			attrs = make(map[string]string, n)
			s.NodeAttrs[rec.Node] = attrs
		}
		attrs[rec.Attr] = rec.Val
	}
	for i, rec := range d.SetEdgeAttrs {
		attrs := s.EdgeAttrs[rec.Edge]
		if attrs == nil {
			n := 1
			for i+n < len(d.SetEdgeAttrs) && d.SetEdgeAttrs[i+n].Edge == rec.Edge {
				n++
			}
			attrs = make(map[string]string, n)
			s.EdgeAttrs[rec.Edge] = attrs
		}
		attrs[rec.Attr] = rec.Val
	}
}

// StructLen returns the number of structural records in the delta.
func (d *Delta) StructLen() int {
	return len(d.AddNodes) + len(d.DelNodes) + len(d.AddEdges) + len(d.DelEdges)
}

// NodeAttrLen returns the number of node-attribute records.
func (d *Delta) NodeAttrLen() int { return len(d.SetNodeAttrs) + len(d.DelNodeAttrs) }

// EdgeAttrLen returns the number of edge-attribute records.
func (d *Delta) EdgeAttrLen() int { return len(d.SetEdgeAttrs) + len(d.DelEdgeAttrs) }

// Len returns the total number of records across all columns; this is the
// |∆| the paper's analytical models reason about.
func (d *Delta) Len() int { return d.StructLen() + d.NodeAttrLen() + d.EdgeAttrLen() }

// Split partitions the delta into p partition-local deltas by node-ID hash:
// nodes and node attributes by their node, edges and edge attributes by
// their From endpoint (Section 4.2).
func (d *Delta) Split(p int) []*Delta {
	if p <= 1 {
		return []*Delta{d}
	}
	parts := make([]*Delta, p)
	for i := range parts {
		parts[i] = &Delta{}
	}
	for _, n := range d.AddNodes {
		t := parts[graph.Partition(n, p)]
		t.AddNodes = append(t.AddNodes, n)
	}
	for _, n := range d.DelNodes {
		t := parts[graph.Partition(n, p)]
		t.DelNodes = append(t.DelNodes, n)
	}
	for _, e := range d.AddEdges {
		t := parts[graph.Partition(e.From, p)]
		t.AddEdges = append(t.AddEdges, e)
	}
	for _, e := range d.DelEdges {
		t := parts[graph.Partition(e.From, p)]
		t.DelEdges = append(t.DelEdges, e)
	}
	for _, r := range d.SetNodeAttrs {
		t := parts[graph.Partition(r.Node, p)]
		t.SetNodeAttrs = append(t.SetNodeAttrs, r)
	}
	for _, r := range d.DelNodeAttrs {
		t := parts[graph.Partition(r.Node, p)]
		t.DelNodeAttrs = append(t.DelNodeAttrs, r)
	}
	for _, r := range d.SetEdgeAttrs {
		t := parts[graph.Partition(r.From, p)]
		t.SetEdgeAttrs = append(t.SetEdgeAttrs, r)
	}
	for _, r := range d.DelEdgeAttrs {
		t := parts[graph.Partition(r.From, p)]
		t.DelEdgeAttrs = append(t.DelEdgeAttrs, r)
	}
	return parts
}

// FromSnapshot returns the delta that constructs s from the empty graph;
// it is how full snapshots (Copy+Log copies, super-root deltas) are stored.
func FromSnapshot(s *graph.Snapshot) *Delta {
	return Compute(s, graph.NewSnapshot())
}
