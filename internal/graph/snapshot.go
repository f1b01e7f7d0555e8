package graph

import (
	"fmt"
	"maps"
)

// Snapshot is a set-based representation of the graph as of one time point
// (or of a synthetic interior DeltaGraph node). It is the unit the
// differential functions and delta arithmetic operate on.
//
// A nil *Snapshot is treated as the empty graph by Clone.
type Snapshot struct {
	Nodes     map[NodeID]struct{}
	Edges     map[EdgeID]EdgeInfo
	NodeAttrs map[NodeID]map[string]string
	EdgeAttrs map[EdgeID]map[string]string
}

// NewSnapshot returns an empty snapshot ready for use.
func NewSnapshot() *Snapshot {
	return &Snapshot{
		Nodes:     make(map[NodeID]struct{}),
		Edges:     make(map[EdgeID]EdgeInfo),
		NodeAttrs: make(map[NodeID]map[string]string),
		EdgeAttrs: make(map[EdgeID]map[string]string),
	}
}

// Clone returns a deep copy of the snapshot. Cloning a nil snapshot yields
// an empty one.
func (s *Snapshot) Clone() *Snapshot {
	if s == nil {
		return NewSnapshot()
	}
	c := &Snapshot{
		Nodes:     cloneOrMake(s.Nodes),
		Edges:     cloneOrMake(s.Edges),
		NodeAttrs: cloneOrMake(s.NodeAttrs),
		EdgeAttrs: cloneOrMake(s.EdgeAttrs),
	}
	for n, attrs := range c.NodeAttrs {
		c.NodeAttrs[n] = cloneOrMake(attrs)
	}
	for e, attrs := range c.EdgeAttrs {
		c.EdgeAttrs[e] = cloneOrMake(attrs)
	}
	return c
}

// cloneOrMake is maps.Clone, which copies a map's table whole instead of
// inserting its entries one at a time, except that a nil map clones to an
// empty one.
func cloneOrMake[K comparable, V any](m map[K]V) map[K]V {
	if m == nil {
		return make(map[K]V)
	}
	return maps.Clone(m)
}

// Size returns the number of elements in the snapshot: nodes, edges and
// attribute entries. It is the quantity the paper's analytical models call
// |G|.
func (s *Snapshot) Size() int {
	n := len(s.Nodes) + len(s.Edges)
	for _, attrs := range s.NodeAttrs {
		n += len(attrs)
	}
	for _, attrs := range s.EdgeAttrs {
		n += len(attrs)
	}
	return n
}

// Equal reports whether two snapshots contain exactly the same elements.
func (s *Snapshot) Equal(o *Snapshot) bool {
	if len(s.Nodes) != len(o.Nodes) || len(s.Edges) != len(o.Edges) {
		return false
	}
	for n := range s.Nodes {
		if _, ok := o.Nodes[n]; !ok {
			return false
		}
	}
	for e, info := range s.Edges {
		if oinfo, ok := o.Edges[e]; !ok || oinfo != info {
			return false
		}
	}
	if !attrMapsEqualNode(s.NodeAttrs, o.NodeAttrs) {
		return false
	}
	return attrMapsEqualEdge(s.EdgeAttrs, o.EdgeAttrs)
}

func attrMapsEqualNode(a, b map[NodeID]map[string]string) bool {
	if countAttrsNode(a) != countAttrsNode(b) {
		return false
	}
	for id, attrs := range a {
		battrs := b[id]
		for k, v := range attrs {
			if bv, ok := battrs[k]; !ok || bv != v {
				return false
			}
		}
	}
	return true
}

func attrMapsEqualEdge(a, b map[EdgeID]map[string]string) bool {
	if countAttrsEdge(a) != countAttrsEdge(b) {
		return false
	}
	for id, attrs := range a {
		battrs := b[id]
		for k, v := range attrs {
			if bv, ok := battrs[k]; !ok || bv != v {
				return false
			}
		}
	}
	return true
}

func countAttrsNode(m map[NodeID]map[string]string) int {
	n := 0
	for _, attrs := range m {
		n += len(attrs)
	}
	return n
}

func countAttrsEdge(m map[EdgeID]map[string]string) int {
	n := 0
	for _, attrs := range m {
		n += len(attrs)
	}
	return n
}

// Apply applies one event in the forward direction of time. Applying an
// event whose precondition does not hold (for example deleting an absent
// edge) is a silent no-op; use ApplyStrict to detect malformed traces.
func (s *Snapshot) Apply(ev Event) {
	switch ev.Type {
	case AddNode:
		s.Nodes[ev.Node] = struct{}{}
	case DelNode:
		delete(s.Nodes, ev.Node)
		delete(s.NodeAttrs, ev.Node)
	case AddEdge:
		s.Edges[ev.Edge] = EdgeInfo{From: ev.Node, To: ev.Node2, Directed: ev.Directed}
	case DelEdge:
		delete(s.Edges, ev.Edge)
		delete(s.EdgeAttrs, ev.Edge)
	case SetNodeAttr:
		if ev.HasNew {
			attrs := s.NodeAttrs[ev.Node]
			if attrs == nil {
				attrs = make(map[string]string)
				s.NodeAttrs[ev.Node] = attrs
			}
			attrs[ev.Attr] = ev.New
		} else if attrs := s.NodeAttrs[ev.Node]; attrs != nil {
			delete(attrs, ev.Attr)
			if len(attrs) == 0 {
				delete(s.NodeAttrs, ev.Node)
			}
		}
	case SetEdgeAttr:
		if ev.HasNew {
			attrs := s.EdgeAttrs[ev.Edge]
			if attrs == nil {
				attrs = make(map[string]string)
				s.EdgeAttrs[ev.Edge] = attrs
			}
			attrs[ev.Attr] = ev.New
		} else if attrs := s.EdgeAttrs[ev.Edge]; attrs != nil {
			delete(attrs, ev.Attr)
			if len(attrs) == 0 {
				delete(s.EdgeAttrs, ev.Edge)
			}
		}
	case TransientEdge, TransientNode:
		// Transient events do not alter snapshot state.
	}
}

// ApplyStrict is Apply with precondition checks; it reports events that are
// not applicable to the current state.
func (s *Snapshot) ApplyStrict(ev Event) error {
	switch ev.Type {
	case AddNode:
		if _, ok := s.Nodes[ev.Node]; ok {
			return fmt.Errorf("node %d already exists", ev.Node)
		}
	case DelNode:
		if _, ok := s.Nodes[ev.Node]; !ok {
			return fmt.Errorf("node %d does not exist", ev.Node)
		}
		if len(s.NodeAttrs[ev.Node]) > 0 {
			return fmt.Errorf("node %d still has attributes", ev.Node)
		}
	case AddEdge:
		if _, ok := s.Edges[ev.Edge]; ok {
			return fmt.Errorf("edge %d already exists", ev.Edge)
		}
		if _, ok := s.Nodes[ev.Node]; !ok {
			return fmt.Errorf("edge %d references missing node %d", ev.Edge, ev.Node)
		}
		if _, ok := s.Nodes[ev.Node2]; !ok {
			return fmt.Errorf("edge %d references missing node %d", ev.Edge, ev.Node2)
		}
	case DelEdge:
		if _, ok := s.Edges[ev.Edge]; !ok {
			return fmt.Errorf("edge %d does not exist", ev.Edge)
		}
		if len(s.EdgeAttrs[ev.Edge]) > 0 {
			return fmt.Errorf("edge %d still has attributes", ev.Edge)
		}
	case SetNodeAttr:
		if _, ok := s.Nodes[ev.Node]; !ok {
			return fmt.Errorf("attribute event on missing node %d", ev.Node)
		}
		cur, ok := s.NodeAttrs[ev.Node][ev.Attr]
		if ok != ev.HadOld || (ok && cur != ev.Old) {
			return fmt.Errorf("node %d attr %q: old value mismatch", ev.Node, ev.Attr)
		}
	case SetEdgeAttr:
		if _, ok := s.Edges[ev.Edge]; !ok {
			return fmt.Errorf("attribute event on missing edge %d", ev.Edge)
		}
		cur, ok := s.EdgeAttrs[ev.Edge][ev.Attr]
		if ok != ev.HadOld || (ok && cur != ev.Old) {
			return fmt.Errorf("edge %d attr %q: old value mismatch", ev.Edge, ev.Attr)
		}
	}
	s.Apply(ev)
	return nil
}

// ApplyAll applies a chronological run of events forward.
func (s *Snapshot) ApplyAll(evs []Event) {
	for _, ev := range evs {
		s.Apply(ev)
	}
}

// SnapshotAt replays the prefix of events with At <= t onto an empty graph
// and returns the result. It is the reference ("naive Log") semantics every
// index implementation must agree with.
func SnapshotAt(events EventList, t Time) *Snapshot {
	s := NewSnapshot()
	s.ApplyAll(events[:events.SearchTime(t)])
	return s
}
