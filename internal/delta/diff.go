package delta

import (
	"fmt"

	"historygraph/internal/graph"
)

// Differential is the paper's differential function f(): it constructs the
// graph for an interior DeltaGraph node from the graphs of its k children
// (Table 2). The result is usually not a valid snapshot of any time point;
// it only needs to be a good "center" so the child deltas are small.
type Differential interface {
	// Name identifies the function; skeleton metadata and checkpoints
	// record it.
	Name() string
	// Combine builds the parent graph from the children, ordered oldest
	// to newest. Children must not be modified.
	Combine(children []*graph.Snapshot) *graph.Snapshot
	// Elementwise reports that Combine decides each element by itself and
	// changes nothing all children agree on: whether a node (or edge) and
	// each of its attributes is in the parent depends only on that node in
	// every child and on a hash of its identity, and an element that is
	// the same in every child is the same in the parent. The index builder
	// then evaluates a parent over the elements its children differ on and
	// never over the whole graph.
	Elementwise() bool
}

// Intersection keeps exactly the elements present in every child (with
// equal attribute values). Space-efficient, but on growing graphs it skews
// retrieval latencies toward older (smaller) snapshots; cf. Section 5.3.
type Intersection struct{}

// Name implements Differential.
func (Intersection) Name() string { return "intersection" }

// Elementwise implements Differential.
func (Intersection) Elementwise() bool { return true }

// Combine implements Differential.
func (Intersection) Combine(children []*graph.Snapshot) *graph.Snapshot {
	if len(children) == 0 {
		return graph.NewSnapshot()
	}
	out := children[0].Clone()
	for _, c := range children[1:] {
		for n := range out.Nodes {
			if _, ok := c.Nodes[n]; !ok {
				delete(out.Nodes, n)
				delete(out.NodeAttrs, n)
			}
		}
		for e := range out.Edges {
			if _, ok := c.Edges[e]; !ok {
				delete(out.Edges, e)
				delete(out.EdgeAttrs, e)
			}
		}
		for n, attrs := range out.NodeAttrs {
			cattrs := c.NodeAttrs[n]
			for k, v := range attrs {
				if cv, ok := cattrs[k]; !ok || cv != v {
					delete(attrs, k)
				}
			}
			if len(attrs) == 0 {
				delete(out.NodeAttrs, n)
			}
		}
		for e, attrs := range out.EdgeAttrs {
			cattrs := c.EdgeAttrs[e]
			for k, v := range attrs {
				if cv, ok := cattrs[k]; !ok || cv != v {
					delete(attrs, k)
				}
			}
			if len(attrs) == 0 {
				delete(out.EdgeAttrs, e)
			}
		}
	}
	return out
}

// Union keeps every element present in any child; attribute values are
// taken from the newest child that has the entry. Larger deltas on deletes,
// but the parent is a superset of every child.
type Union struct{}

// Name implements Differential.
func (Union) Name() string { return "union" }

// Elementwise implements Differential.
func (Union) Elementwise() bool { return true }

// Combine implements Differential.
func (Union) Combine(children []*graph.Snapshot) *graph.Snapshot {
	out := graph.NewSnapshot()
	for _, c := range children {
		for n := range c.Nodes {
			out.Nodes[n] = struct{}{}
		}
		for e, info := range c.Edges {
			out.Edges[e] = info
		}
		for n, attrs := range c.NodeAttrs {
			dst := out.NodeAttrs[n]
			if dst == nil {
				dst = make(map[string]string, len(attrs))
				out.NodeAttrs[n] = dst
			}
			for k, v := range attrs {
				dst[k] = v
			}
		}
		for e, attrs := range c.EdgeAttrs {
			dst := out.EdgeAttrs[e]
			if dst == nil {
				dst = make(map[string]string, len(attrs))
				out.EdgeAttrs[e] = dst
			}
			for k, v := range attrs {
				dst[k] = v
			}
		}
	}
	return out
}

// Empty always yields the null graph: every child delta is then a full
// snapshot copy, which makes the DeltaGraph identical to the Copy+Log
// approach (Section 5.2).
type Empty struct{}

// Name implements Differential.
func (Empty) Name() string { return "empty" }

// Elementwise implements Differential: the null graph differs from children
// that all agree, so a parent has to be evaluated over everything they hold.
func (Empty) Elementwise() bool { return false }

// Combine implements Differential.
func (Empty) Combine([]*graph.Snapshot) *graph.Snapshot { return graph.NewSnapshot() }

// Mixed is the paper's tunable family
//
//	f(a, b, c, ...) = a + r1·(δab + δbc + ...) − r2·(ρab + ρbc + ...)
//
// where δxy are the elements added between consecutive children and ρxy the
// elements removed, each sampled by a deterministic hash of the element
// identity so that the removal subset always targets elements the addition
// subset kept (the paper's well-formedness note in Section 5.2). Values
// r1 = r2 = 0.5 give Balanced; r1 > 0.5 shifts the parent toward newer
// children, reducing retrieval times for recent snapshots at the expense of
// older ones.
type Mixed struct {
	R1, R2 float64
}

// Name implements Differential.
func (m Mixed) Name() string { return fmt.Sprintf("mixed(%g,%g)", m.R1, m.R2) }

// Elementwise implements Differential.
func (Mixed) Elementwise() bool { return true }

// Combine implements Differential.
func (m Mixed) Combine(children []*graph.Snapshot) *graph.Snapshot {
	if len(children) == 0 {
		return graph.NewSnapshot()
	}
	out := children[0].Clone()
	for _, next := range children[1:] {
		m.fold(out, next)
	}
	return out
}

// fold advances acc one child: acc ← acc + r1·(next − acc) − r2·(acc − next).
func (m Mixed) fold(acc, next *graph.Snapshot) {
	keepAdd := func(kind graph.ElementKind, id int64, attr string) bool {
		return graph.Hash01(graph.HashElement(kind, id, attr)) < m.R1
	}
	keepDel := func(kind graph.ElementKind, id int64, attr string) bool {
		return graph.Hash01(graph.HashElement(kind, id, attr)) < m.R2
	}
	// ρ: elements of acc absent from next.
	for n := range acc.Nodes {
		if _, ok := next.Nodes[n]; !ok && keepDel(graph.KindNode, int64(n), "") {
			delete(acc.Nodes, n)
			delete(acc.NodeAttrs, n)
		}
	}
	for e := range acc.Edges {
		if _, ok := next.Edges[e]; !ok && keepDel(graph.KindEdge, int64(e), "") {
			delete(acc.Edges, e)
			delete(acc.EdgeAttrs, e)
		}
	}
	for n, attrs := range acc.NodeAttrs {
		nattrs := next.NodeAttrs[n]
		for k := range attrs {
			if _, ok := nattrs[k]; !ok && keepDel(graph.KindNodeAttr, int64(n), k) {
				delete(attrs, k)
			}
		}
		if len(attrs) == 0 {
			delete(acc.NodeAttrs, n)
		}
	}
	for e, attrs := range acc.EdgeAttrs {
		nattrs := next.EdgeAttrs[e]
		for k := range attrs {
			if _, ok := nattrs[k]; !ok && keepDel(graph.KindEdgeAttr, int64(e), k) {
				delete(attrs, k)
			}
		}
		if len(attrs) == 0 {
			delete(acc.EdgeAttrs, e)
		}
	}
	// δ: elements of next absent from acc (or with changed values).
	for n := range next.Nodes {
		if _, ok := acc.Nodes[n]; !ok && keepAdd(graph.KindNode, int64(n), "") {
			acc.Nodes[n] = struct{}{}
		}
	}
	for e, info := range next.Edges {
		if _, ok := acc.Edges[e]; !ok && keepAdd(graph.KindEdge, int64(e), "") {
			acc.Edges[e] = info
		}
	}
	for n, nattrs := range next.NodeAttrs {
		if _, ok := acc.Nodes[n]; !ok {
			continue // attribute entries only live on present elements
		}
		attrs := acc.NodeAttrs[n]
		for k, v := range nattrs {
			if cur, ok := attrs[k]; (!ok || cur != v) && keepAdd(graph.KindNodeAttr, int64(n), k) {
				if attrs == nil {
					attrs = make(map[string]string)
					acc.NodeAttrs[n] = attrs
				}
				attrs[k] = v
			}
		}
	}
	for e, nattrs := range next.EdgeAttrs {
		if _, ok := acc.Edges[e]; !ok {
			continue
		}
		attrs := acc.EdgeAttrs[e]
		for k, v := range nattrs {
			if cur, ok := attrs[k]; (!ok || cur != v) && keepAdd(graph.KindEdgeAttr, int64(e), k) {
				if attrs == nil {
					attrs = make(map[string]string)
					acc.EdgeAttrs[e] = attrs
				}
				attrs[k] = v
			}
		}
	}
}

// Balanced is Mixed(0.5, 0.5): child delta sizes are equalized, giving
// uniform retrieval latencies across the leaves (Section 5.3).
func Balanced() Differential { return named{Mixed{R1: 0.5, R2: 0.5}, "balanced"} }

// Skewed is the paper's f(a,b) = a + r·(b−a) applied as Mixed(r, r): r = 0
// reproduces the oldest child, r = 1 the newest.
func Skewed(r float64) Differential { return named{Mixed{R1: r, R2: r}, fmt.Sprintf("skewed(%g)", r)} }

// named overrides a Differential's name.
type named struct {
	Differential
	name string
}

func (n named) Name() string { return n.name }

// RightSkewed is f(a,b) = a∩b + r·(b − a∩b): the parent sits between the
// intersection and the newest child.
type RightSkewed struct{ R float64 }

// Name implements Differential.
func (s RightSkewed) Name() string { return fmt.Sprintf("rightskewed(%g)", s.R) }

// Elementwise implements Differential.
func (RightSkewed) Elementwise() bool { return true }

// Combine implements Differential.
func (s RightSkewed) Combine(children []*graph.Snapshot) *graph.Snapshot {
	return skewCombine(children, s.R, len(children)-1)
}

// LeftSkewed is f(a,b) = a∩b + r·(a − a∩b): between the intersection and
// the oldest child.
type LeftSkewed struct{ R float64 }

// Name implements Differential.
func (s LeftSkewed) Name() string { return fmt.Sprintf("leftskewed(%g)", s.R) }

// Elementwise implements Differential.
func (LeftSkewed) Elementwise() bool { return true }

// Combine implements Differential.
func (s LeftSkewed) Combine(children []*graph.Snapshot) *graph.Snapshot {
	return skewCombine(children, s.R, 0)
}

// skewCombine implements both skewed variants: start from the intersection
// of all children and add an r-sampled share of the chosen child's extras.
func skewCombine(children []*graph.Snapshot, r float64, anchor int) *graph.Snapshot {
	if len(children) == 0 {
		return graph.NewSnapshot()
	}
	out := Intersection{}.Combine(children)
	src := children[anchor]
	keep := func(kind graph.ElementKind, id int64, attr string) bool {
		return graph.Hash01(graph.HashElement(kind, id, attr)) < r
	}
	for n := range src.Nodes {
		if _, ok := out.Nodes[n]; !ok && keep(graph.KindNode, int64(n), "") {
			out.Nodes[n] = struct{}{}
		}
	}
	for e, info := range src.Edges {
		if _, ok := out.Edges[e]; !ok && keep(graph.KindEdge, int64(e), "") {
			out.Edges[e] = info
		}
	}
	for n, sattrs := range src.NodeAttrs {
		if _, ok := out.Nodes[n]; !ok {
			continue
		}
		attrs := out.NodeAttrs[n]
		for k, v := range sattrs {
			if _, ok := attrs[k]; !ok && keep(graph.KindNodeAttr, int64(n), k) {
				if attrs == nil {
					attrs = make(map[string]string)
					out.NodeAttrs[n] = attrs
				}
				attrs[k] = v
			}
		}
	}
	for e, sattrs := range src.EdgeAttrs {
		if _, ok := out.Edges[e]; !ok {
			continue
		}
		attrs := out.EdgeAttrs[e]
		for k, v := range sattrs {
			if _, ok := attrs[k]; !ok && keep(graph.KindEdgeAttr, int64(e), k) {
				if attrs == nil {
					attrs = make(map[string]string)
					out.EdgeAttrs[e] = attrs
				}
				attrs[k] = v
			}
		}
	}
	return out
}

// ByName returns the differential function for a harness/CLI name:
// intersection, union, empty, balanced, skewed:R, mixed:R1:R2,
// rightskewed:R, leftskewed:R. It also reads back what Name returns —
// skewed(R), mixed(R1,R2) and so on — which is what a checkpoint records.
func ByName(name string) (Differential, error) {
	var r1, r2 float64
	scan := func(format string, args ...any) bool {
		n, err := fmt.Sscanf(name, format, args...)
		return err == nil && n == len(args)
	}
	switch {
	case name == "intersection":
		return Intersection{}, nil
	case name == "union":
		return Union{}, nil
	case name == "empty":
		return Empty{}, nil
	case name == "balanced":
		return Balanced(), nil
	case scan("mixed:%g:%g", &r1, &r2), scan("mixed(%g,%g)", &r1, &r2):
		return Mixed{R1: r1, R2: r2}, nil
	case scan("skewed:%g", &r1), scan("skewed(%g)", &r1):
		return Skewed(r1), nil
	case scan("rightskewed:%g", &r1), scan("rightskewed(%g)", &r1):
		return RightSkewed{R: r1}, nil
	case scan("leftskewed:%g", &r1), scan("leftskewed(%g)", &r1):
		return LeftSkewed{R: r1}, nil
	}
	return nil, fmt.Errorf("delta: unknown differential function %q", name)
}
