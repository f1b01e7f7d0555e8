package delta

import (
	"fmt"
	"slices"

	"historygraph/internal/graph"
)

// Differential is the paper's differential function f(): it constructs the
// graph for an interior DeltaGraph node from the graphs of its k children
// (Table 2). The result is usually not a valid snapshot of any time point;
// it only needs to be a good "center" so the child deltas are small.
//
// Every function the paper defines decides each element by itself: whether
// a node (or edge) is in the parent, and each of its attribute values,
// depends only on that element in every child and on a hash of its
// identity. So a function is given as the rule for one element, which the
// index builder runs over the pool's bits (graphpool.Pool.Combine). A
// child's hold on an element is a token: Absent when it does not hold it,
// else a name for the variant it holds — for an edge its endpoints, for an
// attribute its value — that two children share exactly when they hold the
// same one. A rule answers one of the children's tokens, or Absent.
type Differential interface {
	// Name identifies the function; skeleton metadata and checkpoints
	// record it.
	Name() string
	// Member decides the parent's hold on an element of the given kind
	// (graph.KindNode or graph.KindEdge) from the children's, oldest first.
	Member(kind graph.ElementKind, id int64, kids []int32) int32
	// Value decides the parent's value of the element's attribute attr
	// from the children's holds on the element (kids, as Member has them)
	// and on the attribute (vals).
	Value(kind graph.ElementKind, id int64, attr string, kids, vals []int32) int32
	// Elementwise reports that an element the same in every child is the
	// same in the parent, so that the builder decides only the elements
	// on which a child differs from the current graph and copies the rest.
	// A function that is not (Empty) is decided against the null graph.
	Elementwise() bool
}

// Absent is the token of an element or attribute a graph does not hold.
const Absent int32 = -1

// sampled reports whether an element's identity hashes below r: the
// paper's sampling of "half of the events" (Section 5.2), by identity so
// that the same elements are chosen for addition and removal.
func sampled(kind graph.ElementKind, id int64, attr string, r float64) bool {
	return graph.Hash01(graph.HashElement(kind, id, attr)) < r
}

// attrKind is the hashing kind of an attribute of an element of kind.
func attrKind(kind graph.ElementKind) graph.ElementKind {
	if kind == graph.KindEdge {
		return graph.KindEdgeAttr
	}
	return graph.KindNodeAttr
}

// Intersection keeps exactly the elements present in every child (with
// equal attribute values). Space-efficient, but on growing graphs it skews
// retrieval latencies toward older (smaller) snapshots; cf. Section 5.3.
type Intersection struct{}

// Name implements Differential.
func (Intersection) Name() string { return "intersection" }

// Elementwise implements Differential.
func (Intersection) Elementwise() bool { return true }

// Member implements Differential: held by every child, as the oldest holds
// it.
func (Intersection) Member(_ graph.ElementKind, _ int64, kids []int32) int32 {
	if slices.Contains(kids, Absent) {
		return Absent
	}
	return kids[0]
}

// Value implements Differential: the value every child gives, unless the
// oldest child holds the element and another does not, which takes its
// values with it.
func (Intersection) Value(_ graph.ElementKind, _ int64, _ string, kids, vals []int32) int32 {
	return intersectValue(kids, vals)
}

func intersectValue(kids, vals []int32) int32 {
	for _, v := range vals[1:] {
		if v != vals[0] {
			return Absent
		}
	}
	if kids[0] != Absent && slices.Contains(kids, Absent) {
		return Absent
	}
	return vals[0]
}

// Union keeps every element present in any child; attribute values are
// taken from the newest child that has the entry. Larger deltas on deletes,
// but the parent is a superset of every child.
type Union struct{}

// Name implements Differential.
func (Union) Name() string { return "union" }

// Elementwise implements Differential.
func (Union) Elementwise() bool { return true }

// Member implements Differential: as the newest child that holds it.
func (Union) Member(_ graph.ElementKind, _ int64, kids []int32) int32 { return newest(kids) }

// Value implements Differential: the newest child's that gives one.
func (Union) Value(_ graph.ElementKind, _ int64, _ string, _, vals []int32) int32 {
	return newest(vals)
}

func newest(holds []int32) int32 {
	for i := len(holds) - 1; i >= 0; i-- {
		if holds[i] != Absent {
			return holds[i]
		}
	}
	return Absent
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

// Member implements Differential.
func (Empty) Member(graph.ElementKind, int64, []int32) int32 { return Absent }

// Value implements Differential.
func (Empty) Value(graph.ElementKind, int64, string, []int32, []int32) int32 { return Absent }

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
//
// The parent is the oldest child folded forward over the others, one child
// at a time: acc ← acc + r1·(next − acc) − r2·(acc − next). Within a step the
// removals come first, and an element removed takes its values with it; a
// value is added only to an element the parent holds after the step's
// additions.
type Mixed struct {
	R1, R2 float64
}

// Name implements Differential.
func (m Mixed) Name() string { return fmt.Sprintf("mixed(%g,%g)", m.R1, m.R2) }

// Elementwise implements Differential.
func (Mixed) Elementwise() bool { return true }

// Member implements Differential.
func (m Mixed) Member(kind graph.ElementKind, id int64, kids []int32) int32 {
	in, _ := m.fold(kind, id, "", kids, nil)
	return in
}

// Value implements Differential.
func (m Mixed) Value(kind graph.ElementKind, id int64, attr string, kids, vals []int32) int32 {
	_, v := m.fold(kind, id, attr, kids, vals)
	return v
}

// fold folds the element, and with vals its attribute attr, forward over
// the children. A hash is taken only where a step needs it.
func (m Mixed) fold(kind graph.ElementKind, id int64, attr string, kids, vals []int32) (in, v int32) {
	in, v = kids[0], Absent
	if vals != nil {
		v = vals[0]
	}
	elem := func(r float64) bool { return sampled(kind, id, "", r) }
	value := func(r float64) bool { return sampled(attrKind(kind), id, attr, r) }
	for i := 1; i < len(kids); i++ {
		if in != Absent && kids[i] == Absent && elem(m.R2) {
			in, v = Absent, Absent
		}
		if v != Absent && vals[i] == Absent && value(m.R2) {
			v = Absent
		}
		if in == Absent && kids[i] != Absent && elem(m.R1) {
			in = kids[i]
		}
		if vals != nil && in != Absent && vals[i] != Absent && v != vals[i] && value(m.R1) {
			v = vals[i]
		}
	}
	return in, v
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

// Member implements Differential.
func (s RightSkewed) Member(kind graph.ElementKind, id int64, kids []int32) int32 {
	return skewMember(kind, id, kids, s.R, len(kids)-1)
}

// Value implements Differential.
func (s RightSkewed) Value(kind graph.ElementKind, id int64, attr string, kids, vals []int32) int32 {
	return skewValue(kind, id, attr, kids, vals, s.R, len(kids)-1)
}

// LeftSkewed is f(a,b) = a∩b + r·(a − a∩b): between the intersection and
// the oldest child.
type LeftSkewed struct{ R float64 }

// Name implements Differential.
func (s LeftSkewed) Name() string { return fmt.Sprintf("leftskewed(%g)", s.R) }

// Elementwise implements Differential.
func (LeftSkewed) Elementwise() bool { return true }

// Member implements Differential.
func (s LeftSkewed) Member(kind graph.ElementKind, id int64, kids []int32) int32 {
	return skewMember(kind, id, kids, s.R, 0)
}

// Value implements Differential.
func (s LeftSkewed) Value(kind graph.ElementKind, id int64, attr string, kids, vals []int32) int32 {
	return skewValue(kind, id, attr, kids, vals, s.R, 0)
}

// skewMember implements both skewed variants: the intersection of all
// children, and an r-sampled share of the anchor child's extras.
func skewMember(kind graph.ElementKind, id int64, kids []int32, r float64, anchor int) int32 {
	in := Intersection{}.Member(kind, id, kids)
	if in == Absent && kids[anchor] != Absent && sampled(kind, id, "", r) {
		in = kids[anchor]
	}
	return in
}

// skewValue is skewMember for an attribute, which is added only to an
// element the parent holds.
func skewValue(kind graph.ElementKind, id int64, attr string, kids, vals []int32, r float64, anchor int) int32 {
	v := intersectValue(kids, vals)
	if v == Absent && vals[anchor] != Absent && skewMember(kind, id, kids, r, anchor) != Absent && sampled(attrKind(kind), id, attr, r) {
		v = vals[anchor]
	}
	return v
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
