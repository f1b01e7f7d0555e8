package deltagraph

import (
	"fmt"

	"historygraph/internal/delta"
	"historygraph/internal/graph"
)

// This file is the oracle for index construction: the differential
// functions as the maps they were written on before the builder decided
// parents by the element in the pool (graphpool.Pool.Combine). Each takes
// whole graph.Snapshot children and builds the parent the paper's Table 2
// describes; the construction tests hold every parent the pool walk makes,
// and every delta it writes, to these.

// combine is f's parent of children, built on maps.
func combine(f delta.Differential, children []*graph.Snapshot) *graph.Snapshot {
	var r float64
	switch fn := f.(type) {
	case delta.Intersection:
		return intersectMaps(children)
	case delta.Union:
		return unionMaps(children)
	case delta.Empty:
		return graph.NewSnapshot()
	case delta.Mixed:
		return mixedMaps(fn, children)
	case delta.RightSkewed:
		return skewMaps(children, fn.R, len(children)-1)
	case delta.LeftSkewed:
		return skewMaps(children, fn.R, 0)
	}
	switch name := f.Name(); {
	case name == "balanced":
		return mixedMaps(delta.Mixed{R1: 0.5, R2: 0.5}, children)
	case fmtScan(name, "skewed(%g)", &r):
		return mixedMaps(delta.Mixed{R1: r, R2: r}, children)
	}
	panic("combine: no oracle for " + f.Name())
}

func fmtScan(s, format string, r *float64) bool {
	n, err := fmt.Sscanf(s, format, r)
	return err == nil && n == 1
}

func intersectMaps(children []*graph.Snapshot) *graph.Snapshot {
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

func unionMaps(children []*graph.Snapshot) *graph.Snapshot {
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

func mixedMaps(m delta.Mixed, children []*graph.Snapshot) *graph.Snapshot {
	if len(children) == 0 {
		return graph.NewSnapshot()
	}
	out := children[0].Clone()
	for _, next := range children[1:] {
		foldMaps(m, out, next)
	}
	return out
}

func foldMaps(m delta.Mixed, acc, next *graph.Snapshot) {
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

func skewMaps(children []*graph.Snapshot, r float64, anchor int) *graph.Snapshot {
	if len(children) == 0 {
		return graph.NewSnapshot()
	}
	out := intersectMaps(children)
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
