package delta

import (
	"slices"

	"historygraph/internal/graph"
)

// combine is f's parent of children on maps: f's rules run on every element
// and attribute some child holds, as the index builder runs them on the
// pool's bits. Tokens are the distinct endpoints and values, in the order
// the children give them.
func combine(f Differential, children []*graph.Snapshot) *graph.Snapshot {
	out := graph.NewSnapshot()
	kids, vals := make([]int32, len(children)), make([]int32, len(children))
	decideValues := func(kind graph.ElementKind, id int64, of func(*graph.Snapshot) map[string]string) map[string]string {
		var names []string
		for _, c := range children {
			for k := range of(c) {
				if !slices.Contains(names, k) {
					names = append(names, k)
				}
			}
		}
		var attrs map[string]string
		for _, name := range names {
			var seen []string
			for i, c := range children {
				vals[i] = Absent
				if v, ok := of(c)[name]; ok {
					if slices.Index(seen, v) < 0 {
						seen = append(seen, v)
					}
					vals[i] = int32(slices.Index(seen, v))
				}
			}
			if v := f.Value(kind, id, name, kids, vals); v != Absent {
				if attrs == nil {
					attrs = make(map[string]string)
				}
				attrs[name] = seen[v]
			}
		}
		return attrs
	}
	nodes, edges := map[graph.NodeID]bool{}, map[graph.EdgeID]bool{}
	for _, c := range children {
		for n := range c.Nodes {
			nodes[n] = true
		}
		for n := range c.NodeAttrs {
			nodes[n] = true
		}
		for e := range c.Edges {
			edges[e] = true
		}
		for e := range c.EdgeAttrs {
			edges[e] = true
		}
	}
	for n := range nodes {
		for i, c := range children {
			kids[i] = Absent
			if _, ok := c.Nodes[n]; ok {
				kids[i] = 0
			}
		}
		if f.Member(graph.KindNode, int64(n), kids) != Absent {
			out.Nodes[n] = struct{}{}
		}
		if attrs := decideValues(graph.KindNode, int64(n), func(s *graph.Snapshot) map[string]string { return s.NodeAttrs[n] }); attrs != nil {
			out.NodeAttrs[n] = attrs
		}
	}
	for e := range edges {
		var infos []graph.EdgeInfo
		for i, c := range children {
			kids[i] = Absent
			if info, ok := c.Edges[e]; ok {
				if slices.Index(infos, info) < 0 {
					infos = append(infos, info)
				}
				kids[i] = int32(slices.Index(infos, info))
			}
		}
		if in := f.Member(graph.KindEdge, int64(e), kids); in != Absent {
			out.Edges[e] = infos[in]
		}
		if attrs := decideValues(graph.KindEdge, int64(e), func(s *graph.Snapshot) map[string]string { return s.EdgeAttrs[e] }); attrs != nil {
			out.EdgeAttrs[e] = attrs
		}
	}
	return out
}
