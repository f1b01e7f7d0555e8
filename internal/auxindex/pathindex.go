// Package auxindex implements the paper's worked example of DeltaGraph
// extensibility (Section 4.7): a subgraph-pattern-matching index over
// node-labeled graphs that materializes all simple paths of four nodes,
// keyed by their label quartet. The index is maintained historically by
// the DeltaGraph aux machinery: its AuxDF uses intersection semantics, so
// a path associated with an interior node is present in every snapshot
// below it — a path on the root existed throughout the history.
package auxindex

import (
	"strconv"
	"strings"

	"historygraph/internal/deltagraph"
	"historygraph/internal/graph"
	"historygraph/internal/graphpool"
)

// PathLen is the indexed path length in nodes (the paper indexes paths of
// length 4).
const PathLen = 4

// PathIndex is a deltagraph.AuxIndex. It keeps no graph of its own: the
// neighbours and labels an event's paths need are read off the current
// graph CreateAuxEvents is handed, so an index reopened from a checkpoint
// answers as one that saw every event.
type PathIndex struct {
	// LabelAttr is the node attribute holding the label ("label" if
	// empty).
	LabelAttr string
}

// NewPathIndex creates the index.
func NewPathIndex(labelAttr string) *PathIndex {
	if labelAttr == "" {
		labelAttr = "label"
	}
	return &PathIndex{LabelAttr: labelAttr}
}

// Name implements deltagraph.AuxIndex.
func (p *PathIndex) Name() string { return "path4:" + p.LabelAttr }

// Path is one indexed occurrence: four distinct nodes connected in
// sequence.
type Path [PathLen]graph.NodeID

// Key renders the aux key for a path under the given labels:
// "l1/l2/l3/l4#n1,n2,n3,n4".
func pathKey(labels [PathLen]string, nodes Path) string {
	var sb strings.Builder
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte('/')
		}
		sb.WriteString(l)
	}
	sb.WriteByte('#')
	for i, n := range nodes {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.FormatInt(int64(n), 10))
	}
	return sb.String()
}

// LabelKeyPrefix renders the lookup prefix for a label quartet.
func LabelKeyPrefix(labels [PathLen]string) string {
	return strings.Join(labels[:], "/") + "#"
}

// ParsePathKey splits an aux key back into its path.
func ParsePathKey(key string) (Path, bool) {
	var path Path
	_, ids, ok := strings.Cut(key, "#")
	if !ok {
		return path, false
	}
	parts := strings.Split(ids, ",")
	if len(parts) != PathLen {
		return path, false
	}
	for i, s := range parts {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return path, false
		}
		path[i] = graph.NodeID(v)
	}
	return path, true
}

// CreateAuxEvents implements deltagraph.AuxIndex. g is the current graph
// before ev.
func (p *PathIndex) CreateAuxEvents(ev graph.Event, g *graphpool.View, _ deltagraph.AuxSnapshot) []deltagraph.AuxEvent {
	label := func(n graph.NodeID) string {
		l, _ := g.NodeAttr(n, p.LabelAttr)
		return l
	}
	u, v := ev.Node, ev.Node2
	switch ev.Type {
	case graph.SetNodeAttr:
		if ev.Attr == p.LabelAttr {
			return relabel(ev, g, label)
		}
	case graph.AddEdge:
		// Only the first edge between two nodes makes paths; a self-loop
		// is on no simple path.
		if u != v && edgesBetween(g, u, v) == 0 {
			return pathEvents(ev.At, pathsThroughEdge(g, u, v), label, deltagraph.AuxSet)
		}
	case graph.DelEdge:
		// Only the last edge between two nodes breaks them.
		if u != v && edgesBetween(g, u, v) == 1 {
			return pathEvents(ev.At, pathsThroughEdge(g, u, v), label, deltagraph.AuxDel)
		}
	}
	return nil
}

// edgesBetween counts g's edges between u and v, either way round.
func edgesBetween(g *graphpool.View, u, v graph.NodeID) int {
	n := 0
	for _, e := range g.IncidentEdges(u) {
		if info, ok := g.EdgeInfo(e); ok && info.Other(u) == v {
			n++
		}
	}
	return n
}

// relabel removes every path through the node under its old label and adds
// it back under the new one (an absent label is the empty one, as a path's
// key spells it). The other nodes' labels are g's.
func relabel(ev graph.Event, g *graphpool.View, label func(graph.NodeID) string) []deltagraph.AuxEvent {
	paths := pathsThroughNode(g, ev.Node)
	var out []deltagraph.AuxEvent
	for _, step := range [2]struct {
		own string
		op  deltagraph.AuxOp
	}{{ev.Old, deltagraph.AuxDel}, {ev.New, deltagraph.AuxSet}} {
		labelAs := func(n graph.NodeID) string {
			if n == ev.Node {
				return step.own
			}
			return label(n)
		}
		for _, path := range paths {
			out = append(out, pathEvent(ev.At, path, labelAs, step.op))
		}
	}
	return out
}

// pathEvent builds one aux event for a path.
func pathEvent(at graph.Time, path Path, label func(graph.NodeID) string, op deltagraph.AuxOp) deltagraph.AuxEvent {
	var labels [PathLen]string
	for i, n := range path {
		labels[i] = label(n)
	}
	ev := deltagraph.AuxEvent{At: at, Op: op, Key: pathKey(labels, path)}
	if op == deltagraph.AuxSet {
		ev.Val = "1"
	}
	return ev
}

// pathEvents emits one aux event per direction of each path (both
// directions are stored so a lookup never needs to reverse its quartet).
func pathEvents(at graph.Time, paths []Path, label func(graph.NodeID) string, op deltagraph.AuxOp) []deltagraph.AuxEvent {
	var out []deltagraph.AuxEvent
	for _, path := range paths {
		out = append(out, pathEvent(at, path, label, op))
		out = append(out, pathEvent(at, Path{path[3], path[2], path[1], path[0]}, label, op))
	}
	return out
}

// pathsThroughEdge lists the simple 4-node paths of g that would use an
// edge (u, v), each once (in one canonical direction; the caller adds the
// reverse). Whether g holds that edge yet does not change the list.
func pathsThroughEdge(g *graphpool.View, u, v graph.NodeID) []Path {
	var out []Path
	distinct := func(a, b, c, d graph.NodeID) bool {
		return a != b && a != c && a != d && b != c && b != d && c != d
	}
	// Edge in the middle: x-u-v-y.
	nv := g.Neighbors(v)
	for _, x := range g.Neighbors(u) {
		for _, y := range nv {
			if distinct(x, u, v, y) {
				out = append(out, Path{x, u, v, y})
			}
		}
	}
	// Edge at the end: u-v-x-y and v-u-x-y.
	for _, pair := range [2][2]graph.NodeID{{u, v}, {v, u}} {
		a, b := pair[0], pair[1]
		for _, x := range g.Neighbors(b) {
			if x == a || x == b {
				continue
			}
			for _, y := range g.Neighbors(x) {
				if distinct(a, b, x, y) {
					out = append(out, Path{a, b, x, y})
				}
			}
		}
	}
	return out
}

// pathsThroughNode lists the simple 4-node paths of g containing n, in both
// directions, each once.
func pathsThroughNode(g *graphpool.View, n graph.NodeID) []Path {
	seen := make(map[Path]struct{})
	var out []Path
	add := func(path Path) {
		if _, ok := seen[path]; !ok {
			seen[path] = struct{}{}
			out = append(out, path)
		}
	}
	// Paths where n is at each of the four positions.
	for _, a := range g.Neighbors(n) {
		for _, path := range pathsThroughEdge(g, n, a) {
			add(path)
			add(Path{path[3], path[2], path[1], path[0]})
		}
	}
	return out
}

// AuxDF implements deltagraph.AuxIndex with intersection semantics: a path
// survives to the parent iff it is present in every child.
func (p *PathIndex) AuxDF(children []deltagraph.AuxSnapshot) deltagraph.AuxSnapshot {
	if len(children) == 0 {
		return deltagraph.AuxSnapshot{}
	}
	out := deltagraph.AuxSnapshot{}
	for k, v := range children[0] {
		out[k] = v
	}
	for _, c := range children[1:] {
		for k := range out {
			if _, ok := c[k]; !ok {
				delete(out, k)
			}
		}
	}
	return out
}
