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

// PathIndex is a deltagraph.AuxIndex. It maintains its own adjacency and
// label mirror of the current graph (fed by CreateAuxEvents in event
// order), so deriving the aux events for one plain event does not rescan
// the snapshot.
type PathIndex struct {
	// LabelAttr is the node attribute holding the label ("label" if
	// empty).
	LabelAttr string

	adj    map[graph.NodeID]map[graph.NodeID]int // neighbor -> parallel edge count
	labels map[graph.NodeID]string
}

// NewPathIndex creates the index.
func NewPathIndex(labelAttr string) *PathIndex {
	if labelAttr == "" {
		labelAttr = "label"
	}
	return &PathIndex{
		LabelAttr: labelAttr,
		adj:       make(map[graph.NodeID]map[graph.NodeID]int),
		labels:    make(map[graph.NodeID]string),
	}
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

// CreateAuxEvents implements deltagraph.AuxIndex.
func (p *PathIndex) CreateAuxEvents(ev graph.Event, _ *graphpool.View, _ deltagraph.AuxSnapshot) []deltagraph.AuxEvent {
	switch ev.Type {
	case graph.AddNode:
		// No paths yet; label arrives as an attribute event.
		return nil
	case graph.DelNode:
		delete(p.labels, ev.Node)
		delete(p.adj, ev.Node) // incident edges were already deleted
		return nil
	case graph.SetNodeAttr:
		if ev.Attr != p.LabelAttr {
			return nil
		}
		return p.relabel(ev)
	case graph.AddEdge:
		if ev.Node == ev.Node2 {
			return nil // self-loops form no simple path
		}
		first := p.link(ev.Node, ev.Node2) == 1
		if !first {
			return nil // a parallel edge adds no new node paths
		}
		return p.pathEvents(ev.At, ev.Node, ev.Node2, deltagraph.AuxSet)
	case graph.DelEdge:
		if ev.Node == ev.Node2 {
			return nil
		}
		// Enumerate while the edge is still in the mirror, then unlink.
		var out []deltagraph.AuxEvent
		if p.adj[ev.Node][ev.Node2] == 1 {
			out = p.pathEvents(ev.At, ev.Node, ev.Node2, deltagraph.AuxDel)
		}
		p.unlink(ev.Node, ev.Node2)
		return out
	}
	return nil
}

func (p *PathIndex) link(u, v graph.NodeID) int {
	if p.adj[u] == nil {
		p.adj[u] = make(map[graph.NodeID]int)
	}
	if p.adj[v] == nil {
		p.adj[v] = make(map[graph.NodeID]int)
	}
	p.adj[u][v]++
	p.adj[v][u] = p.adj[u][v]
	return p.adj[u][v]
}

func (p *PathIndex) unlink(u, v graph.NodeID) {
	if m := p.adj[u]; m != nil {
		if m[v] <= 1 {
			delete(m, v)
		} else {
			m[v]--
		}
	}
	if m := p.adj[v]; m != nil {
		if m[u] <= 1 {
			delete(m, u)
		} else {
			m[u]--
		}
	}
}

// relabel removes all paths through the node under its old label and
// re-adds them under the new one.
func (p *PathIndex) relabel(ev graph.Event) []deltagraph.AuxEvent {
	var out []deltagraph.AuxEvent
	if ev.HadOld {
		p.labels[ev.Node] = ev.Old
		for _, path := range p.pathsThroughNode(ev.Node) {
			out = append(out, p.pathEvent(ev.At, path, deltagraph.AuxDel))
		}
	}
	if ev.HasNew {
		p.labels[ev.Node] = ev.New
		for _, path := range p.pathsThroughNode(ev.Node) {
			out = append(out, p.pathEvent(ev.At, path, deltagraph.AuxSet))
		}
	} else {
		delete(p.labels, ev.Node)
	}
	return out
}

// pathEvent builds one aux event for a path (labels looked up live).
func (p *PathIndex) pathEvent(at graph.Time, path Path, op deltagraph.AuxOp) deltagraph.AuxEvent {
	var labels [PathLen]string
	for i, n := range path {
		labels[i] = p.labels[n]
	}
	ev := deltagraph.AuxEvent{At: at, Op: op, Key: pathKey(labels, path)}
	if op == deltagraph.AuxSet {
		ev.Val = "1"
	}
	return ev
}

// pathEvents enumerates every simple 4-node path using edge (u, v) and
// emits one aux event per direction (both directions are stored so a
// lookup never needs to reverse its quartet).
func (p *PathIndex) pathEvents(at graph.Time, u, v graph.NodeID, op deltagraph.AuxOp) []deltagraph.AuxEvent {
	var out []deltagraph.AuxEvent
	for _, path := range p.pathsThroughEdge(u, v) {
		out = append(out, p.pathEvent(at, path, op))
		out = append(out, p.pathEvent(at, Path{path[3], path[2], path[1], path[0]}, op))
	}
	return out
}

// pathsThroughEdge lists simple 4-node paths containing edge (u, v), each
// once (in one canonical direction; the caller adds the reverse).
func (p *PathIndex) pathsThroughEdge(u, v graph.NodeID) []Path {
	var out []Path
	distinct := func(a, b, c, d graph.NodeID) bool {
		return a != b && a != c && a != d && b != c && b != d && c != d
	}
	// Edge in the middle: x-u-v-y.
	for x := range p.adj[u] {
		for y := range p.adj[v] {
			if distinct(x, u, v, y) {
				out = append(out, Path{x, u, v, y})
			}
		}
	}
	// Edge at the end: u-v-x-y and v-u-x-y.
	for _, pair := range [2][2]graph.NodeID{{u, v}, {v, u}} {
		a, b := pair[0], pair[1]
		for x := range p.adj[b] {
			if x == a {
				continue
			}
			for y := range p.adj[x] {
				if distinct(a, b, x, y) {
					out = append(out, Path{a, b, x, y})
				}
			}
		}
	}
	return out
}

// pathsThroughNode lists simple 4-node paths containing n (each once per
// direction-canonical orientation; used for relabeling, where both
// directions are handled by the caller emitting per-direction keys).
func (p *PathIndex) pathsThroughNode(n graph.NodeID) []Path {
	seen := make(map[Path]struct{})
	var out []Path
	add := func(path Path) {
		if _, ok := seen[path]; !ok {
			seen[path] = struct{}{}
			out = append(out, path)
		}
	}
	// Paths where n is at each of the four positions.
	for a := range p.adj[n] {
		for _, path := range p.pathsThroughEdge(n, a) {
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
