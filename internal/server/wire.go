package server

// The model-to-wire step of every snapshot-shaped answer — one walk, the
// pool's ordered walk (graphpool.Ordered) over a view, for every answer an
// interval's included — and the time-expression parser.
// The wire types themselves live in internal/wire, one definition shared by
// the server handlers, the Go client, the shard coordinator's merge layer
// and the replication stream. A binary /snapshot body is written straight
// from the walk (wire.SnapshotWriter), a stream by the stream encoder; the
// other answers are filled into wire.Snapshot structs through structSink.

import (
	"fmt"
	"maps"
	"slices"
	"strconv"

	"historygraph"
	"historygraph/internal/graph"
	"historygraph/internal/graphpool"
	"historygraph/internal/wire"
)

// walkSnapshot is the one way a graph becomes a response: it gathers the
// elements of the view h that own keeps — a node by its own slot, an edge by
// its From endpoint's (the routing rule, so cluster-wide each edge is
// reported by exactly one owner) — and returns how many of each it kept, so
// counts and lists agree by construction, and, when full, the walk that
// hands them to a sink in ascending ID order, every node before the first
// edge.
// The whole-message responses write or append in their sinks, the stream
// response encodes in them, and the counts-only response gathers nothing
// unless own filters.
func walkSnapshot(h *historygraph.HistGraph, own *slotOwnership, full bool) (nodes, edges int, walk *graphpool.Ordered) {
	if !full && !own.filtering() {
		return h.NumNodes(), h.NumEdges(), nil
	}
	var keep func(graph.NodeID) bool
	if own.filtering() {
		keep = own.ownsNode
	}
	o := h.Order(keep)
	if !full {
		return o.NumNodes(), o.NumEdges(), nil
	}
	return o.NumNodes(), o.NumEdges(), o
}

// structSink fills the element lists of a wire.Snapshot from a walk: the
// answers encoded from structs (JSON, /batch, /expr, /interval) and the
// coordinator's merge inputs.
type structSink struct{ s *wire.Snapshot }

func (k structSink) PutNode(id graph.NodeID, attrs []graph.Attr) error {
	k.s.Nodes = append(k.s.Nodes, wire.Node{ID: int64(id), Attrs: attrMap(attrs)})
	return nil
}

func (k structSink) PutEdge(id graph.EdgeID, info graph.EdgeInfo, attrs []graph.Attr) error {
	k.s.Edges = append(k.s.Edges, wire.Edge{ID: int64(id), From: int64(info.From), To: int64(info.To), Directed: info.Directed, Attrs: attrMap(attrs)})
	return nil
}

func (structSink) EndRun() error { return nil }

// attrMap is the map of a walk's pairs: nil for nil.
func attrMap(attrs []graph.Attr) map[string]string {
	if attrs == nil {
		return nil
	}
	m := make(map[string]string, len(attrs))
	for _, a := range attrs {
		m[a.Name] = a.Value
	}
	return m
}

// snapshotOf builds the whole-message answer for h under own: counts
// always, the ID-sorted element lists when full.
func snapshotOf(h *historygraph.HistGraph, at historygraph.Time, full bool, own *slotOwnership) wire.Snapshot {
	out := wire.Snapshot{At: int64(at)}
	var walk *graphpool.Ordered
	out.NumNodes, out.NumEdges, walk = walkSnapshot(h, own, full)
	if walk != nil {
		// Non-nil even when empty: the binary codec tells the two apart.
		out.Nodes = make([]wire.Node, 0, out.NumNodes)
		out.Edges = make([]wire.Edge, 0, out.NumEdges)
		walk.Walk(wire.DefaultRunSize, structSink{&out})
	}
	return out
}

// binarySnapshot writes the binary whole-message answer for h under own
// straight from the walk; head carries its At and flags.
func binarySnapshot(h *historygraph.HistGraph, head wire.Snapshot, full bool, own *slotOwnership) *wire.SnapshotWriter {
	var walk *graphpool.Ordered
	head.NumNodes, head.NumEdges, walk = walkSnapshot(h, own, full)
	w := wire.NewSnapshotWriter(&head, full)
	if walk != nil {
		walk.Walk(wire.DefaultRunSize, w)
	}
	return w
}

// SnapshotToJSON converts a detached snapshot; full controls whether the
// element lists are included: in ascending ID order as snapshotOf writes
// them, non-nil even when empty, each element's values a copy of its map
// (nil where the snapshot holds none, empty where it holds an empty one).
func SnapshotToJSON(s *historygraph.Snapshot, at historygraph.Time, full bool) wire.Snapshot {
	out := wire.Snapshot{At: int64(at), NumNodes: len(s.Nodes), NumEdges: len(s.Edges)}
	if !full {
		return out
	}
	out.Nodes, out.Edges = make([]wire.Node, 0, len(s.Nodes)), make([]wire.Edge, 0, len(s.Edges))
	for _, id := range slices.Sorted(maps.Keys(s.Nodes)) {
		out.Nodes = append(out.Nodes, wire.Node{ID: int64(id), Attrs: maps.Clone(s.NodeAttrs[id])})
	}
	for _, id := range slices.Sorted(maps.Keys(s.Edges)) {
		info := s.Edges[id]
		out.Edges = append(out.Edges, wire.Edge{ID: int64(id), From: int64(info.From), To: int64(info.To), Directed: info.Directed, Attrs: maps.Clone(s.EdgeAttrs[id])})
	}
	return out
}

// ParseTimeExpr parses a Boolean expression over timepoint indices into a
// TimeExpr: "0", "!1", "0 & 1", "(0 | 1) & !2". Operators: | (or),
// & (and), ! (not); integers are Var indices into the request's Times
// list and must be < nvars.
func ParseTimeExpr(s string, nvars int) (historygraph.TimeExpr, error) {
	p := &exprParser{in: s, nvars: nvars}
	e, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.in) {
		return nil, fmt.Errorf("time expression: unexpected %q at offset %d", p.in[p.pos:], p.pos)
	}
	return e, nil
}

type exprParser struct {
	in    string
	pos   int
	nvars int
}

func (p *exprParser) skipSpace() {
	for p.pos < len(p.in) && (p.in[p.pos] == ' ' || p.in[p.pos] == '\t') {
		p.pos++
	}
}

func (p *exprParser) eat(c byte) bool {
	p.skipSpace()
	if p.pos < len(p.in) && p.in[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

func (p *exprParser) parseOr() (historygraph.TimeExpr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	terms := historygraph.Or{left}
	for p.eat('|') {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		terms = append(terms, right)
	}
	if len(terms) == 1 {
		return left, nil
	}
	return terms, nil
}

func (p *exprParser) parseAnd() (historygraph.TimeExpr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	terms := historygraph.And{left}
	for p.eat('&') {
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		terms = append(terms, right)
	}
	if len(terms) == 1 {
		return left, nil
	}
	return terms, nil
}

func (p *exprParser) parseUnary() (historygraph.TimeExpr, error) {
	if p.eat('!') {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return historygraph.Not{E: e}, nil
	}
	if p.eat('(') {
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if !p.eat(')') {
			return nil, fmt.Errorf("time expression: missing ')' at offset %d", p.pos)
		}
		return e, nil
	}
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.in) && p.in[p.pos] >= '0' && p.in[p.pos] <= '9' {
		p.pos++
	}
	if start == p.pos {
		return nil, fmt.Errorf("time expression: expected variable index at offset %d", start)
	}
	idx, err := strconv.Atoi(p.in[start:p.pos])
	if err != nil || idx >= p.nvars {
		return nil, fmt.Errorf("time expression: variable %q out of range (have %d timepoints)", p.in[start:p.pos], p.nvars)
	}
	return historygraph.Var(idx), nil
}
