package server

// The model-to-wire step of every snapshot-shaped answer — one walk — and
// the time-expression parser. The wire types themselves live in
// internal/wire, one definition shared by the server handlers, the Go
// client, the shard coordinator's merge layer and the replication stream.

import (
	"fmt"
	"strconv"

	"historygraph"
	"historygraph/internal/wire"
)

// elements is what the snapshot walk reads from: a pooled view
// (*historygraph.HistGraph has these methods already) or a detached
// snapshot through the detached adapter.
type elements interface {
	NumNodes() int
	NumEdges() int
	ForEachNode(func(historygraph.NodeID) bool)
	ForEachEdge(func(historygraph.EdgeID, historygraph.EdgeInfo) bool)
	NodeAttrs(historygraph.NodeID) map[string]string
	EdgeAttrs(historygraph.EdgeID) map[string]string
}

// detached gives a set-based snapshot the accessors of a view.
type detached struct{ s *historygraph.Snapshot }

func (d detached) NumNodes() int { return len(d.s.Nodes) }
func (d detached) NumEdges() int { return len(d.s.Edges) }
func (d detached) ForEachNode(fn func(historygraph.NodeID) bool) {
	for n := range d.s.Nodes {
		if !fn(n) {
			return
		}
	}
}
func (d detached) ForEachEdge(fn func(historygraph.EdgeID, historygraph.EdgeInfo) bool) {
	for e, info := range d.s.Edges {
		if !fn(e, info) {
			return
		}
	}
}
func (d detached) NodeAttrs(n historygraph.NodeID) map[string]string { return d.s.NodeAttrs[n] }
func (d detached) EdgeAttrs(e historygraph.EdgeID) map[string]string { return d.s.EdgeAttrs[e] }

// walkSnapshot is the one way a graph becomes a response: it hands the
// elements of src that own keeps — a node by its own slot, an edge by its
// From endpoint's (the routing rule, so cluster-wide each edge is reported
// by exactly one owner) — to the sinks in ascending ID order, every node
// before the first edge, and returns how many of each it kept, so counts
// and lists agree by construction. The whole-message response appends in
// its sinks, the stream response encodes in them, and the counts-only
// response passes none (both or neither). A sink's error stops the walk.
func walkSnapshot(src elements, own *slotOwnership, node func(wire.Node) error, edge func(wire.Edge) error) (nodes, edges int, err error) {
	if node == nil && !own.filtering() {
		return src.NumNodes(), src.NumEdges(), nil
	}
	collect := node != nil
	var ids []historygraph.NodeID
	var ends []wire.Edge // endpoints now, in the one pass over the source; attributes when its turn comes
	if collect {
		ids = make([]historygraph.NodeID, 0, src.NumNodes())
		ends = make([]wire.Edge, 0, src.NumEdges())
	}
	src.ForEachNode(func(n historygraph.NodeID) bool {
		if own.ownsNode(n) {
			nodes++
			if collect {
				ids = append(ids, n)
			}
		}
		return true
	})
	src.ForEachEdge(func(e historygraph.EdgeID, info historygraph.EdgeInfo) bool {
		if own.ownsNode(info.From) {
			edges++
			if collect {
				ends = append(ends, wire.Edge{ID: int64(e), From: int64(info.From), To: int64(info.To), Directed: info.Directed})
			}
		}
		return true
	})
	if !collect {
		return nodes, edges, nil
	}
	sortByKey(ids, func(n *historygraph.NodeID) int64 { return int64(*n) })
	for _, n := range ids {
		if err := node(wire.Node{ID: int64(n), Attrs: src.NodeAttrs(n)}); err != nil {
			return nodes, edges, err
		}
	}
	sortByKey(ends, func(e *wire.Edge) int64 { return e.ID })
	for _, e := range ends {
		e.Attrs = src.EdgeAttrs(historygraph.EdgeID(e.ID))
		if err := edge(e); err != nil {
			return nodes, edges, err
		}
	}
	return nodes, edges, nil
}

// sortByKey puts s in ascending order of key in linear time: a least
// significant digit radix sort, one stable pass for each byte of the key
// (its sign bit flipped, so that negative keys come first) but for the bytes
// every key has alike, which most are.
func sortByKey[T any](s []T, key func(*T) int64) {
	if len(s) < 2 {
		return
	}
	digit := func(x *T, d int) byte { return byte((uint64(key(x)) ^ 1<<63) >> (8 * d)) }
	var counts [8][256]int
	for i := range s {
		for d := range counts {
			counts[d][digit(&s[i], d)]++
		}
	}
	src, dst := s, make([]T, len(s))
	for d := range counts {
		c := &counts[d]
		if c[digit(&src[0], d)] == len(s) {
			continue
		}
		at := 0
		for b, n := range c {
			c[b], at = at, at+n
		}
		for i := range src {
			b := digit(&src[i], d)
			dst[c[b]] = src[i]
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &s[0] {
		copy(s, src)
	}
}

// snapshotOf builds the whole-message answer for src under own: counts
// always, the ID-sorted element lists when full.
func snapshotOf(src elements, at historygraph.Time, full bool, own *slotOwnership) wire.Snapshot {
	out := wire.Snapshot{At: int64(at)}
	if !full {
		out.NumNodes, out.NumEdges, _ = walkSnapshot(src, own, nil, nil)
		return out
	}
	// Non-nil even when empty: the binary codec tells the two apart.
	out.Nodes = make([]wire.Node, 0, src.NumNodes())
	out.Edges = make([]wire.Edge, 0, src.NumEdges())
	out.NumNodes, out.NumEdges, _ = walkSnapshot(src, own,
		func(n wire.Node) error { out.Nodes = append(out.Nodes, n); return nil },
		func(e wire.Edge) error { out.Edges = append(out.Edges, e); return nil })
	return out
}

// SnapshotToJSON converts a detached snapshot; full controls whether the
// element lists are included.
func SnapshotToJSON(s *historygraph.Snapshot, at historygraph.Time, full bool) wire.Snapshot {
	return snapshotOf(detached{s}, at, full, nil)
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
