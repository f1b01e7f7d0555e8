package graphpool

import (
	"fmt"
	"math"
	"slices"

	"historygraph/internal/bitset"
	"historygraph/internal/delta"
	"historygraph/internal/graph"
)

// Combined is a parent graph Pool.Combine made, and the delta from it to
// each child.
type Combined struct {
	Parent *View
	// Deltas[i] builds the i-th child from the parent. Its records are in
	// the pool's record order, not sorted (delta.Delta.SortStable).
	Deltas []*delta.Delta
	// Grow is the parent's size, as graph.Snapshot.Size counts it, less
	// the first child's.
	Grow int
}

// nobody is the membership of the null graph: it holds no bit.
var nobody = membership{exc: -1, mem: math.MaxInt32, dep: -1}

// Combine enters into the pool, as a materialized graph, the parent the
// differential function f makes of the graphs kids, oldest first, and
// returns it with the delta from it to each child. It decides the parent in
// one walk of the pool: on every record and attribute value where some child
// differs from the base — the current graph, or the null graph for a
// function that is not element-wise — f decides the element from the
// children's bits, and the walk writes the parent's bit and each child's
// delta records; everywhere else the children agree with the base and so
// does the parent (delta.Differential), whose bit is the base's.
//
// The children marked spent are let go of. The parent takes over the lowest
// bit among them that is an explicit graph's no reader pins: it is written
// over that child where it differs from it, and nowhere else, and the bit
// never leaves the graphs' hands. The other spent children are released, and
// reclaimed with every released graph no reader pins. With no child to take
// over, the parent is written over a copy of the base on a bit of its own. A
// spent child's views must not be read again.
func (p *Pool) Combine(kids []GraphID, spent []bool, f delta.Differential) (Combined, error) {
	e := &graphEntry{kind: KindMaterialized, attrs: graph.AttrOptions{NodeAll: true, EdgeAll: true}}
	w, err := p.combine(e, kids, spent, f, true)
	if err != nil {
		return Combined{}, err
	}
	return Combined{Parent: &View{p: p, entry: e}, Deltas: w.out, Grow: w.grow}, nil
}

// Evaluate enters into the pool, as a historical graph retrieved with attrs,
// the graph f makes of the graphs kids, and returns its ID. It is Combine's
// walk with every child spent and no delta made: the graph takes over the
// lowest bit among them that is an explicit graph's no reader pins, else has
// one of its own, and the children are let go of.
func (p *Pool) Evaluate(kids []GraphID, f delta.Differential, attrs graph.AttrOptions) (GraphID, error) {
	e := &graphEntry{kind: KindHistorical, attrs: attrs}
	_, err := p.combine(e, kids, slices.Repeat([]bool{true}, len(kids)), f, false)
	return e.id, err
}

// combine is Combine's walk, under the write lock: it enters e, its kind and
// attributes set, into the pool, and makes the delta from it to each child
// if deltas is set.
func (p *Pool) combine(e *graphEntry, kids []GraphID, spent []bool, f delta.Differential, deltas bool) (combineWalk, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	entries, ms, over := make([]*graphEntry, len(kids)), make([]membership, len(kids)), -1
	for i, id := range kids {
		c := p.graphs[id]
		switch {
		case c == nil || c.released:
			return combineWalk{}, fmt.Errorf("graphpool: graph %d not active", id)
		case spent[i] && (c.kind == KindCurrent || c.dependents > 0):
			return combineWalk{}, fmt.Errorf("graphpool: graph %d cannot be let go of", id)
		case spent[i] && c.pins == 0 && c.m.exc < 0 && (over < 0 || c.bit < entries[over].bit):
			over = i
		}
		entries[i], ms[i] = c, c.m
	}
	base := nobody
	if f.Elementwise() {
		base = p.graphs[CurrentGraph].m
	}
	w := newCombineWalk(p, f, ms, base, deltas)
	if over >= 0 {
		e.bit = entries[over].bit
	} else if e.bit = p.alloc(1); base != nobody {
		p.copyBits(base.mem, e.bit, 1)
	}
	e.m, e.dep = membership{exc: -1, mem: e.bit, dep: -1}, NoDependency
	w.e = e

	// A graph that shows no value of a kind decides none: it only takes its
	// bit off the values of the child it took over, or of the base it is a
	// copy of, which a fresh bit carries nowhere else.
	w.strip = over >= 0 || base != nobody
	w.bareNodes, w.bareEdges = !e.attrs.AnyNodeAttrs(), !e.attrs.AnyEdgeAttrs()
	for _, pn := range p.nodes {
		w.node(pn)
	}
	for i, pe := range p.edgeSlab.all {
		switch differs, base := w.differs(pe.bits()); {
		case !pe.live():
		case len(p.alts) > 0: // an id's records are decided together, at its first
			if first, _ := p.edgeIdx.get(pe.id); first == i {
				w.record(pe.id, append([]uint32{i}, p.alts[pe.id]...))
			}
		case differs:
			w.record(pe.id, []uint32{i})
		case base: // no record of the id differs: the parent holds it as the base does
			w.edges++
		}
	}
	for id, l := range p.edgeVals {
		switch {
		case !w.bareEdges:
			w.edgeValues(id, l)
		case w.strip && w.clear(l.all()):
			e.outEdges = append(e.outEdges, id)
		}
	}

	p.sweepOut(e, &bitset.Bits{}) // what the parent took from the child it took over, and nothing holds
	e.outNodes, e.outEdges = nil, nil
	e.nodeCount, e.edgeCount = w.nodes, w.edges
	e.id = p.nextID
	p.nextID++
	p.graphs[e.id] = e
	for i, c := range entries {
		switch {
		case i == over:
			delete(p.graphs, kids[i])
		case spent[i]:
			c.released = true
		}
	}
	p.reclaim()
	return w, nil
}

// combineWalk is Combine's state: the children's and the base's membership
// tests, the parent's entry, and what the walk has made so far.
type combineWalk struct {
	p    *Pool
	f    delta.Differential
	kids []membership
	base membership
	// With every child and the base explicit graphs below bit 64, an inline
	// word holds a child as its bit in kidBits does, and the base as baseBit.
	inline           bool
	kidBits, baseBit uint64
	e                *graphEntry // written over a child, or a copy of the base
	// The children's holds on the element (in) and on one of its attributes
	// (vals) being decided: a node's token is 0, an edge's its record's
	// index, a value's its index in its attribute's run.
	in, vals []int32
	// The delta to each child, none if the walk makes none.
	out          []*delta.Delta
	grow         int
	nodes, edges int
	// The edge ids with values whose records differ, each with the
	// children's tokens and the parent's at holds[at:at+len(kids)+1], for
	// their values.
	decided map[graph.EdgeID]int
	holds   []int32
	// The parent shows no node (edge) value, and its bit may be on values
	// it has to take it off.
	bareNodes, bareEdges, strip bool
}

// newCombineWalk is the walk that tells the children kids from the base,
// making a delta to each if deltas is set.
func newCombineWalk(p *Pool, f delta.Differential, kids []membership, base membership, deltas bool) combineWalk {
	w := combineWalk{p: p, f: f, kids: kids, base: base, in: make([]int32, len(kids)), vals: make([]int32, len(kids)), inline: true, decided: map[graph.EdgeID]int{}}
	for _, m := range append([]membership{base}, kids...) {
		if m.exc >= 0 || (m.mem >= 64 && m != nobody) {
			w.inline = false
		}
	}
	for _, m := range kids {
		w.kidBits |= 1 << m.mem
		if deltas {
			w.out = append(w.out, &delta.Delta{})
		}
	}
	if base != nobody {
		w.baseBit = 1 << base.mem
	}
	return w
}

// differs reports whether a child holds what b is the bitmap of otherwise
// than the base does, and whether the base holds it. An inline word of
// explicit graphs it reads with two masks: has does not inline, and a call
// per graph made the walk half as slow again.
func (w *combineWalk) differs(b bitmap) (differs, base bool) {
	if !w.inline || b.spilled() {
		return w.differsAny(b)
	}
	want := uint64(0) // the children's bits, each as the base's
	if base = *b.first&w.baseBit != 0; base {
		want = w.kidBits
	}
	return *b.first&w.kidBits != want, base
}

// differsAny is differs for any bitmap and any graphs.
func (w *combineWalk) differsAny(b bitmap) (differs, base bool) {
	in := w.p.has(w.base, b)
	for _, m := range w.kids {
		if w.p.has(m, b) != in {
			return true, in
		}
	}
	return false, in
}

// anyDiffers reports whether a child differs from the base on a value in
// attrs.
func (w *combineWalk) anyDiffers(attrs []attrVal) bool {
	for i := range attrs {
		if d, _ := w.differs(attrs[i].bits()); d {
			return true
		}
	}
	return false
}

// put makes what b is the bitmap of a member of the parent, or not (in), and
// reports whether it took it out of what the parent is written over.
func (w *combineWalk) put(b bitmap, in bool) bool {
	bit := w.e.bit
	switch {
	case in && !b.spilled() && bit < 64:
		*b.first |= 1 << bit
	case in:
		w.p.mark(b, bit)
	case w.p.bit(b, bit):
		w.p.unmark(b, bit)
		return true
	}
	return false
}

// node decides node record pn and its values.
func (w *combineWalk) node(pn *poolNode) {
	attrs, out := pn.vals.all(), false
	if w.bareNodes {
		out, attrs = w.strip && w.clear(attrs), nil
	}
	if differs, base := w.differs(pn.bits()); !differs && !w.anyDiffers(attrs) {
		if base {
			w.nodes++
		}
		if out {
			w.e.outNodes = append(w.e.outNodes, pn.id)
		}
		return
	}
	for j, m := range w.kids {
		w.in[j] = delta.Absent
		if w.p.has(m, pn.bits()) {
			w.in[j] = 0
		}
	}
	in := w.f.Member(graph.KindNode, int64(pn.id), w.in)
	if in != delta.Absent {
		w.nodes++
	}
	out = w.put(pn.bits(), in != delta.Absent) || out
	w.count(in, w.in[0])
	for j, d := range w.out {
		switch kid := w.in[j]; {
		case kid != delta.Absent && in == delta.Absent:
			d.AddNodes = append(d.AddNodes, pn.id)
		case kid == delta.Absent && in != delta.Absent:
			d.DelNodes = append(d.DelNodes, pn.id)
		}
	}
	out = w.values(graph.KindNode, int64(pn.id), attrs, func(j int, attr, val string, set bool) {
		if d := w.out[j]; set {
			d.SetNodeAttrs = append(d.SetNodeAttrs, delta.NodeAttrRec{Node: pn.id, Attr: attr, Val: val})
		} else {
			d.DelNodeAttrs = append(d.DelNodeAttrs, delta.NodeAttrRec{Node: pn.id, Attr: attr})
		}
	}) || out
	if out {
		w.e.outNodes = append(w.e.outNodes, pn.id)
	}
}

// clear takes the parent's bit off every value in attrs and reports
// whether it took one off.
func (w *combineWalk) clear(attrs []attrVal) (out bool) {
	for i := range attrs {
		out = w.put(attrs[i].bits(), false) || out
	}
	return out
}

// count adds to grow what the parent holds (in) less what the first child
// holds (first) of one element or attribute.
func (w *combineWalk) count(in, first int32) {
	if in != delta.Absent {
		w.grow++
	}
	if first != delta.Absent {
		w.grow--
	}
}

// values decides each attribute of an element, given the children's holds
// on the element in w.in, and hands emit the records of child j's delta: a
// value the child gives and the parent does not (set), an attribute the
// parent gives and the child does not. It reports whether it took a value
// out of the child the parent is written over.
func (w *combineWalk) values(kind graph.ElementKind, id int64, attrs []attrVal, emit func(j int, attr, val string, set bool)) (out bool) {
	for lo := 0; lo < len(attrs); {
		hi := lo + 1
		for hi < len(attrs) && attrs[hi].name() == attrs[lo].name() {
			hi++
		}
		run := attrs[lo:hi]
		lo = hi
		for j, m := range w.kids {
			w.vals[j] = delta.Absent
			for k := range run {
				if w.p.has(m, run[k].bits()) {
					w.vals[j] = int32(k)
					break
				}
			}
		}
		attr := w.p.strs[run[0].name()]
		v := w.f.Value(kind, id, attr, w.in, w.vals)
		for k := range run {
			out = w.put(run[k].bits(), int32(k) == v) || out
		}
		w.count(v, w.vals[0])
		for j := range w.out {
			switch kid := w.vals[j]; {
			case kid != delta.Absent && kid != v:
				emit(j, attr, w.p.strs[run[kid].val], true)
			case kid == delta.Absent && v != delta.Absent:
				emit(j, attr, "", false)
			}
		}
	}
	return out
}

// record decides edge id, held on the records recs: the children's tokens
// are the records they hold it on.
func (w *combineWalk) record(id graph.EdgeID, recs []uint32) {
	differs, base := false, false
	for _, r := range recs {
		d, in := w.differs(w.p.edgeSlab.at(r).bits())
		differs, base = differs || d, base || in
	}
	if !differs {
		if base { // on one record: a graph holds an edge id on one at most
			w.edges++
		}
		return
	}
	for j, m := range w.kids {
		w.in[j] = w.heldOn(m, recs)
	}
	in := w.f.Member(graph.KindEdge, int64(id), w.in)
	if in != delta.Absent {
		w.edges++
	}
	out := false
	for _, r := range recs {
		out = w.put(w.p.edgeSlab.at(r).bits(), int32(r) == in) || out
	}
	if out {
		w.e.outEdges = append(w.e.outEdges, id)
	}
	w.count(in, w.in[0])
	for j, d := range w.out {
		if kid := w.in[j]; kid != in {
			if kid != delta.Absent {
				d.AddEdges = append(d.AddEdges, w.edgeRec(id, kid))
			}
			if in != delta.Absent {
				d.DelEdges = append(d.DelEdges, w.edgeRec(id, in))
			}
		}
	}
	if w.bareEdges || w.p.edgeVals[id] == nil {
		return
	}
	w.decided[id] = len(w.holds)
	w.holds = append(append(w.holds, w.in...), in)
}

// heldOn returns the record of recs that the graph with membership m holds,
// as a token.
func (w *combineWalk) heldOn(m membership, recs []uint32) int32 {
	for _, r := range recs {
		if w.p.has(m, w.p.edgeSlab.at(r).bits()) {
			return int32(r)
		}
	}
	return delta.Absent
}

// edgeRec is a delta's record of edge id held on the record token.
func (w *combineWalk) edgeRec(id graph.EdgeID, token int32) delta.EdgeRec {
	info := w.p.info(w.p.edgeSlab.at(uint32(token)))
	return delta.EdgeRec{ID: id, From: info.From, To: info.To, Directed: info.Directed}
}

// edgeValues decides the values of edge id, l. Where no record of the id
// differs, every child holds the edge as the base does, and so does the
// parent.
func (w *combineWalk) edgeValues(id graph.EdgeID, l *attrList) {
	attrs := l.all()
	at, decided := w.decided[id]
	if !decided && !w.anyDiffers(attrs) {
		return
	}
	in := delta.Absent
	if decided {
		copy(w.in, w.holds[at:])
		in = w.holds[at+len(w.kids)]
	} else {
		if first, ok := w.p.edgeIdx.get(id); ok {
			in = w.heldOn(w.base, append([]uint32{first}, w.p.alts[id]...))
		}
		for j := range w.in {
			w.in[j] = in
		}
	}
	// An attribute record carries the From of the edge as the child holds
	// it, else as the parent does (delta.Compute).
	from := func(j int) graph.NodeID {
		for _, t := range []int32{w.in[j], in} {
			if t != delta.Absent {
				return w.p.nodeSlab.at(w.p.edgeSlab.at(uint32(t)).from()).id
			}
		}
		return 0
	}
	out := w.values(graph.KindEdge, int64(id), attrs, func(j int, attr, val string, set bool) {
		if d := w.out[j]; set {
			d.SetEdgeAttrs = append(d.SetEdgeAttrs, delta.EdgeAttrRec{Edge: id, From: from(j), Attr: attr, Val: val})
		} else {
			d.DelEdgeAttrs = append(d.DelEdgeAttrs, delta.EdgeAttrRec{Edge: id, From: from(j), Attr: attr})
		}
	})
	if out {
		w.e.outEdges = append(w.e.outEdges, id)
	}
}
