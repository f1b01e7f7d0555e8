package graphpool

import (
	"fmt"
	"slices"

	"historygraph/internal/bitset"
	"historygraph/internal/delta"
	"historygraph/internal/graph"
)

// Build is a graph under construction: bits the pool holds for a graph no
// view reads yet, which a retrieval writes into (Section 6) instead of
// building the graph elsewhere and copying it in. It begins as the empty
// graph or at an active one; deltas and events are applied to it in place,
// Fork copies it where a plan branches, and Commit enters it into the graph
// table. One goroutine drives a build, and each call holds the pool's write
// lock only for the bits it writes.
type Build struct {
	p *Pool
	e *graphEntry
}

// NewBuild begins a graph under construction: the empty graph when from is
// NoDependency, else the graph from (the current graph or a materialized
// one), either as a dependent of it with no exceptions or, unless dependent,
// copied onto a bit of its own. attrs are the options the graph is retrieved
// with: values of the attributes it does not ask for are not applied to it,
// and its views show none, inherited or copied.
func (p *Pool) NewBuild(from GraphID, dependent bool, attrs graph.AttrOptions) (*Build, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e := &graphEntry{kind: KindHistorical, dep: NoDependency, attrs: attrs}
	src := p.graphs[from]
	switch {
	case from == NoDependency:
	case src == nil || src.released:
		return nil, fmt.Errorf("graphpool: graph %d not active", from)
	case src.kind == KindHistorical:
		return nil, fmt.Errorf("graphpool: dependency must be the current graph or a materialized graph")
	case dependent:
		e.dep, e.bit = from, p.alloc(2)
		e.m = membership{exc: e.bit, mem: e.bit + 1, dep: src.bit}
		e.nodeCount, e.edgeCount = src.nodeCount, src.edgeCount
		src.dependents++
		return &Build{p, e}, nil
	}
	e.bit = p.alloc(1)
	e.m = membership{exc: -1, mem: e.bit, dep: -1}
	if src != nil {
		e.nodeCount, e.edgeCount = src.nodeCount, src.edgeCount
		p.copyBits(src.bit, e.bit, 1)
	}
	return &Build{p, e}, nil
}

// copyBits sets bit to+i on every element and attribute value that bit
// from+i is set on, for each i below n, in one scan of the pool; within
// word 0 a shift does it. The caller holds the write lock.
func (p *Pool) copyBits(from, to, n int) {
	inline, mask := from+n <= 64 && to+n <= 64, uint64(1)<<n-1
	cp := func(b bitmap) {
		if inline {
			w := p.word0(b)
			*w |= *w >> from & mask << to
		} else {
			p.copySpilled(b, from, to, n)
		}
	}
	for _, pn := range p.nodes {
		cp(pn.bits())
		attrs := pn.vals.all()
		for k := range attrs {
			cp(attrs[k].bits())
		}
	}
	for _, pe := range p.records {
		cp(pe.bits())
	}
	for _, l := range p.edgeVals {
		for k := range *l {
			cp((*l)[k].bits())
		}
	}
}

// copySpilled is copyBits for one bitmap, bit by bit.
func (p *Pool) copySpilled(b bitmap, from, to, n int) {
	for i := range n {
		if p.bit(b, from+i) {
			p.mark(b, to+i)
		}
	}
}

// Fork returns a second graph under construction where b stands now: b's
// bits copied onto bits of its own, across every element of the pool.
func (b *Build) Fork() *Build {
	p := b.p
	p.mu.Lock()
	defer p.mu.Unlock()
	e := *b.e
	e.bit = p.alloc(b.e.width())
	shift := e.bit - b.e.bit
	if e.m.mem += shift; e.m.exc >= 0 {
		e.m.exc += shift
		p.graphs[e.dep].dependents++
	}
	e.outNodes, e.outEdges = slices.Clone(e.outNodes), slices.Clone(e.outEdges)
	p.copyBits(b.e.bit, e.bit, b.e.width())
	return &Build{p, &e}
}

// ApplyDelta applies a delta, given in parts (one a partition), to b. The
// parts may come in any order: a record holds one pair's edge, so an edge id
// that a delta moves from one pair to another is deleted on the one record
// and added on the other, whichever partitions the two are in.
func (b *Build) ApplyDelta(parts ...*delta.Delta) {
	b.p.mu.Lock()
	defer b.p.mu.Unlock()
	for _, d := range parts {
		b.p.applyDelta(b.e, d)
	}
}

// ApplyEvents applies evs to b oldest first, or with back undoes them,
// newest first.
func (b *Build) ApplyEvents(evs []graph.Event, back bool) {
	b.p.mu.Lock()
	defer b.p.mu.Unlock()
	for i := range evs {
		if back {
			b.p.applyEvent(b.e, evs[len(evs)-1-i].Inverse())
		} else {
			b.p.applyEvent(b.e, evs[i])
		}
	}
}

// ApplyAdds applies the adds and sets among evs to b, oldest first, and
// leaves their deletes out: b becomes the union of what they add, as
// graph.Snapshot.Apply has it, so an edge added again on other endpoints is
// b's on the endpoints of its last add.
func (b *Build) ApplyAdds(evs []graph.Event) {
	p, e := b.p, b.e
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, ev := range evs {
		switch ev.Type {
		case graph.AddEdge:
			if pe := p.held(e.m, ev.Edge); pe != nil && p.info(pe) != (graph.EdgeInfo{From: ev.Node, To: ev.Node2, Directed: ev.Directed}) {
				e.edgeCount += p.put(e, pe.bits(), false)
				e.outEdges = append(e.outEdges, ev.Edge)
			}
			p.applyEvent(e, ev)
		case graph.AddNode, graph.SetNodeAttr, graph.SetEdgeAttr:
			p.applyEvent(e, ev)
		}
	}
}

// Commit enters b into the graph table as a graph of the given kind,
// retrieved for at, and returns its ID; b is spent. What the build took out
// again and no graph holds, a record or a value, leaves the pool first.
func (b *Build) Commit(kind GraphKind, at graph.Time) GraphID {
	p, e := b.p, b.e
	p.mu.Lock()
	defer p.mu.Unlock()
	p.sweepOut(e, &bitset.Bits{})
	e.outNodes, e.outEdges = nil, nil
	e.id, e.kind, e.at = p.nextID, kind, at
	p.nextID++
	p.graphs[e.id] = e
	return e.id
}

// Abort gives b up: its bits are reclaimed as a released graph's are. A
// graph just committed has no dependents, so releasing it cannot fail.
func (b *Build) Abort() {
	_ = b.p.Release(b.Commit(KindHistorical, 0))
}
