package graphpool

import "historygraph/internal/graph"

// FrozenView is a lock-free, immutable projection of a View for iterative
// analytics (the paper runs PageRank directly over the pool). Freezing
// resolves the union adjacency once and copies each element's relevant
// bitmap words inline; traversal then pays exactly one bitmap membership
// test per visited element — no locks, no pointer chasing — which is the
// cost the paper's bitmap-penalty experiment measures (Section 7: ~7% on
// PageRank). The PageRank kernel (internal/pregel) reads a view once, when
// a job loads its rows, so it pays that test once per element a job, not
// once per superstep.
//
// The projection reflects the pool at freeze time; graphs overlaid or
// released afterwards are not observed. Freeze again to refresh.
type FrozenView struct {
	nodes   []frozenNode
	adj     map[graph.NodeID][]frozenEdge
	numNode int
}

type frozenNode struct {
	id   graph.NodeID
	word uint64 // the bitmap word(s) the test needs, packed
}

type frozenEdge struct {
	other graph.NodeID
	word  uint64
}

// The packed word of a frozen element: the bits the view's membership test
// reads, moved to fixed positions at freeze time.
const (
	frozenExc = 1 << iota // the element is explicit in this graph …
	frozenMem             // … and this is its membership
	frozenDep             // membership in the dependency, inherited otherwise
)

func frozenMember(w uint64) bool {
	if w&frozenExc != 0 {
		return w&frozenMem != 0
	}
	return w&frozenDep != 0
}

// Freeze builds the lock-free projection of the view.
func (v *View) Freeze() *FrozenView {
	v.p.mu.RLock()
	defer v.p.mu.RUnlock()
	m := v.entry.m
	pack := func(b bitmap) (w uint64) {
		if m.exc < 0 || v.p.bit(b, m.exc) {
			w |= frozenExc
		}
		if v.p.bit(b, m.mem) {
			w |= frozenMem
		}
		if m.dep >= 0 && v.p.bit(b, m.dep) {
			w |= frozenDep
		}
		return w
	}
	f := &FrozenView{adj: make(map[graph.NodeID][]frozenEdge), numNode: v.entry.nodeCount}
	for id, pn := range v.p.nodes {
		f.nodes = append(f.nodes, frozenNode{id: id, word: pack(pn.bits())})
	}
	for _, pe := range v.p.records {
		w, info := pack(pe.bits()), v.p.info(pe)
		f.adj[info.From] = append(f.adj[info.From], frozenEdge{other: info.To, word: w})
		if info.To != info.From {
			f.adj[info.To] = append(f.adj[info.To], frozenEdge{other: info.From, word: w})
		}
	}
	return f
}

// NumNodes implements pregel.Graph.
func (f *FrozenView) NumNodes() int { return f.numNode }

// ForEachNode implements pregel.Graph.
func (f *FrozenView) ForEachNode(fn func(graph.NodeID) bool) {
	for _, n := range f.nodes {
		if frozenMember(n.word) {
			if !fn(n.id) {
				return
			}
		}
	}
}

// Neighbors implements pregel.Graph (allocating), one entry per edge.
func (f *FrozenView) Neighbors(n graph.NodeID) []graph.NodeID {
	var out []graph.NodeID
	for _, e := range f.adj[n] {
		if frozenMember(e.word) {
			out = append(out, e.other)
		}
	}
	return out
}
