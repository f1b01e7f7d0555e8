package graphpool

// The ordered walk: the one way a graph leaves the pool as a response. It
// gathers the records a view holds under one hold of the read lock, orders
// them by id in linear time, and hands them out a run at a time, taking the
// read lock again for each run, with each element's values as (name, value)
// pairs read off the string table: no map, no lookup by id and no lock per
// element. It has no other source: every graph a query answers with is a
// graph in the pool, an interval's included.

import "historygraph/internal/graph"

// Sink takes the elements of an ordered walk: every node, then every edge,
// each kind in ascending id order, an element's values as (name, value)
// pairs in ascending name order, nil when it shows none. attrs is scratch
// the walk reuses: a sink may keep the strings, never the slice. The walk
// holds the pool's read lock while it hands over a run, so PutNode and
// PutEdge call no pool method; EndRun is called after each run with the
// lock let go of, and may write to a network.
type Sink interface {
	PutNode(id graph.NodeID, attrs []graph.Attr) error
	PutEdge(id graph.EdgeID, info graph.EdgeInfo, attrs []graph.Attr) error
	EndRun() error
}

// Ordered is the elements of one graph an ownership test kept, gathered for
// an ordered walk: how many there are is known before the walk hands out
// the first.
type Ordered struct {
	nodes, edges []keyed
	v            *View
	scratch      []graph.Attr
	// The gathered endpoints of the edges of a graph that reads through
	// the current graph's bits, which can lose an element between runs (an
	// append deletes it, a leaf cut clears it and the slot is reused): its
	// elements are found again by id and its edges handed out as gathered,
	// as the per-element accessors do.
	live bool
	ends []graph.EdgeInfo
}

// keyed is a gathered element: its id, and where a pool keeps its record
// (for a live graph's edge, where ends keeps its endpoints).
type keyed struct {
	id  int64
	rec uint32
}

// NumNodes returns how many nodes the walk hands out.
func (o *Ordered) NumNodes() int { return len(o.nodes) }

// NumEdges returns how many edges the walk hands out.
func (o *Ordered) NumEdges() int { return len(o.edges) }

// Walk hands every gathered element to sink in ascending id order, nodes
// first, in runs of at most run elements (a run holds one kind; run <= 0
// hands each kind in one), calling sink.EndRun after each. A sink's error
// stops the walk.
func (o *Ordered) Walk(run int, sink Sink) error {
	if run <= 0 {
		run = max(len(o.nodes), len(o.edges), 1)
	}
	sortByKey(o.nodes, func(k *keyed) int64 { return k.id })
	sortByKey(o.edges, func(k *keyed) int64 { return k.id })
	for kind, list := range [2][]keyed{o.nodes, o.edges} {
		for lo := 0; lo < len(list); lo += run {
			if err := o.v.hand(o, kind == 0, list[lo:min(lo+run, len(list))], sink); err != nil {
				return err
			}
			if err := sink.EndRun(); err != nil {
				return err
			}
		}
	}
	return nil
}

// put adds the pair (name, value) to the pairs in o.scratch, kept in
// ascending name order: an element has a handful, so each goes in by
// insertion.
func (o *Ordered) put(name, value string) {
	o.scratch = append(o.scratch, graph.Attr{})
	i := len(o.scratch) - 1
	for ; i > 0 && o.scratch[i-1].Name > name; i-- {
		o.scratch[i] = o.scratch[i-1]
	}
	o.scratch[i] = graph.Attr{Name: name, Value: value}
}

// pairs returns the pairs put since the scratch was emptied, nil if none.
func (o *Ordered) pairs() []graph.Attr {
	if len(o.scratch) == 0 {
		return nil
	}
	return o.scratch
}

// Order gathers the elements of this graph that keep keeps — a node by its
// id, an edge by its From endpoint; nil keeps everything — under one hold
// of the read lock. keep is called under the lock, so it calls no pool
// method. The walk finds each record again by the slot it was gathered
// from, which keeps it while the view is acquired; a graph that reads
// through the current graph can lose one between runs, and its walk goes
// by id instead (Ordered.live).
func (v *View) Order(keep func(graph.NodeID) bool) *Ordered {
	p := v.p
	p.mu.RLock()
	defer p.mu.RUnlock()
	o := &Ordered{v: v, nodes: make([]keyed, 0, v.entry.nodeCount), edges: make([]keyed, 0, v.entry.edgeCount),
		live: v.entry.kind == KindCurrent || v.entry.dep == CurrentGraph}
	for i, pn := range p.nodeSlab.all {
		if pn.live() && v.has(pn.bits()) && (keep == nil || keep(pn.id)) {
			o.nodes = append(o.nodes, keyed{int64(pn.id), i})
		}
	}
	for i, pe := range p.edgeSlab.all {
		if pe.live() && v.has(pe.bits()) && (keep == nil || keep(p.nodeSlab.at(pe.from()).id)) {
			rec := i
			if o.live {
				rec, o.ends = uint32(len(o.ends)), append(o.ends, p.info(pe))
			}
			o.edges = append(o.edges, keyed{int64(pe.id), rec})
		}
	}
	return o
}

// shows reports whether this graph may show any node (else edge) value.
func (v *View) shows(node bool) bool {
	switch {
	case v.entry.kind != KindHistorical:
		return true
	case node:
		return v.entry.attrs.AnyNodeAttrs()
	}
	return v.entry.attrs.AnyEdgeAttrs()
}

// hand hands run, gathered elements of one kind, to sink under one hold of
// the read lock.
func (v *View) hand(o *Ordered, nodes bool, run []keyed, sink Sink) error {
	p := v.p
	p.mu.RLock()
	defer p.mu.RUnlock()
	show := v.shows(nodes)
	for _, k := range run {
		o.scratch = o.scratch[:0]
		if nodes {
			if show {
				pn := p.nodeSlab.at(k.rec)
				if o.live {
					pn = p.findNode(graph.NodeID(k.id))
				}
				if pn != nil && v.has(pn.bits()) {
					v.putValues(o, pn.vals, true)
				}
			}
			if err := sink.PutNode(graph.NodeID(k.id), o.pairs()); err != nil {
				return err
			}
			continue
		}
		id := graph.EdgeID(k.id)
		var info graph.EdgeInfo
		held := show
		if o.live {
			info = o.ends[k.rec]
			held = show && p.held(v.entry.m, id) != nil
		} else {
			info = p.info(p.edgeSlab.at(k.rec))
		}
		if held {
			v.putValues(o, p.edgeVals[id], false)
		}
		if err := sink.PutEdge(id, info, o.pairs()); err != nil {
			return err
		}
	}
	return nil
}

// putValues puts into o's scratch the value of each attribute in l this
// graph shows: the first of the name's values it holds, for the names it
// admits. The caller holds the read lock.
func (v *View) putValues(o *Ordered, l *attrList, node bool) {
	answered := noStr // values of one name are adjacent: the first member answers for it
	attrs := l.all()
	for i := range attrs {
		av := &attrs[i]
		if av.name() == answered || !v.has(av.bits()) {
			continue
		}
		answered = av.name()
		if name := v.p.strs[av.name()]; v.admits(node, name) {
			o.put(name, v.p.strs[av.val])
		}
	}
}

// sortByKey puts s in ascending order of key in linear time: a least
// significant digit radix sort, one stable pass for each byte of the key
// (its sign bit flipped, so that negative keys come first) in which some
// keys differ, which few do. A first pass finds those bytes, and leaves s
// as it is if it is in order already, as a pool's records often are.
func sortByKey[T any](s []T, key func(*T) int64) {
	if len(s) < 2 {
		return
	}
	u := func(x *T) uint64 { return uint64(key(x)) ^ 1<<63 }
	first, prev, differ, sorted := u(&s[0]), uint64(0), uint64(0), true
	for i := range s {
		k := u(&s[i])
		differ |= k ^ first
		sorted = sorted && k >= prev
		prev = k
	}
	if sorted {
		return
	}
	var shifts [8]uint
	n := 0
	for d := uint(0); d < 64; d += 8 {
		if differ>>d&0xff != 0 {
			shifts[n], n = d, n+1
		}
	}
	var counts [8][256]int
	for i := range s {
		k := u(&s[i])
		for j := range n {
			counts[j][byte(k>>shifts[j])]++
		}
	}
	src, dst := s, make([]T, len(s))
	for j := range n {
		c, shift := &counts[j], shifts[j]
		at := 0
		for b, m := range c {
			c[b], at = at, at+m
		}
		for i := range src {
			b := byte(u(&src[i]) >> shift)
			dst[c[b]] = src[i]
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &s[0] {
		copy(s, src)
	}
}
