package deltagraph

import (
	"maps"

	"historygraph/internal/graph"
)

// A pending node's graph is held as a patch against a base: the images of the
// elements on which the two differ. A node is born on the current graph,
// where the invariant every holder keeps is
//
//	absent from the patch ⇒ equal to the current graph
//
// (the converse need not hold: an image may repeat what the current graph
// says). appendLocked maintains it by saving an element's image into every
// such node that lacks one just before the first event of a leaf window
// changes that element, and Open builds it the same way along its walk to
// the current graph (walkPending); a parent is then evaluated over the elements its
// children hold images of and over nothing else (makeParentLocked). Such a
// patch grows with every element changed since the node was made, whatever
// the node holds. On the null graph (pendingChild.onNull) the patch is the
// node's graph,
//
//	absent from the patch ⇒ absent from the node
//
// no append touches it, and a parent over it is evaluated over everything the
// current graph holds as well. settleLocked moves a node from the first base
// to the second, once and never back, when the patch has outgrown the node:
// it runs on a parent as it is made, on every pending node at a leaf cut and
// at the end of Open. Nothing stored depends on which base a node is held on.

// elem names one element: a node with its attributes, or an edge with its
// endpoints and attributes. It is the unit the differential functions decide
// by (delta.Differential.Elementwise).
type elem struct {
	edge bool
	id   int64
}

func nodeElem(n graph.NodeID) elem { return elem{id: int64(n)} }
func edgeElem(e graph.EdgeID) elem { return elem{edge: true, id: int64(e)} }

// image is the state of one element in one graph. Images are never written
// after they are made, so pending nodes share them by pointer.
type image struct {
	present bool
	info    graph.EdgeInfo    // an edge's endpoints
	attrs   map[string]string // nil when the element has none
}

// absent is the image of an element a graph does not hold at all.
var absent = &image{}

// patch maps the elements a graph differs from its base on to their images in
// that graph.
type patch map[elem]*image

// imageIn reads x out of s. The attributes alias s's own map.
func imageIn(s *graph.Snapshot, x elem) image {
	if x.edge {
		info, ok := s.Edges[graph.EdgeID(x.id)]
		return image{present: ok, info: info, attrs: s.EdgeAttrs[graph.EdgeID(x.id)]}
	}
	_, ok := s.Nodes[graph.NodeID(x.id)]
	return image{present: ok, attrs: s.NodeAttrs[graph.NodeID(x.id)]}
}

// size counts the image's elements as graph.Snapshot.Size does.
func (im image) size() int {
	if im.present {
		return 1 + len(im.attrs)
	}
	return len(im.attrs)
}

// records counts what delta.Compute writes to turn o into im: 0 when the two
// are equal, and summed over a graph's elements the delta's Len.
func (im image) records(o image) int {
	n := 0
	if im.present != o.present {
		n = 1
	} else if im.info != o.info {
		n = 2 // a delete and a re-add
	}
	for k, v := range im.attrs {
		if ov, ok := o.attrs[k]; !ok || ov != v {
			n++
		}
	}
	for k := range o.attrs {
		if _, ok := im.attrs[k]; !ok {
			n++
		}
	}
	return n
}

// shared returns a pointer to im fit for a patch, the one absent image when
// im holds nothing.
func (im image) shared() *image {
	if !im.present && len(im.attrs) == 0 {
		return absent
	}
	return &im
}

// putIn makes x in s what the image says. The attributes are aliased, not
// copied: s must be read-only for as long as it lives.
func (im image) putIn(s *graph.Snapshot, x elem) {
	if x.edge {
		e := graph.EdgeID(x.id)
		if im.present {
			s.Edges[e] = im.info
		} else {
			delete(s.Edges, e)
		}
		if len(im.attrs) > 0 {
			s.EdgeAttrs[e] = im.attrs
		} else {
			delete(s.EdgeAttrs, e)
		}
		return
	}
	n := graph.NodeID(x.id)
	if im.present {
		s.Nodes[n] = struct{}{}
	} else {
		delete(s.Nodes, n)
	}
	if len(im.attrs) > 0 {
		s.NodeAttrs[n] = im.attrs
	} else {
		delete(s.NodeAttrs, n)
	}
}

// eachElem calls fn once for every element s holds anything of.
func eachElem(s *graph.Snapshot, fn func(elem)) {
	for n := range s.Nodes {
		fn(nodeElem(n))
	}
	for n := range s.NodeAttrs {
		if _, ok := s.Nodes[n]; !ok {
			fn(nodeElem(n))
		}
	}
	for e := range s.Edges {
		fn(edgeElem(e))
	}
	for e := range s.EdgeAttrs {
		if _, ok := s.Edges[e]; !ok {
			fn(edgeElem(e))
		}
	}
}

// imageCur reads x out of the current graph, which is the pool's. The
// attributes are a map of the caller's own.
func (dg *DeltaGraph) imageCur(x elem) (im image) {
	if x.edge {
		im.info, im.present, im.attrs = dg.cur.EdgeImage(graph.EdgeID(x.id))
	} else {
		im.present, im.attrs = dg.cur.NodeImage(graph.NodeID(x.id))
	}
	return im
}

// eachCur calls fn once for every element the current graph holds anything of.
// It walks the pool's view: eachElem over a View.Snapshot of it copies the
// graph to name its ids (BenchmarkAppend ran 22 % slower on that). fn runs under the
// pool's read lock and may not read the current graph.
func (dg *DeltaGraph) eachCur(fn func(elem)) {
	dg.cur.ForEachHeld(func(n graph.NodeID) { fn(nodeElem(n)) }, func(e graph.EdgeID) { fn(edgeElem(e)) })
}

// settleLocked is the rule for a pending node's base: a patch with more entries
// than the node's graph has records costs more than the graph does, so the
// node is held from the null graph from then on. Afterwards the patch has an
// entry for each element of the node, never more than its records.
func (dg *DeltaGraph) settleLocked(c *pendingChild) {
	if len(c.patch) > c.size {
		dg.rebaseLocked(c)
	}
}

// settlePendingLocked runs the rule on every pending node.
func (dg *DeltaGraph) settlePendingLocked() {
	for _, level := range dg.pending {
		for i := range level {
			dg.settleLocked(&level[i])
		}
	}
}

// rebaseLocked moves c from the current graph to the null graph: its patch
// keeps the images that hold something and gains the current graph's image of
// every element it did not name. Nothing else may hold c's patch.
func (dg *DeltaGraph) rebaseLocked(c *pendingChild) {
	if c.onNull {
		return
	}
	var same []elem // no more of them than c has elements
	dg.eachCur(func(x elem) {
		if _, ok := c.patch[x]; !ok {
			same = append(same, x)
		}
	})
	maps.DeleteFunc(c.patch, func(_ elem, im *image) bool { return im.size() == 0 })
	whole := make(patch, len(c.patch)+len(same)) // made anew: a map that has shrunk keeps its size
	maps.Copy(whole, c.patch)
	for _, x := range same {
		whole[x] = dg.imageCur(x).shared()
	}
	c.patch, c.onNull = whole, true
}

// attrCur returns the value the current graph gives one attribute of x. An
// element that is there answers for itself; the whole image is read only for
// one that is not, which may hold values all the same.
func (dg *DeltaGraph) attrCur(x elem, name string) (string, bool) {
	if x.edge && dg.cur.HasEdge(graph.EdgeID(x.id)) {
		return dg.cur.EdgeAttr(graph.EdgeID(x.id), name)
	}
	if !x.edge && dg.cur.HasNode(graph.NodeID(x.id)) {
		return dg.cur.NodeAttr(graph.NodeID(x.id), name)
	}
	val, ok := dg.imageCur(x).attrs[name]
	return val, ok
}

// graphOf makes base, a graph of the caller's own, into c's whole graph and
// returns it: for a node on the null graph base is the null graph, for one on
// the current graph a copy of that whose four outer maps are the caller's (and
// cost as much as the graph has elements). The result is read-only: attribute
// maps alias the patch's, and base's may alias the caller's. It is for
// Checkpoint, which compares every pending node with its first leaf whole; a
// read applies the patch step without it (retrieve.go). Given the null graph
// for a node on the current one, it returns c's graph cut down to the
// elements of its patch.
func graphOf(c pendingChild, base *graph.Snapshot) *graph.Snapshot {
	for x, im := range c.patch {
		im.putIn(base, x)
	}
	return base
}

// patchOf is graphOf's inverse: the patch that holds g against the current
// graph cur. Open calls it for the pending nodes of a layout 3 or 4
// checkpoint, which stores the current graph whole; it walks both graphs.
func patchOf(g, cur *graph.Snapshot) patch {
	p := make(patch)
	eachElem(g, func(x elem) {
		if im := imageIn(g, x); im.records(imageIn(cur, x)) > 0 {
			p[x] = im.shared()
		}
	})
	eachElem(cur, func(x elem) {
		if imageIn(g, x).size() == 0 {
			p[x] = absent
		}
	})
	return p
}
