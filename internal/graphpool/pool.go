// Package graphpool implements GraphPool (Section 6 of the paper): an
// in-memory structure that maintains many graphs — the current graph,
// retrieved historical snapshots, and materialized DeltaGraph nodes —
// overlaid non-redundantly on a single union graph.
//
// Every element (node, edge, and each distinct attribute value) carries a
// bitmap that records which of the active graphs contain it. Bits 0 and 1
// are reserved for the current graph: bit 0 is current membership; bit 1
// marks elements recently deleted from the current graph that are not yet
// flushed into the DeltaGraph index. A graph overlaid explicitly — a
// retrieved snapshot or a materialized graph — is assigned one bit, its
// membership; a dependent graph a pair {b, b+1}. Graphs get the lowest free
// bits, so that while they fit bits 2–63 no element's bitmap needs a word
// beyond the one in its record.
//
// The bit pair enables the paper's dependent-graph optimization: a
// historical graph close to a materialized graph (or the current graph)
// stores only its exceptions. Bit b set means "explicit: bit b+1 is the
// membership"; bit b clear means "inherit membership from the dependency".
// Only exception elements are touched when such a graph is overlaid.
package graphpool

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"historygraph/internal/bitset"
	"historygraph/internal/delta"
	"historygraph/internal/graph"
)

// GraphID identifies one active graph in the pool. The current graph is
// always CurrentGraph.
type GraphID int

// CurrentGraph is the GraphID of the always-present current graph.
const CurrentGraph GraphID = 0

// NoDependency marks a historical graph stored explicitly.
const NoDependency GraphID = -1

// GraphKind classifies the active graphs (the "Graph" column of the
// paper's GraphID-bit mapping table).
type GraphKind uint8

// Graph kinds.
const (
	KindCurrent GraphKind = iota
	KindHistorical
	KindMaterialized
)

func (k GraphKind) String() string {
	switch k {
	case KindCurrent:
		return "Current"
	case KindHistorical:
		return "Hist. Graph"
	case KindMaterialized:
		return "Mat. Graph"
	}
	return "?"
}

// attrVal is one value of one attribute with the bitmap of graphs holding
// it. The name is an index into Pool.names.
type attrVal struct {
	name uint32
	val  string
	bm   bitset.Bits
}

// element is what the pool keeps of a node, and the head of what it keeps
// of an edge: the bitmap of graphs the element is in and every attribute
// value any graph gives it, in one list. Values of one name are adjacent,
// in the order they were first seen. The list is held by pointer, nil until
// a graph gives the element a value: most edges are bare, and a nil
// pointer is 8 bytes of record where an empty slice is 24.
type element struct {
	bm   bitset.Bits
	vals *[]attrVal
}

// poolNode is the record of a node: the element, and the ids of the edge
// records at the node, each once. A node that only an edge record names
// has one too, with no bits and no values, for as long as the edge is there.
type poolNode struct {
	element
	adj []graph.EdgeID
}

type poolEdge struct {
	element
	info graph.EdgeInfo
}

// attrs returns the element's attribute values.
func (el *element) attrs() []attrVal {
	if el.vals == nil {
		return nil
	}
	return *el.vals
}

// grown returns s with room for one more element, grown by an eighth when
// it is full: append's doubling would leave the ten-attribute node of a
// typical trace paying for sixteen. The capacity is rounded up to what the
// allocator hands out for it anyway.
func grown[E any](s []E) []E {
	if n := len(s); n == cap(s) {
		return append(slices.Grow([]E(nil), n+1+n/8), s...)
	}
	return s
}

// run returns the bounds of the values of name in el.attrs() (both
// len(el.attrs()) when there are none).
func (el *element) run(name uint32) (lo, hi int) {
	attrs := el.attrs()
	for lo < len(attrs) && attrs[lo].name != name {
		lo++
	}
	for hi = lo; hi < len(attrs) && attrs[hi].name == name; hi++ {
	}
	return lo, hi
}

// set marks the value val of name with each of bits, adding it behind the
// other values of that name if it is new.
func (el *element) set(name uint32, val string, bits ...int) {
	attrs := el.attrs()
	i, hi := el.run(name)
	for i < hi && attrs[i].val != val {
		i++
	}
	if i == hi {
		if el.vals == nil {
			el.vals = new([]attrVal) // not &attrs: that would allocate on every call
		}
		attrs = append(grown(attrs), attrVal{})
		copy(attrs[i+1:], attrs[i:])
		attrs[i] = attrVal{name: name, val: val}
		*el.vals = attrs
	}
	for _, b := range bits {
		attrs[i].bm.Set(b)
	}
}

// setAll is set for every pair of attrs.
func (p *Pool) setAll(el *element, attrs map[string]string, bit int) {
	if el.vals == nil && len(attrs) > 0 {
		el.vals = new([]attrVal)
		*el.vals = make([]attrVal, 0, len(attrs))
	}
	for k, v := range attrs {
		el.set(p.nameID(k), v, bit)
	}
}

// except makes every value of name an exception the graph owning the pair
// {exc, member} does not hold.
func (el *element) except(name uint32, exc, member int) {
	attrs := el.attrs()
	for i, hi := el.run(name); i < hi; i++ {
		attrs[i].bm.Set(exc)
		attrs[i].bm.Clear(member)
	}
}

// clear clears the bits of mask on the element and on its attribute values,
// drops the values no graph holds any more and returns how many that was.
func (el *element) clear(mask *bitset.Bits) int {
	el.bm.AndNot(mask)
	attrs := el.attrs()
	kept := attrs[:0]
	for i := range attrs {
		av := &attrs[i]
		if av.bm.AndNot(mask); av.bm.Any() {
			kept = append(kept, *av)
		}
	}
	removed := len(attrs) - len(kept)
	clear(attrs[len(kept):])
	if len(kept) == 0 {
		el.vals = nil
	} else {
		*el.vals = kept
	}
	return removed
}

// dead reports whether no graph holds the element or any value of it.
func (el *element) dead() bool { return el.vals == nil && !el.bm.Any() }

// dead reports whether the node record is dead as an element and no edge
// record is at the node.
func (pn *poolNode) dead() bool { return len(pn.adj) == 0 && pn.element.dead() }

// membership is a graph's membership test with its bits resolved, so that
// evaluating it needs neither the graph table nor the dependency's entry.
// exc < 0: every element is explicit (the current graph, a materialized
// one); dep < 0: no dependency to inherit from.
type membership struct{ exc, mem, dep int }

func (m membership) has(bm *bitset.Bits) bool {
	if m.exc < 0 || bm.Get(m.exc) {
		return bm.Get(m.mem)
	}
	return m.dep >= 0 && bm.Get(m.dep)
}

type graphEntry struct {
	id         GraphID
	kind       GraphKind
	bit        int // first bit; the current graph and a dependent one also own bit+1
	m          membership
	dep        GraphID
	attrs      graph.AttrOptions // what a dependent graph was retrieved with
	at         graph.Time
	released   bool
	dependents int
	pins       int
	nodeCount  int
	edgeCount  int
}

// Pool is the GraphPool. It is safe for concurrent use; retrieval overlays
// take the write lock, view reads take the read lock.
type Pool struct {
	mu     sync.RWMutex
	nodes  map[graph.NodeID]*poolNode
	edges  map[graph.EdgeID]*poolEdge
	graphs map[GraphID]*graphEntry
	nextID GraphID
	// An edge id names one pair of nodes for life (graph.EdgeID), and a
	// history that gives an id to another pair later is held all the same:
	// alts has the records of such an id after the first, one for each
	// further pair, for as long as a graph holds the edge between them. They
	// carry membership alone; the attribute values of an id are on edges[id].
	alts map[graph.EdgeID][]*poolEdge
	// Attribute names, interned: an attrVal holds an index into names.
	names   []string
	nameIDs map[string]uint32
	// The bits graphs hold: a released graph's are free again once a clean
	// pass has cleared them on every element.
	taken bitset.Bits
	// The elements bit 1 was set on since the last ClearRecent, on the
	// element or on a value of it (one entry per delete, so an element
	// deleted twice is listed twice).
	recentNodes []graph.NodeID
	recentEdges []graph.EdgeID
	// ApproxBytes as a Cleaner last sampled it: a walk of the whole pool,
	// which a metrics scrape must not pay for.
	sampledBytes atomic.Int64
}

// New returns an empty pool containing only the (empty) current graph.
func New() *Pool {
	p := &Pool{
		nodes:   make(map[graph.NodeID]*poolNode),
		edges:   make(map[graph.EdgeID]*poolEdge),
		alts:    make(map[graph.EdgeID][]*poolEdge),
		graphs:  make(map[GraphID]*graphEntry),
		nameIDs: make(map[string]uint32),
		nextID:  1,
	}
	p.graphs[CurrentGraph] = &graphEntry{id: CurrentGraph, kind: KindCurrent, m: membership{exc: -1, mem: 0, dep: -1}, dep: NoDependency}
	p.alloc(2) // bits 0 and 1
	return p
}

// width returns how many bits the graph holds from its first on: two for
// the current graph (bit 1 is its recent deletes) and a dependent graph,
// one for a graph overlaid explicitly.
func (e *graphEntry) width() int {
	if e.kind == KindCurrent || e.m.exc >= 0 {
		return 2
	}
	return 1
}

// alloc takes the lowest n adjacent bits no graph holds and returns the
// first. A bit past 63 costs every element the graph marks a word beyond
// the one in its record, so before handing one out alloc reclaims what
// released graphs hold and looks again: a released graph a reader still
// pins keeps its bits, and only then does the new graph spill. The caller
// holds the write lock.
func (p *Pool) alloc(n int) int {
	bit := p.lowestFree(n)
	if bit+n > 64 {
		p.reclaim() // whatever it evicted, a released graph's bits may be free now
		bit = p.lowestFree(n)
	}
	for b := bit; b < bit+n; b++ {
		p.taken.Set(b)
	}
	return bit
}

// lowestFree returns the first of the lowest n adjacent bits no graph holds.
func (p *Pool) lowestFree(n int) int {
	bit := 0
	for b := 0; b < bit+n; b++ {
		if p.taken.Get(b) {
			bit = b + 1
		}
	}
	return bit
}

// register enters a new graph of the given kind into the graph table: one
// bit for a graph with no dependency, a pair for a dependent one. The
// caller holds the write lock.
func (p *Pool) register(kind GraphKind, dep GraphID, at graph.Time) *graphEntry {
	entry := &graphEntry{id: p.nextID, kind: kind, dep: dep, at: at}
	if dep == NoDependency {
		entry.bit = p.alloc(1)
		entry.m = membership{exc: -1, mem: entry.bit, dep: -1}
	} else {
		entry.bit = p.alloc(2)
		entry.m = membership{exc: entry.bit, mem: entry.bit + 1, dep: -1}
	}
	p.nextID++
	p.graphs[entry.id] = entry
	return entry
}

func (p *Pool) node(id graph.NodeID) *poolNode {
	n := p.nodes[id]
	if n == nil {
		n = &poolNode{}
		p.nodes[id] = n
	}
	return n
}

// edge returns the record of edge id between the endpoints info, made if
// there is none. The first record of an id may be there for the attribute
// values alone — a history may set an attribute on an edge it never added, or
// on one it deleted — and what such a record says of the endpoints binds no
// graph (bit 1 aside, which is read by nobody): it takes info in their place.
// One that a graph does hold the edge of keeps its endpoints for that graph,
// and the id gets a further record.
func (p *Pool) edge(id graph.EdgeID, info graph.EdgeInfo) *poolEdge {
	e := p.edges[id]
	fresh := e == nil
	if !fresh && e.info == info {
		return e
	}
	for _, alt := range p.alts[id] {
		if alt.info == info {
			return alt
		}
	}
	switch {
	case fresh:
		e = &poolEdge{info: info}
		p.edges[id] = e
	case e.bm.AnyExcept(1):
		e = &poolEdge{info: info}
		p.alts[id] = append(p.alts[id], e)
	default:
		old := e.info
		e.info = info
		p.unlink(id, old)
	}
	for _, n := range ends(info) {
		if pn := p.node(n); fresh || !slices.Contains(pn.adj, id) {
			pn.adj = append(grown(pn.adj), id)
		}
	}
	return e
}

// adjacent returns the ids of the edge records at node n.
func (p *Pool) adjacent(n graph.NodeID) []graph.EdgeID {
	if pn := p.nodes[n]; pn != nil {
		return pn.adj
	}
	return nil
}

// ends returns the nodes info joins, each once.
func ends(info graph.EdgeInfo) []graph.NodeID {
	if info.To == info.From {
		return []graph.NodeID{info.From}
	}
	return []graph.NodeID{info.From, info.To}
}

// held returns the record of edge id that a graph with the membership test m
// holds the edge on, nil if it does not hold the edge.
func (p *Pool) held(m membership, id graph.EdgeID) *poolEdge {
	first := p.edges[id]
	if first == nil || m.has(&first.bm) {
		return first
	}
	for _, alt := range p.alts[id] {
		if m.has(&alt.bm) {
			return alt
		}
	}
	return nil
}

// values returns the element that holds the attribute values of edge id, its
// first record, made between no nodes yet if the pool knows nothing of id.
func (p *Pool) values(id graph.EdgeID) *element {
	if first := p.edges[id]; first != nil {
		return &first.element
	}
	return &p.edge(id, graph.EdgeInfo{}).element
}

// records yields every record of every edge id.
func (p *Pool) records(yield func(graph.EdgeID, *poolEdge) bool) {
	for id, first := range p.edges {
		if !yield(id, first) {
			return
		}
	}
	for id, alts := range p.alts {
		for _, alt := range alts {
			if !yield(id, alt) {
				return
			}
		}
	}
}

// nameID interns an attribute name. The caller holds the write lock.
func (p *Pool) nameID(name string) uint32 {
	id, ok := p.nameIDs[name]
	if !ok {
		id = uint32(len(p.names))
		p.names = append(p.names, name)
		p.nameIDs[name] = id
	}
	return id
}

// markAll marks every element and attribute value of s with bit and
// records s's size as entry's — the whole of what overlaying an explicit
// graph means. The caller holds the write lock.
func (p *Pool) markAll(entry *graphEntry, s *graph.Snapshot, bit int) {
	for n := range s.Nodes {
		p.node(n).bm.Set(bit)
	}
	for e, info := range s.Edges {
		p.edge(e, info).bm.Set(bit)
	}
	for n, attrs := range s.NodeAttrs {
		p.setAll(&p.node(n).element, attrs, bit)
	}
	for e, attrs := range s.EdgeAttrs {
		p.setAll(p.values(e), attrs, bit)
	}
	entry.nodeCount = len(s.Nodes)
	entry.edgeCount = len(s.Edges)
}

// OverlaySnapshot registers a retrieved historical snapshot, overlaying
// every element explicitly (no dependency). at records the query timepoint
// for the mapping table.
func (p *Pool) OverlaySnapshot(s *graph.Snapshot, at graph.Time) GraphID {
	p.mu.Lock()
	defer p.mu.Unlock()
	entry := p.register(KindHistorical, NoDependency, at)
	p.markAll(entry, s, entry.bit)
	return entry.id
}

// OverlayMaterialized registers a materialized DeltaGraph node's graph
// (which may not be a valid snapshot of any time point) under a single bit.
func (p *Pool) OverlayMaterialized(s *graph.Snapshot) GraphID {
	p.mu.Lock()
	defer p.mu.Unlock()
	entry := p.register(KindMaterialized, NoDependency, 0)
	p.markAll(entry, s, entry.bit)
	return entry.id
}

// OverlayDependent registers a historical graph stored as exceptions
// relative to dep (a materialized graph or the current graph): d is the
// delta that transforms dep's graph into the snapshot being registered.
// Only the exception elements are touched — the optimization the bit pair
// exists for. attrs are the options the snapshot was retrieved with: the
// dependency may hold attributes the snapshot did not ask for, and views
// of the new graph must not inherit those.
func (p *Pool) OverlayDependent(dep GraphID, d *delta.Delta, at graph.Time, attrs graph.AttrOptions) (GraphID, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	depEntry, ok := p.graphs[dep]
	if !ok || depEntry.released {
		return 0, fmt.Errorf("graphpool: dependency graph %d not active", dep)
	}
	if depEntry.kind == KindHistorical {
		return 0, fmt.Errorf("graphpool: dependency must be the current graph or a materialized graph")
	}
	entry := p.register(KindHistorical, dep, at)
	entry.attrs, entry.m.dep = attrs, depEntry.bit
	depEntry.dependents++

	exc, member := entry.bit, entry.bit+1
	explicit := func(bm *bitset.Bits, in bool) {
		bm.Set(exc)
		bm.SetTo(member, in)
	}
	for _, n := range d.AddNodes {
		explicit(&p.node(n).bm, true)
	}
	for _, n := range d.DelNodes {
		explicit(&p.node(n).bm, false)
	}
	for _, e := range d.AddEdges {
		explicit(&p.edge(e.ID, graph.EdgeInfo{From: e.From, To: e.To, Directed: e.Directed}).bm, true)
	}
	for _, e := range d.DelEdges {
		explicit(&p.edge(e.ID, graph.EdgeInfo{From: e.From, To: e.To, Directed: e.Directed}).bm, false)
	}
	// A set or deleted attribute excludes every value the element has under
	// that name; a set one then includes the new value.
	for _, rec := range d.SetNodeAttrs {
		pn, name := p.node(rec.Node), p.nameID(rec.Attr)
		pn.except(name, exc, member)
		pn.set(name, rec.Val, exc, member)
	}
	for _, rec := range d.DelNodeAttrs {
		p.node(rec.Node).except(p.nameID(rec.Attr), exc, member)
	}
	for _, rec := range d.SetEdgeAttrs {
		pe, name := p.values(rec.Edge), p.nameID(rec.Attr)
		pe.except(name, exc, member)
		pe.set(name, rec.Val, exc, member)
	}
	for _, rec := range d.DelEdgeAttrs {
		if pe, ok := p.edges[rec.Edge]; ok {
			pe.except(p.nameID(rec.Attr), exc, member)
		}
	}
	entry.nodeCount = depEntry.nodeCount + len(d.AddNodes) - len(d.DelNodes)
	entry.edgeCount = depEntry.edgeCount + len(d.AddEdges) - len(d.DelEdges)
	return entry.id, nil
}

// sweepNode clears the bits of mask on a node and its attribute values and
// evicts what no graph holds any more; it returns the number of values and
// elements evicted. The caller holds the write lock.
func (p *Pool) sweepNode(id graph.NodeID, pn *poolNode, mask *bitset.Bits) int {
	removed := pn.clear(mask)
	if pn.dead() {
		delete(p.nodes, id)
		removed++
	}
	return removed
}

// sweepEdge is sweepNode for the records of an edge id, which also leave the
// adjacency lists and may take an endpoint's record with them. A first
// record that no graph holds the edge of takes the place of a further one:
// it is where the id's values are.
func (p *Pool) sweepEdge(id graph.EdgeID, first *poolEdge, mask *bitset.Bits) int {
	removed := first.clear(mask)
	for i := len(p.alts[id]) - 1; i >= 0; i-- {
		if alt := p.alts[id][i]; alt.clear(mask) == 0 && alt.dead() {
			p.alts[id] = slices.Delete(p.alts[id], i, i+1)
			removed += 1 + p.unlink(id, alt.info)
		}
	}
	if alts, old := p.alts[id], first.info; len(alts) > 0 && !first.bm.Any() {
		first.bm, first.info, p.alts[id] = alts[0].bm, alts[0].info, alts[1:]
		removed += 1 + p.unlink(id, old)
	} else if first.dead() {
		delete(p.edges, id)
		removed += 1 + p.unlink(id, old)
	}
	if len(p.alts[id]) == 0 {
		delete(p.alts, id) // nil or emptied: no entry
	}
	return removed
}

// sweepAll sweeps every element of the pool.
func (p *Pool) sweepAll(mask *bitset.Bits) int {
	removed := 0
	for id, pn := range p.nodes {
		removed += p.sweepNode(id, pn, mask)
	}
	for id, pe := range p.edges {
		removed += p.sweepEdge(id, pe, mask)
	}
	return removed
}

// LoadCurrent seeds the current graph (bit 0) from a full snapshot; used
// when an index checkpoint is reopened. Any previous current-graph content
// is unmarked first.
func (p *Pool) LoadCurrent(s *graph.Snapshot) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var mask bitset.Bits
	mask.Set(0)
	p.sweepAll(&mask)
	p.markAll(p.graphs[CurrentGraph], s, 0)
}

// retire takes the values at el.attrs()[lo:hi] that the current graph holds out
// of it (bit 0 to bit 1) and reports whether there were any.
func (el *element) retire(lo, hi int) (any bool) {
	attrs := el.attrs()
	for i := lo; i < hi; i++ {
		if bm := &attrs[i].bm; bm.Get(0) {
			bm.Clear(0)
			bm.Set(1)
			any = true
		}
	}
	return any
}

// ApplyEvent updates the current graph in place (bits 0 and 1), to the
// letter of graph.Snapshot.Apply for every event the index admits (an add of
// an element that is there is not one): a delete takes the element's
// attribute values with it, an attribute may be set on an element that is
// not there, and an edge added again has the endpoints the add names,
// whatever another graph holds the id between. What leaves keeps bit 1 set
// until ClearRecent is called, marking it as "recently deleted but not yet in
// the DeltaGraph index".
func (p *Pool) ApplyEvent(ev graph.Event) {
	p.mu.Lock()
	defer p.mu.Unlock()
	cur := p.graphs[CurrentGraph]
	// put moves an element into or out of the current graph and keeps count.
	put := func(el *element, count *int, in bool) {
		if in && !el.bm.Get(0) {
			*count++
		} else if !in && el.bm.Get(0) {
			*count--
		}
		el.bm.SetTo(0, in)
		if !in {
			el.bm.Set(1)
			el.retire(0, len(el.attrs()))
		}
	}
	// setAttr takes the current value of the attribute out of the current
	// graph and puts the new one, if any, in; it reports whether a value left.
	setAttr := func(el *element) (deleted bool) {
		name := p.nameID(ev.Attr)
		deleted = el.retire(el.run(name))
		if ev.HasNew {
			el.set(name, ev.New, 0)
		}
		return deleted
	}
	switch ev.Type {
	case graph.AddNode:
		put(&p.node(ev.Node).element, &cur.nodeCount, true)
	case graph.DelNode:
		put(&p.node(ev.Node).element, &cur.nodeCount, false)
		p.recentNodes = append(p.recentNodes, ev.Node)
	case graph.AddEdge:
		put(&p.edge(ev.Edge, graph.EdgeInfo{From: ev.Node, To: ev.Node2, Directed: ev.Directed}).element, &cur.edgeCount, true)
	case graph.DelEdge:
		if pe := p.held(cur.m, ev.Edge); pe != nil {
			put(&pe.element, &cur.edgeCount, false)
		}
		if first := p.edges[ev.Edge]; first != nil {
			first.retire(0, len(first.attrs()))
		}
		p.recentEdges = append(p.recentEdges, ev.Edge)
	case graph.SetNodeAttr:
		if setAttr(&p.node(ev.Node).element) {
			p.recentNodes = append(p.recentNodes, ev.Node)
		}
	case graph.SetEdgeAttr:
		if setAttr(p.values(ev.Edge)) {
			p.recentEdges = append(p.recentEdges, ev.Edge)
		}
	}
}

// ClearRecent clears bit 1 wherever it is set: the recently deleted elements
// are now covered by the on-disk index (called after a leaf-eventlist
// flush). It visits the elements marked since the last call and nothing
// else, evicts those of them no graph holds any more — in a pool nobody
// reads from there is never a released graph for CleanNow to find them by —
// and returns how many marks there were.
func (p *Pool) ClearRecent() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	var mask bitset.Bits
	mask.Set(1)
	for _, id := range p.recentNodes {
		if pn := p.nodes[id]; pn != nil {
			p.sweepNode(id, pn, &mask)
		}
	}
	for _, id := range p.recentEdges {
		if pe := p.edges[id]; pe != nil {
			p.sweepEdge(id, pe, &mask)
		}
	}
	n := len(p.recentNodes) + len(p.recentEdges)
	p.recentNodes, p.recentEdges = p.recentNodes[:0], p.recentEdges[:0]
	return n
}

// Pin takes a reference on an active graph: a pinned graph survives
// CleanNow even after Release, so callers holding long-lived Views (the
// server's hot-snapshot cache) can guarantee the bits stay valid while a
// read is in flight. Pinning a released graph is an error.
func (p *Pool) Pin(id GraphID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	entry, ok := p.graphs[id]
	if !ok || entry.released {
		return fmt.Errorf("graphpool: graph %d not active", id)
	}
	entry.pins++
	return nil
}

// Unpin drops a reference taken with Pin. Once a released graph's pin
// count reaches zero the next CleanNow reclaims it. Unpinning works on
// released-but-not-yet-cleaned graphs so readers can finish after an
// eviction.
func (p *Pool) Unpin(id GraphID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	entry, ok := p.graphs[id]
	if !ok {
		return fmt.Errorf("graphpool: graph %d not found", id)
	}
	if entry.pins <= 0 {
		return fmt.Errorf("graphpool: graph %d not pinned", id)
	}
	entry.pins--
	p.letGoOfDependency(entry)
	return nil
}

// letGoOfDependency stops entry counting as a dependent once nothing can
// read it any more: it is released and the last pin is gone. A released
// graph a reader still pins inherits from its dependency until then.
func (p *Pool) letGoOfDependency(entry *graphEntry) {
	if dep, ok := p.graphs[entry.dep]; ok && entry.released && entry.pins == 0 {
		dep.dependents--
	}
}

// Pins returns the current pin count of a graph (0 if unknown).
func (p *Pool) Pins(id GraphID) int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if entry, ok := p.graphs[id]; ok {
		return entry.pins
	}
	return 0
}

// Release marks a graph as no longer needed. Its bits are reclaimed by the
// next CleanNow, or sooner by an overlay that would otherwise take a bit
// past 63. Releasing a materialized graph that other graphs still readable
// (not released, or released and pinned) depend on is an error; the current
// graph can never be released.
func (p *Pool) Release(id GraphID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	entry, ok := p.graphs[id]
	if !ok {
		return fmt.Errorf("graphpool: graph %d not found", id)
	}
	if entry.kind == KindCurrent {
		return fmt.Errorf("graphpool: cannot release the current graph")
	}
	if entry.dependents > 0 {
		return fmt.Errorf("graphpool: graph %d has %d dependent graphs", id, entry.dependents)
	}
	if entry.released {
		return nil
	}
	entry.released = true
	p.letGoOfDependency(entry)
	return nil
}

// CleanNow performs the lazy cleanup pass: it clears the bits of every
// released graph no reader pins, deletes elements whose bitmaps become
// empty, and frees the bits. It returns the number of elements removed from
// the pool. (The paper performs this periodically in the absence of query
// load; the library leaves scheduling to the caller — see Cleaner — and
// runs the pass itself only before an overlay would spill past bit 63.)
func (p *Pool) CleanNow() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reclaim()
}

// reclaim is CleanNow's pass. A bit is free for alloc again only once the
// pass has cleared it on every element. The caller holds the write lock.
func (p *Pool) reclaim() int {
	var mask bitset.Bits
	for id, entry := range p.graphs {
		if !entry.released || entry.pins > 0 {
			continue
		}
		for b := entry.bit; b < entry.bit+entry.width(); b++ {
			mask.Set(b)
		}
		delete(p.graphs, id)
	}
	if !mask.Any() {
		return 0
	}
	removed := p.sweepAll(&mask)
	p.taken.AndNot(&mask)
	return removed
}

// unlink takes edge e, a record of it between the endpoints info being gone,
// out of the adjacency list of each of them that no record of e is at now,
// and evicts the record of such an endpoint that nothing holds any more. It
// returns how many it evicted.
func (p *Pool) unlink(e graph.EdgeID, info graph.EdgeInfo) (removed int) {
	at := func(pe *poolEdge, n graph.NodeID) bool { return pe != nil && pe.info.Touches(n) }
	for _, n := range ends(info) {
		if at(p.edges[e], n) || slices.ContainsFunc(p.alts[e], func(alt *poolEdge) bool { return at(alt, n) }) {
			continue
		}
		pn := p.nodes[n]
		if i := slices.Index(pn.adj, e); i >= 0 {
			last := len(pn.adj) - 1
			pn.adj[i] = pn.adj[last]
			if pn.adj = pn.adj[:last]; last == 0 {
				pn.adj = nil
			}
		}
		if pn.dead() {
			delete(p.nodes, n)
			removed++
		}
	}
	return removed
}

// MappingRow is one row of the GraphID-bit mapping table (the paper's
// Table 3 / Figure 5(c)).
type MappingRow struct {
	Bits [2]int // second is -1 for single-bit graphs
	ID   GraphID
	Kind GraphKind
	Dep  GraphID // NoDependency if independent
	At   graph.Time
}

// MappingTable returns the active GraphID-bit mapping rows sorted by first
// bit.
func (p *Pool) MappingTable() []MappingRow {
	p.mu.RLock()
	defer p.mu.RUnlock()
	rows := make([]MappingRow, 0, len(p.graphs))
	for _, e := range p.graphs {
		row := MappingRow{ID: e.id, Kind: e.kind, Dep: e.dep, At: e.at, Bits: [2]int{e.bit, -1}}
		if e.width() == 2 {
			row.Bits[1] = e.bit + 1
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Bits[0] < rows[j].Bits[0] })
	return rows
}

// Stats summarizes the pool's contents.
type Stats struct {
	ActiveGraphs   int // every graph in the graph table, ReleasedGraphs included
	PinnedGraphs   int // graphs with at least one Pin reference
	ReleasedGraphs int // released, their bits not yet reclaimed by CleanNow
	PoolNodes      int // union-graph nodes resident, and nodes only an edge record names
	PoolEdges      int
	Bits           int   // bitmap width in use: one more than the highest bit a graph holds
	Bytes          int64 // ApproxBytes as of a started Cleaner's last pass (0 before the first)
}

// Stats returns current pool statistics.
func (p *Pool) Stats() Stats {
	p.mu.RLock()
	defer p.mu.RUnlock()
	st := Stats{
		ActiveGraphs: len(p.graphs),
		PoolNodes:    len(p.nodes),
		PoolEdges:    len(p.edges),
		Bytes:        p.sampledBytes.Load(),
	}
	for _, e := range p.graphs {
		st.Bits = max(st.Bits, e.bit+e.width())
		if e.pins > 0 {
			st.PinnedGraphs++
		}
		if e.released {
			st.ReleasedGraphs++
		}
	}
	return st
}

// mapSlot is what one entry of a map from an 8-byte key to an 8-byte value
// costs: 17 bytes of slot and control byte, in tables that double at seven
// eighths full. Go 1.24 measures between 24 bytes an entry just before a
// table grows and 42 just after.
const mapSlot = 30

// heapSize is n rounded up about the way the allocator rounds an object:
// to a sixteenth of the next power of two, and to no less than 16.
func heapSize(n uintptr) int64 {
	step := uintptr(1) << max(bits.Len(uint(n)), 8) >> 4
	return int64((n + step - 1) &^ (step - 1))
}

// bytes returns the heap the element's bitmap and attribute list own.
func (el *element) bytes() int64 {
	n := int64(el.bm.SizeBytes())
	if el.vals != nil {
		n += heapSize(unsafe.Sizeof(*el.vals)) + heapSize(uintptr(cap(*el.vals))*unsafe.Sizeof(attrVal{}))
	}
	for _, av := range el.attrs() {
		n += int64(len(av.val) + av.bm.SizeBytes())
	}
	return n
}

// ApproxBytes estimates the pool's memory footprint from its layout: a map
// entry and a record per element, a node's adjacency list at its capacity,
// the attribute lists (header and values) at their capacity with the value
// strings, the bitmap words that are not inline, and each attribute name
// once. It is the quantity plotted in the paper's Figure 8(a).
func (p *Pool) ApproxBytes() int64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	total := int64(len(p.nodes)) * (mapSlot + heapSize(unsafe.Sizeof(poolNode{})))
	for _, pn := range p.nodes {
		total += pn.bytes()
		if cap(pn.adj) > 0 {
			total += heapSize(uintptr(cap(pn.adj)) * unsafe.Sizeof(pn.adj[0]))
		}
	}
	for _, pe := range p.records {
		total += mapSlot + heapSize(unsafe.Sizeof(poolEdge{})) + pe.bytes()
	}
	for _, name := range p.names {
		total += 2*(mapSlot+int64(unsafe.Sizeof(name))) + int64(len(name))
	}
	return total
}
