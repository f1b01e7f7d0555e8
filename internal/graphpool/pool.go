// Package graphpool implements GraphPool (Section 6 of the paper): an
// in-memory structure that maintains many graphs — the current graph,
// retrieved historical snapshots, and materialized DeltaGraph nodes —
// overlaid non-redundantly on a single union graph.
//
// Every element (node, edge, and each distinct attribute value) carries a
// bitmap that records which of the active graphs contain it. Bits 0 and 1
// are reserved for the current graph: bit 0 is current membership; bit 1
// marks elements recently deleted from the current graph that are not yet
// flushed into the DeltaGraph index. Each historical graph is assigned a
// bit pair {2i, 2i+1}; a materialized graph a single bit.
//
// The bit pair enables the paper's dependent-graph optimization: a
// historical graph close to a materialized graph (or the current graph)
// stores only its exceptions. Bit 2i set means "explicit: bit 2i+1 is the
// membership"; bit 2i clear means "inherit membership from the dependency".
// Only exception elements are touched when such a graph is overlaid.
package graphpool

import (
	"fmt"
	"sort"
	"sync"

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

// attrVal is one attribute value with the bitmap of graphs holding it.
type attrVal struct {
	val string
	bm  bitset.Bits
}

type poolNode struct {
	bm    bitset.Bits
	attrs map[string][]*attrVal
}

type poolEdge struct {
	info  graph.EdgeInfo
	bm    bitset.Bits
	attrs map[string][]*attrVal
}

type graphEntry struct {
	id         GraphID
	kind       GraphKind
	bit        int // first bit; historical graphs also own bit+1
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
	adj    map[graph.NodeID][]graph.EdgeID
	graphs map[GraphID]*graphEntry
	nextID GraphID
	// Bit allocation: historical graphs take pairs, materialized singles.
	nextBit     int
	freePairs   []int
	freeSingles []int
	// recent lists the bitmaps bit 1 was set on since the last ClearRecent
	// (one entry per delete, so an element deleted twice is listed twice).
	recent []*bitset.Bits
}

// New returns an empty pool containing only the (empty) current graph.
func New() *Pool {
	p := &Pool{
		nodes:   make(map[graph.NodeID]*poolNode),
		edges:   make(map[graph.EdgeID]*poolEdge),
		adj:     make(map[graph.NodeID][]graph.EdgeID),
		graphs:  make(map[GraphID]*graphEntry),
		nextID:  1,
		nextBit: 2, // bits 0 and 1 are the current graph's
	}
	p.graphs[CurrentGraph] = &graphEntry{id: CurrentGraph, kind: KindCurrent, bit: 0, dep: NoDependency}
	return p
}

func (p *Pool) allocPair() int {
	if n := len(p.freePairs); n > 0 {
		bit := p.freePairs[n-1]
		p.freePairs = p.freePairs[:n-1]
		return bit
	}
	bit := p.nextBit
	p.nextBit += 2
	return bit
}

func (p *Pool) allocSingle() int {
	if n := len(p.freeSingles); n > 0 {
		bit := p.freeSingles[n-1]
		p.freeSingles = p.freeSingles[:n-1]
		return bit
	}
	bit := p.nextBit
	p.nextBit++
	return bit
}

func (p *Pool) node(id graph.NodeID) *poolNode {
	n := p.nodes[id]
	if n == nil {
		n = &poolNode{}
		p.nodes[id] = n
	}
	return n
}

func (p *Pool) edge(id graph.EdgeID, info graph.EdgeInfo) *poolEdge {
	e := p.edges[id]
	if e == nil {
		e = &poolEdge{info: info}
		p.edges[id] = e
		p.adj[info.From] = append(p.adj[info.From], id)
		if info.To != info.From {
			p.adj[info.To] = append(p.adj[info.To], id)
		}
	}
	return e
}

func setAttr(attrs *map[string][]*attrVal, name, val string, bit int) {
	if *attrs == nil {
		*attrs = make(map[string][]*attrVal)
	}
	vals := (*attrs)[name]
	for _, av := range vals {
		if av.val == val {
			av.bm.Set(bit)
			return
		}
	}
	av := &attrVal{val: val}
	av.bm.Set(bit)
	(*attrs)[name] = append(vals, av)
}

// member evaluates the bitmap semantics for one graph. The caller holds at
// least the read lock.
func (p *Pool) member(bm *bitset.Bits, g *graphEntry) bool {
	switch g.kind {
	case KindCurrent:
		return bm.Get(0)
	case KindMaterialized:
		return bm.Get(g.bit)
	default: // KindHistorical
		if bm.Get(g.bit) {
			return bm.Get(g.bit + 1)
		}
		if g.dep != NoDependency {
			if dep, ok := p.graphs[g.dep]; ok {
				return p.member(bm, dep)
			}
		}
		return false
	}
}

// markAll marks every element and attribute value of s with each of bits
// and records s's size as entry's — the whole of what overlaying an
// explicit graph means, whichever bits it lives under. The caller holds
// the write lock.
func (p *Pool) markAll(entry *graphEntry, s *graph.Snapshot, bits ...int) {
	for n := range s.Nodes {
		pn := p.node(n)
		for _, b := range bits {
			pn.bm.Set(b)
		}
	}
	for e, info := range s.Edges {
		pe := p.edge(e, info)
		for _, b := range bits {
			pe.bm.Set(b)
		}
	}
	for n, attrs := range s.NodeAttrs {
		pn := p.node(n)
		for k, v := range attrs {
			for _, b := range bits {
				setAttr(&pn.attrs, k, v, b)
			}
		}
	}
	for e, attrs := range s.EdgeAttrs {
		pe, ok := p.edges[e]
		if !ok {
			continue // attribute for an edge the snapshot does not contain
		}
		for k, v := range attrs {
			for _, b := range bits {
				setAttr(&pe.attrs, k, v, b)
			}
		}
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
	entry := &graphEntry{id: p.nextID, kind: KindHistorical, bit: p.allocPair(), dep: NoDependency, at: at}
	p.nextID++
	p.graphs[entry.id] = entry
	p.markAll(entry, s, entry.bit, entry.bit+1)
	return entry.id
}

// OverlayMaterialized registers a materialized DeltaGraph node's graph
// (which may not be a valid snapshot of any time point) under a single bit.
func (p *Pool) OverlayMaterialized(s *graph.Snapshot) GraphID {
	p.mu.Lock()
	defer p.mu.Unlock()
	entry := &graphEntry{id: p.nextID, kind: KindMaterialized, bit: p.allocSingle(), dep: NoDependency}
	p.nextID++
	p.graphs[entry.id] = entry
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
	entry := &graphEntry{id: p.nextID, kind: KindHistorical, bit: p.allocPair(), dep: dep, attrs: attrs, at: at}
	p.nextID++
	p.graphs[entry.id] = entry
	depEntry.dependents++

	exc, member := entry.bit, entry.bit+1
	for _, n := range d.AddNodes {
		pn := p.node(n)
		pn.bm.Set(exc)
		pn.bm.Set(member)
	}
	for _, n := range d.DelNodes {
		pn := p.node(n)
		pn.bm.Set(exc)
		pn.bm.Clear(member)
	}
	for _, e := range d.AddEdges {
		pe := p.edge(e.ID, graph.EdgeInfo{From: e.From, To: e.To, Directed: e.Directed})
		pe.bm.Set(exc)
		pe.bm.Set(member)
	}
	for _, e := range d.DelEdges {
		pe := p.edge(e.ID, graph.EdgeInfo{From: e.From, To: e.To, Directed: e.Directed})
		pe.bm.Set(exc)
		pe.bm.Clear(member)
	}
	for _, rec := range d.SetNodeAttrs {
		pn := p.node(rec.Node)
		// Mark every existing value of this attribute as an exception
		// (excluded), then include the new value.
		for _, av := range pn.attrs[rec.Attr] {
			av.bm.Set(exc)
			av.bm.Clear(member)
		}
		setAttr(&pn.attrs, rec.Attr, rec.Val, exc)
		setAttr(&pn.attrs, rec.Attr, rec.Val, member)
	}
	for _, rec := range d.DelNodeAttrs {
		pn := p.node(rec.Node)
		for _, av := range pn.attrs[rec.Attr] {
			av.bm.Set(exc)
			av.bm.Clear(member)
		}
	}
	for _, rec := range d.SetEdgeAttrs {
		if pe, ok := p.edges[rec.Edge]; ok {
			for _, av := range pe.attrs[rec.Attr] {
				av.bm.Set(exc)
				av.bm.Clear(member)
			}
			setAttr(&pe.attrs, rec.Attr, rec.Val, exc)
			setAttr(&pe.attrs, rec.Attr, rec.Val, member)
		}
	}
	for _, rec := range d.DelEdgeAttrs {
		if pe, ok := p.edges[rec.Edge]; ok {
			for _, av := range pe.attrs[rec.Attr] {
				av.bm.Set(exc)
				av.bm.Clear(member)
			}
		}
	}
	entry.nodeCount = depEntry.nodeCount + len(d.AddNodes) - len(d.DelNodes)
	entry.edgeCount = depEntry.edgeCount + len(d.AddEdges) - len(d.DelEdges)
	return entry.id, nil
}

// LoadCurrent seeds the current graph (bit 0) from a full snapshot; used
// when an index checkpoint is reopened. Any previous current-graph content
// is unmarked first.
func (p *Pool) LoadCurrent(s *graph.Snapshot) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, pn := range p.nodes {
		pn.bm.Clear(0)
		for _, vals := range pn.attrs {
			for _, av := range vals {
				av.bm.Clear(0)
			}
		}
	}
	for _, pe := range p.edges {
		pe.bm.Clear(0)
		for _, vals := range pe.attrs {
			for _, av := range vals {
				av.bm.Clear(0)
			}
		}
	}
	p.markAll(p.graphs[CurrentGraph], s, 0)
}

// ApplyEvent updates the current graph in place (bits 0 and 1). Deleted
// elements keep bit 1 set until ClearRecent is called, marking them as
// "recently deleted but not yet in the DeltaGraph index".
func (p *Pool) ApplyEvent(ev graph.Event) {
	p.mu.Lock()
	defer p.mu.Unlock()
	cur := p.graphs[CurrentGraph]
	switch ev.Type {
	case graph.AddNode:
		pn := p.node(ev.Node)
		if !pn.bm.Get(0) {
			cur.nodeCount++
		}
		pn.bm.Set(0)
	case graph.DelNode:
		pn := p.node(ev.Node)
		if pn.bm.Get(0) {
			cur.nodeCount--
		}
		pn.bm.Clear(0)
		p.markRecent(&pn.bm)
	case graph.AddEdge:
		pe := p.edge(ev.Edge, graph.EdgeInfo{From: ev.Node, To: ev.Node2, Directed: ev.Directed})
		if !pe.bm.Get(0) {
			cur.edgeCount++
		}
		pe.bm.Set(0)
	case graph.DelEdge:
		pe := p.edge(ev.Edge, graph.EdgeInfo{From: ev.Node, To: ev.Node2, Directed: ev.Directed})
		if pe.bm.Get(0) {
			cur.edgeCount--
		}
		pe.bm.Clear(0)
		p.markRecent(&pe.bm)
	case graph.SetNodeAttr:
		pn := p.node(ev.Node)
		for _, av := range pn.attrs[ev.Attr] {
			if av.bm.Get(0) {
				av.bm.Clear(0)
				p.markRecent(&av.bm)
			}
		}
		if ev.HasNew {
			setAttr(&pn.attrs, ev.Attr, ev.New, 0)
		}
	case graph.SetEdgeAttr:
		if pe, ok := p.edges[ev.Edge]; ok {
			for _, av := range pe.attrs[ev.Attr] {
				if av.bm.Get(0) {
					av.bm.Clear(0)
					p.markRecent(&av.bm)
				}
			}
			if ev.HasNew {
				setAttr(&pe.attrs, ev.Attr, ev.New, 0)
			}
		}
	}
}

// markRecent sets bit 1 ("recently deleted, not yet in the index") and
// remembers where, so that ClearRecent need not search the pool for it.
func (p *Pool) markRecent(bm *bitset.Bits) {
	bm.Set(1)
	p.recent = append(p.recent, bm)
}

// ClearRecent clears bit 1 wherever it is set: the recently deleted elements
// are now covered by the on-disk index (called after a leaf-eventlist
// flush). It visits the bitmaps marked since the last call and nothing else,
// and returns how many that was.
func (p *Pool) ClearRecent() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.recent)
	for i, bm := range p.recent {
		bm.Clear(1)
		p.recent[i] = nil
	}
	p.recent = p.recent[:0]
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
	return nil
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
// next CleanNow. Releasing a materialized graph that other active graphs
// depend on is an error; the current graph can never be released.
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
	if entry.dep != NoDependency {
		if dep, ok := p.graphs[entry.dep]; ok {
			dep.dependents--
		}
	}
	return nil
}

// CleanNow performs the lazy cleanup pass: it clears the bits of every
// released graph, deletes elements whose bitmaps become empty, and recycles
// the bits. It returns the number of elements removed from the pool.
// (The paper performs this periodically in the absence of query load; the
// library leaves scheduling to the caller — see Cleaner.)
func (p *Pool) CleanNow() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	var bits []int
	for id, entry := range p.graphs {
		if !entry.released || entry.pins > 0 {
			continue
		}
		bits = append(bits, entry.bit)
		if entry.kind == KindHistorical {
			bits = append(bits, entry.bit+1)
			p.freePairs = append(p.freePairs, entry.bit)
		} else {
			p.freeSingles = append(p.freeSingles, entry.bit)
		}
		delete(p.graphs, id)
	}
	if len(bits) == 0 {
		return 0
	}
	removed := 0
	for id, pn := range p.nodes {
		for _, b := range bits {
			pn.bm.Clear(b)
		}
		for name, vals := range pn.attrs {
			kept := vals[:0]
			for _, av := range vals {
				for _, b := range bits {
					av.bm.Clear(b)
				}
				if av.bm.Any() {
					kept = append(kept, av)
				} else {
					removed++
				}
			}
			if len(kept) == 0 {
				delete(pn.attrs, name)
			} else {
				pn.attrs[name] = kept
			}
		}
		if !pn.bm.Any() && len(pn.attrs) == 0 {
			delete(p.nodes, id)
			removed++
		}
	}
	for id, pe := range p.edges {
		for _, b := range bits {
			pe.bm.Clear(b)
		}
		for name, vals := range pe.attrs {
			kept := vals[:0]
			for _, av := range vals {
				for _, b := range bits {
					av.bm.Clear(b)
				}
				if av.bm.Any() {
					kept = append(kept, av)
				} else {
					removed++
				}
			}
			if len(kept) == 0 {
				delete(pe.attrs, name)
			} else {
				pe.attrs[name] = kept
			}
		}
		if !pe.bm.Any() && len(pe.attrs) == 0 {
			delete(p.edges, id)
			p.dropAdj(pe.info.From, id)
			if pe.info.To != pe.info.From {
				p.dropAdj(pe.info.To, id)
			}
			removed++
		}
	}
	return removed
}

func (p *Pool) dropAdj(n graph.NodeID, e graph.EdgeID) {
	list := p.adj[n]
	for i, id := range list {
		if id == e {
			list[i] = list[len(list)-1]
			list = list[:len(list)-1]
			break
		}
	}
	if len(list) == 0 {
		delete(p.adj, n)
	} else {
		p.adj[n] = list
	}
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
		row := MappingRow{ID: e.id, Kind: e.kind, Dep: e.dep, At: e.at}
		row.Bits[0] = e.bit
		row.Bits[1] = -1
		if e.kind == KindHistorical || e.kind == KindCurrent {
			row.Bits[1] = e.bit + 1
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Bits[0] < rows[j].Bits[0] })
	return rows
}

// Stats summarizes the pool's contents.
type Stats struct {
	ActiveGraphs int
	PinnedGraphs int // graphs with at least one Pin reference
	PoolNodes    int // union-graph nodes resident
	PoolEdges    int
	Bits         int // bitmap width in use
}

// Stats returns current pool statistics.
func (p *Pool) Stats() Stats {
	p.mu.RLock()
	defer p.mu.RUnlock()
	st := Stats{
		ActiveGraphs: len(p.graphs),
		PoolNodes:    len(p.nodes),
		PoolEdges:    len(p.edges),
		Bits:         p.nextBit,
	}
	for _, e := range p.graphs {
		if e.pins > 0 {
			st.PinnedGraphs++
		}
	}
	return st
}

// ApproxBytes estimates the pool's memory footprint: element records,
// adjacency entries, attribute values, and bitmaps. It is the quantity
// plotted in the paper's Figure 8(a).
func (p *Pool) ApproxBytes() int64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	const (
		nodeOverhead = 48 // map entry + struct
		edgeOverhead = 72
		attrOverhead = 40
		adjEntry     = 8
	)
	var total int64
	for _, pn := range p.nodes {
		total += nodeOverhead + int64(pn.bm.SizeBytes())
		for name, vals := range pn.attrs {
			for _, av := range vals {
				total += attrOverhead + int64(len(name)+len(av.val)) + int64(av.bm.SizeBytes())
			}
		}
	}
	for _, pe := range p.edges {
		total += edgeOverhead + int64(pe.bm.SizeBytes())
		for name, vals := range pe.attrs {
			for _, av := range vals {
				total += attrOverhead + int64(len(name)+len(av.val)) + int64(av.bm.SizeBytes())
			}
		}
	}
	for _, list := range p.adj {
		total += adjEntry * int64(len(list))
	}
	return total
}
