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
// beyond the one in its record. Past that, the bitmap's words, bits 0–63
// among them, live in a slot of a table the pool owns, and the record's word
// names the slot, with a flag bit kept in another of its words, so a bitmap
// costs its record 8 B and no pointer.
//
// The node and edge records live in chunks of chunkLen that never move, each
// record named by a 4-byte index, so that a pass over every graph's bits is a
// linear scan of the chunks. A node record is 56 B and an edge record 24 B,
// with no pointer (its endpoints are node-record indices, which share their
// words with its flags); the tables that find a record by its id hold 4-byte
// indices, 5 to 11 B an id (idTable); an adjacency list holds 4 B for each
// edge record at its node. A value of an attribute is 16 B, with no pointer,
// in a list per element (an edge id's are kept apart from its records); it
// names its attribute and its string by 4-byte indices into one table that
// holds each distinct string once, for as long as a value names it.
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
	"math/rand/v2"
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
// it (see bitmap). The name and the value are indices into Pool.strs; tag is
// the name's, with the bitmap's spillFlag in its top bit, so the name is read
// through name(). (2^31 strings would take over 100 GB of table.)
type attrVal struct {
	first    uint64
	tag, val uint32
}

func (av *attrVal) name() uint32 { return av.tag &^ spillFlag }

// attrList is every attribute value any graph gives one element, in one
// list. Values of one name are adjacent, in the order they were first seen.
// A node's list is held by pointer, nil until a graph gives the node a value;
// an edge id's is in Pool.edgeVals while it has one.
type attrList []attrVal

// poolNode is the record of a node: its id, its bitmap (its spillFlag and
// liveFlag in flags), its attribute values, and the indices of the edge
// records at the node, each once. A node that only an edge record names has
// one too, with no bits and no values, for as long as the edge is there.
type poolNode struct {
	id    graph.NodeID
	first uint64
	flags uint32
	vals  *attrList
	adj   []uint32
}

func (pn *poolNode) live() bool { return pn.flags&liveFlag != 0 }

// poolEdge is a record of an edge: its id, its bitmap and its endpoints, the
// indices of their node records, which share their words with flags: src
// holds the bitmap's spillFlag, dst liveFlag and directedFlag. It holds no
// pointer, so the collector never scans a chunk of them; the attribute values
// of an edge id are not on it but in Pool.edgeVals.
type poolEdge struct {
	id       graph.EdgeID
	first    uint64
	src, dst uint32
}

// Flags in the top bits of a record's 4-byte words, above the index a word
// may hold (indexMask): a slab holds fewer than 1<<30 records.
const (
	spillFlag    uint32 = 1 << 31 // on a bitmap's flag word: first names its spill slot
	directedFlag uint32 = 1 << 31 // on an edge record's dst
	liveFlag     uint32 = 1 << 30 // on a node record's flags and an edge record's dst: the slot holds a record
	indexMask           = liveFlag - 1
)

func (pe *poolEdge) from() uint32   { return pe.src & indexMask }
func (pe *poolEdge) to() uint32     { return pe.dst & indexMask }
func (pe *poolEdge) directed() bool { return pe.dst&directedFlag != 0 }
func (pe *poolEdge) live() bool     { return pe.dst&liveFlag != 0 }

// ends returns the indices of the node records the edge record joins, each
// once.
func (pe *poolEdge) ends() []uint32 {
	if pe.to() == pe.from() {
		return []uint32{pe.from()}
	}
	return []uint32{pe.from(), pe.to()}
}

// info returns the endpoints of edge record pe.
func (p *Pool) info(pe *poolEdge) graph.EdgeInfo {
	return graph.EdgeInfo{From: p.nodeSlab.at(pe.from()).id, To: p.nodeSlab.at(pe.to()).id, Directed: pe.directed()}
}

// chunkLen is how many records a chunk of a slab holds.
const chunkLen = 256

// slab holds records in chunks that never move, a record named by its index:
// chunk i/chunkLen, slot i%chunkLen. A free slot is zero and on free, and
// the next record made takes the last freed one. Since a slot is reused, no
// pointer to a record may be kept past the record's eviction.
type slab[R any] struct {
	chunks []*[chunkLen]R
	free   []uint32
}

func (s *slab[R]) at(i uint32) *R { return &s.chunks[i/chunkLen][i%chunkLen] }

// add returns a free slot, taken off the free list, which a new chunk fills
// when it is empty. It refuses a chunk whose indices would reach the flags
// above indexMask.
func (s *slab[R]) add() uint32 {
	if len(s.free) == 0 {
		if (len(s.chunks)+1)*chunkLen > int(indexMask) {
			panic("graphpool: a slab holds fewer than 1<<30 records")
		}
		s.chunks = append(s.chunks, new([chunkLen]R))
		for j := chunkLen - 1; j >= 0; j-- {
			s.free = append(s.free, uint32((len(s.chunks)-1)*chunkLen+j))
		}
	}
	i := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	return i
}

// remove zeroes slot i and frees it. A slab left with no record gives its
// chunks back.
func (s *slab[R]) remove(i uint32) {
	var zero R
	*s.at(i) = zero
	if s.free = append(s.free, i); len(s.free) == len(s.chunks)*chunkLen {
		*s = slab[R]{}
	}
}

// all yields every slot, free or not, in index order.
func (s *slab[R]) all(yield func(uint32, *R) bool) {
	for c, chunk := range s.chunks {
		for j := range chunk {
			if !yield(uint32(c*chunkLen+j), &chunk[j]) {
				return
			}
		}
	}
}

// bytes returns the heap the slab holds: its chunks, whole, and the lists of
// them and of its free slots.
func (s *slab[R]) bytes() int64 {
	return int64(len(s.chunks))*heapSize(unsafe.Sizeof(s.chunks[0][0])*chunkLen) +
		heapSize(uintptr(cap(s.chunks))*8) + heapSize(uintptr(cap(s.free))*4)
}

// bitmap addresses the bitmap of graphs one record or value is in, where it
// lives. While every bit set is below 64, first is the bitmap (flag's
// spillFlag clear); once a bit past 63 is set, first is the index of the
// Pool.spill slot that holds every word of it, bits 0–63 included, and
// spillFlag is set. A bitmap holds a slot exactly while a bit past 63 is set.
type bitmap struct {
	first *uint64
	flag  *uint32
}

func (pn *poolNode) bits() bitmap { return bitmap{&pn.first, &pn.flags} }
func (pe *poolEdge) bits() bitmap { return bitmap{&pe.first, &pe.src} }
func (av *attrVal) bits() bitmap  { return bitmap{&av.first, &av.tag} }

// spilled reports whether b's words are in a spill slot.
func (b bitmap) spilled() bool { return *b.flag&spillFlag != 0 }

// empty reports whether no bit of b is set (a spilled bitmap has one).
func (b bitmap) empty() bool { return *b.first == 0 && !b.spilled() }

// slot returns the words of spill slot k.
func (p *Pool) slot(k uint64) []uint64 {
	i := int(k) * p.stride
	return p.spill[i : i+p.stride]
}

// word0 returns the word that holds bits 0–63 of b.
func (p *Pool) word0(b bitmap) *uint64 {
	if b.spilled() {
		return &p.slot(*b.first)[0]
	}
	return b.first
}

// bit reports whether bit i of b is set.
func (p *Pool) bit(b bitmap, i int) bool {
	if !b.spilled() {
		return i < 64 && *b.first&(1<<i) != 0
	}
	w := i / 64
	return w < p.stride && p.slot(*b.first)[w]&(1<<(i%64)) != 0
}

// mark sets bit i of b. A bit past 63 moves b's word into a slot — a free one
// if there is one — if it has none, and widens every slot if the bit needs it.
func (p *Pool) mark(b bitmap, i int) {
	if !b.spilled() && i < 64 {
		*b.first |= 1 << i
		return
	}
	if w := i/64 + 1; w > p.stride {
		spill := make([]uint64, len(p.spill)/p.stride*w)
		for k := 0; k*p.stride < len(p.spill); k++ {
			copy(spill[k*w:], p.spill[k*p.stride:(k+1)*p.stride])
		}
		p.spill, p.stride = spill, w
	}
	if !b.spilled() {
		k := len(p.spill) / p.stride
		if n := len(p.free); n > 0 {
			k, p.free = int(p.free[n-1]), p.free[:n-1]
		} else {
			p.spill = append(p.spill, make([]uint64, p.stride)...)
		}
		p.slot(uint64(k))[0] = *b.first
		*b.first, *b.flag = uint64(k), *b.flag|spillFlag
	}
	p.slot(*b.first)[i/64] |= 1 << (i % 64)
}

// unmark clears bit i of b.
func (p *Pool) unmark(b bitmap, i int) {
	if !b.spilled() {
		*b.first &^= 1 << i // 0 past bit 63
	} else if w := i / 64; w < p.stride {
		p.slot(*b.first)[w] &^= 1 << (i % 64)
		p.tidy(b)
	}
}

// andNot clears every bit of b that is set in mask.
func (p *Pool) andNot(b bitmap, mask *bitset.Bits) {
	if !b.spilled() {
		*b.first &^= mask.Word(0)
		return
	}
	words := p.slot(*b.first)
	for w := range words {
		words[w] &^= mask.Word(w)
	}
	p.tidy(b)
}

// tidy folds spilled b back into first once no bit past 63 is set, zeroes
// its slot and puts it on the free list.
func (p *Pool) tidy(b bitmap) {
	k := *b.first
	if words := p.slot(k); slices.Max(words[1:]) == 0 {
		*b.first, *b.flag, words[0] = words[0], *b.flag&^spillFlag, 0
		p.free = append(p.free, uint32(k))
	}
}

// all returns the values in the list (nil for a nil list).
func (l *attrList) all() []attrVal {
	if l == nil {
		return nil
	}
	return *l
}

// list returns the node's attribute values, made empty if it has none.
func (pn *poolNode) list() *attrList {
	if pn.vals == nil {
		pn.vals = new(attrList)
	}
	return pn.vals
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

// run returns the bounds of the values of name in the list (both its length
// when there are none).
func (l *attrList) run(name uint32) (lo, hi int) {
	attrs := l.all()
	for lo < len(attrs) && attrs[lo].name() != name {
		lo++
	}
	for hi = lo; hi < len(attrs) && attrs[hi].name() == name; hi++ {
	}
	return lo, hi
}

// value returns the bitmap of the value val of attribute name in l, adding
// the value behind the other values of that name if it is new; n is
// p.str(name). A value made here is the only way an entry of strs gains a
// count. The caller holds the write lock.
func (p *Pool) value(l *attrList, n uint32, name, val string) bitmap {
	attrs := *l
	i, hi := l.run(n)
	for i < hi && p.strs[attrs[i].val] != val {
		i++
	}
	if i == hi {
		attrs = append(grown(attrs), attrVal{})
		copy(attrs[i+1:], attrs[i:])
		attrs[i] = attrVal{tag: p.ref(n, name), val: p.ref(noStr, val)}
		*l = attrs
	}
	return attrs[i].bits()
}

// sweepValues clears the bits of mask on the values in l, drops those no
// graph holds any more and returns the list (nil once it is empty) and how
// many values it dropped.
func (p *Pool) sweepValues(l *attrList, mask *bitset.Bits) (*attrList, int) {
	attrs := l.all()
	kept := 0
	for i := range attrs {
		av := &attrs[i]
		if p.andNot(av.bits(), mask); av.bits().empty() {
			p.unref(av.name())
			p.unref(av.val)
			continue
		}
		if kept < i { // a value moves only once one before it has gone
			attrs[kept] = *av
		}
		kept++
	}
	if kept == len(attrs) {
		return l, 0
	}
	clear(attrs[kept:])
	if kept == 0 {
		return nil, len(attrs)
	}
	*l = attrs[:kept]
	return l, len(attrs) - kept
}

// values returns the node's attribute values (nil for a nil node).
func (pn *poolNode) values() *attrList {
	if pn == nil {
		return nil
	}
	return pn.vals
}

// dead reports whether no graph holds the node or any value of it and no
// edge record is at it.
func (pn *poolNode) dead() bool {
	return pn.bits().empty() && len(pn.vals.all()) == 0 && len(pn.adj) == 0
}

// membership is a graph's membership test with its bits resolved, so that
// evaluating it needs neither the graph table nor the dependency's entry.
// exc < 0: every element is explicit (the current graph, a materialized
// one); dep < 0: no dependency to inherit from.
type membership struct{ exc, mem, dep int }

// holds is has for a bitmap with no bit set past the inline word w (a shift
// by 64 or more reads 0).
func (m membership) holds(w uint64) bool {
	if m.exc < 0 || w>>m.exc&1 != 0 {
		return w>>m.mem&1 != 0
	}
	return m.dep >= 0 && w>>m.dep&1 != 0
}

// has reports whether the graph with the membership test m holds what b is
// the bitmap of.
func (p *Pool) has(m membership, b bitmap) bool {
	if !b.spilled() {
		return m.holds(*b.first)
	}
	if m.exc < 0 || p.bit(b, m.exc) {
		return p.bit(b, m.mem)
	}
	return m.dep >= 0 && p.bit(b, m.dep)
}

type graphEntry struct {
	id         GraphID
	kind       GraphKind
	bit        int // first bit; the current graph and a dependent one also own bit+1
	m          membership
	dep        GraphID
	attrs      graph.AttrOptions // what the graph was retrieved with
	at         graph.Time
	released   bool
	dependents int
	pins       int
	nodeCount  int
	edgeCount  int
	// The elements something left the graph from (one entry each time, so an
	// element twice deleted is listed twice): the current graph's recent
	// deletes, which bit 1 marks until ClearRecent; a graph under
	// construction's, for Commit to settle.
	outNodes []graph.NodeID
	outEdges []graph.EdgeID
}

// Pool is the GraphPool. It is safe for concurrent use; retrieval overlays
// take the write lock, view reads take the read lock.
type Pool struct {
	mu sync.RWMutex
	// The records, and the tables that find each id's (an edge id's first).
	nodeSlab slab[poolNode]
	edgeSlab slab[poolEdge]
	nodeIdx  idTable[poolNode, graph.NodeID]
	edgeIdx  idTable[poolEdge, graph.EdgeID]
	graphs   map[GraphID]*graphEntry
	nextID   GraphID
	// An edge id names one pair of nodes for life (graph.EdgeID), and a
	// history that gives an id to another pair later is held all the same:
	// alts has the records of such an id after the first, one for each
	// further pair, for as long as a graph holds the edge between them.
	alts map[graph.EdgeID][]uint32
	// The attribute values of each edge id that has any, whatever records
	// the id has (none, if no graph holds the edge).
	edgeVals map[graph.EdgeID]*attrList
	// The words of the bitmaps that have a bit past 63 set: slot k (the
	// first of a bitmap with spillFlag set) is spill[k*stride:(k+1)*stride],
	// word 0 being bits 0–63. A slot no bitmap holds is all zero and on free,
	// the next to be handed out; every slot widens at once when a bit needs a
	// word beyond them.
	spill  []uint64
	stride int
	free   []uint32
	// The strings attribute values name, each once: refs counts the attrVal
	// fields that name an entry, and one no field names is "", out of strIDs
	// and on strFree, the next to be handed out.
	strs    []string
	refs    []uint32
	strIDs  map[string]uint32
	strFree []uint32
	// The bits graphs hold, and graphs under construction: a released
	// graph's are free again once a clean pass has cleared them on every
	// element.
	taken bitset.Bits
	// ApproxBytes as a Cleaner last sampled it: a walk of the whole pool,
	// which a metrics scrape must not pay for.
	sampledBytes atomic.Int64
}

// New returns an empty pool containing only the (empty) current graph.
func New() *Pool {
	p := &Pool{
		alts:     make(map[graph.EdgeID][]uint32),
		edgeVals: make(map[graph.EdgeID]*attrList),
		graphs:   make(map[GraphID]*graphEntry),
		strIDs:   make(map[string]uint32),
		nextID:   1,
		stride:   2,
	}
	seed := rand.Uint64()
	p.nodeIdx = idTable[poolNode, graph.NodeID]{seed: seed, recs: &p.nodeSlab}
	p.edgeIdx = idTable[poolEdge, graph.EdgeID]{seed: seed, recs: &p.edgeSlab}
	p.graphs[CurrentGraph] = &graphEntry{id: CurrentGraph, kind: KindCurrent, m: membership{exc: -1, mem: 0, dep: -1}, dep: NoDependency,
		attrs: graph.AttrOptions{NodeAll: true, EdgeAll: true}}
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

// nodeIndex returns the index of node id's record, made if there is none.
func (p *Pool) nodeIndex(id graph.NodeID) uint32 {
	i, ok := p.nodeIdx.get(id)
	if !ok {
		i = p.nodeSlab.add()
		pn := p.nodeSlab.at(i)
		pn.id, pn.flags = id, liveFlag
		p.nodeIdx.add(id, i)
	}
	return i
}

func (p *Pool) node(id graph.NodeID) *poolNode { return p.nodeSlab.at(p.nodeIndex(id)) }

// findNode returns node id's record, nil if there is none.
func (p *Pool) findNode(id graph.NodeID) *poolNode {
	if i, ok := p.nodeIdx.get(id); ok {
		return p.nodeSlab.at(i)
	}
	return nil
}

// record returns the record of edge id between the endpoints info, nil if
// there is none.
func (p *Pool) record(id graph.EdgeID, info graph.EdgeInfo) *poolEdge {
	first, ok := p.edgeIdx.get(id)
	if !ok {
		return nil
	}
	if pe := p.edgeSlab.at(first); p.info(pe) == info {
		return pe
	}
	for _, alt := range p.alts[id] {
		if pe := p.edgeSlab.at(alt); p.info(pe) == info {
			return pe
		}
	}
	return nil
}

// edge returns the record of edge id between the endpoints info, made if
// there is none. What the first record of an id says of the endpoints binds
// no graph while no bit but bit 1 is set on it (the current graph deleted
// the edge since the last leaf cut, and bit 1 is read by nobody): it takes
// info in their place. One that a graph does hold the edge of keeps its
// endpoints for that graph, and the id gets a further record.
func (p *Pool) edge(id graph.EdgeID, info graph.EdgeInfo) *poolEdge {
	if pe := p.record(id, info); pe != nil {
		return pe
	}
	i, ok := p.edgeIdx.get(id)
	switch {
	case !ok:
		i = p.edgeSlab.add()
		p.edgeSlab.at(i).id = id
		p.edgeIdx.add(id, i)
	case p.edgeSlab.at(i).bits().spilled() || p.edgeSlab.at(i).first&^(1<<1) != 0:
		i = p.edgeSlab.add()
		p.alts[id] = append(p.alts[id], i)
	default:
		p.unlink(i)
	}
	from, to := p.nodeIndex(info.From), p.nodeIndex(info.To)
	pe := p.edgeSlab.at(i)
	pe.id, pe.src, pe.dst = id, from, to|liveFlag
	if info.Directed {
		pe.dst |= directedFlag
	}
	for _, n := range pe.ends() {
		pn := p.nodeSlab.at(n)
		pn.adj = append(grown(pn.adj), i)
	}
	return pe
}

// adjacent returns the indices of the edge records at node n.
func (p *Pool) adjacent(n graph.NodeID) []uint32 {
	if pn := p.findNode(n); pn != nil {
		return pn.adj
	}
	return nil
}

// held returns the record of edge id that a graph with the membership test m
// holds the edge on, nil if it does not hold the edge.
func (p *Pool) held(m membership, id graph.EdgeID) *poolEdge {
	first, ok := p.edgeIdx.get(id)
	if !ok {
		return nil
	}
	if pe := p.edgeSlab.at(first); p.has(m, pe.bits()) {
		return pe
	}
	for _, alt := range p.alts[id] {
		if pe := p.edgeSlab.at(alt); p.has(m, pe.bits()) {
			return pe
		}
	}
	return nil
}

// values returns the attribute values of edge id, made empty if it has none.
func (p *Pool) values(id graph.EdgeID) *attrList {
	l := p.edgeVals[id]
	if l == nil {
		l = new(attrList)
		p.edgeVals[id] = l
	}
	return l
}

// nodes yields every node record, in slab order.
func (p *Pool) nodes(yield func(graph.NodeID, *poolNode) bool) {
	for _, chunk := range p.nodeSlab.chunks {
		for j := range chunk {
			if pn := &chunk[j]; pn.live() && !yield(pn.id, pn) {
				return
			}
		}
	}
}

// records yields every record of every edge id, in slab order.
func (p *Pool) records(yield func(graph.EdgeID, *poolEdge) bool) {
	for _, chunk := range p.edgeSlab.chunks {
		for j := range chunk {
			if pe := &chunk[j]; pe.live() && !yield(pe.id, pe) {
				return
			}
		}
	}
}

// noStr is what str returns for a string no value names; no field holds it.
const noStr = ^uint32(0)

// str returns the index of s in strs, noStr if no value names it.
func (p *Pool) str(s string) uint32 {
	if i, ok := p.strIDs[s]; ok {
		return i
	}
	return noStr
}

// ref counts one more field naming s and returns its index i, which the
// caller passes if it knows it (else noStr), entering s in strs if no field
// named it. The caller holds the write lock.
func (p *Pool) ref(i uint32, s string) uint32 {
	if i == noStr {
		i = p.str(s)
	}
	if i == noStr {
		if n := len(p.strFree); n > 0 {
			i, p.strFree = p.strFree[n-1], p.strFree[:n-1]
			p.strs[i] = s
		} else {
			i = uint32(len(p.strs))
			p.strs, p.refs = append(p.strs, s), append(p.refs, 0)
		}
		p.strIDs[s] = i
	}
	p.refs[i]++
	return i
}

// unref counts one field fewer naming entry i, which the last one frees: its
// string is let go of, so that one decoded off the wire or a log can be
// collected. The caller holds the write lock.
func (p *Pool) unref(i uint32) {
	if p.refs[i]--; p.refs[i] == 0 {
		delete(p.strIDs, p.strs[i])
		p.strs[i] = ""
		p.strFree = append(p.strFree, i)
	}
}

// sweepNode clears the bits of mask on node record i and its attribute
// values and evicts what no graph holds any more; it returns the number of
// values and elements evicted. The caller holds the write lock.
func (p *Pool) sweepNode(i uint32, mask *bitset.Bits) int {
	pn := p.nodeSlab.at(i)
	p.andNot(pn.bits(), mask)
	var removed int
	pn.vals, removed = p.sweepValues(pn.vals, mask)
	if pn.dead() {
		p.evictNode(i)
		removed++
	}
	return removed
}

// evictNode frees node record i.
func (p *Pool) evictNode(i uint32) {
	p.nodeIdx.remove(p.nodeSlab.at(i).id)
	p.nodeSlab.remove(i)
}

// sweepEdge is sweepNode for the records of edge id, the further ones first.
func (p *Pool) sweepEdge(id graph.EdgeID, mask *bitset.Bits) int {
	removed := 0
	for k := len(p.alts[id]) - 1; k >= 0; k-- {
		removed += p.sweepRecord(p.alts[id][k], mask)
	}
	if first, ok := p.edgeIdx.get(id); ok {
		removed += p.sweepRecord(first, mask)
	}
	return removed
}

// sweepRecord is sweepNode for edge record i, which also leaves the
// adjacency lists and may take an endpoint's record with it. The id's first
// record gone, its next one takes the first's place in the table.
func (p *Pool) sweepRecord(i uint32, mask *bitset.Bits) int {
	pe := p.edgeSlab.at(i)
	if p.andNot(pe.bits(), mask); !pe.bits().empty() {
		return 0
	}
	removed := 1 + p.unlink(i)
	id, alts := pe.id, p.alts[pe.id]
	switch first, _ := p.edgeIdx.get(id); {
	case first != i:
		k := slices.Index(alts, i)
		alts = slices.Delete(alts, k, k+1)
	case len(alts) > 0:
		p.edgeIdx.repoint(id, alts[0])
		alts = alts[1:]
	default:
		p.edgeIdx.remove(id)
	}
	if len(alts) == 0 {
		delete(p.alts, id) // nil or emptied: no entry
	} else {
		p.alts[id] = alts
	}
	p.edgeSlab.remove(i)
	return removed
}

// sweepOut sweeps the elements in e's out lists, and empties them.
func (p *Pool) sweepOut(e *graphEntry, mask *bitset.Bits) {
	for _, id := range e.outNodes {
		if i, ok := p.nodeIdx.get(id); ok {
			p.sweepNode(i, mask)
		}
	}
	for _, id := range e.outEdges {
		p.sweepEdge(id, mask)
		p.sweepEdgeValues(id, p.edgeVals[id], mask)
	}
	e.outNodes, e.outEdges = e.outNodes[:0], e.outEdges[:0]
}

// sweepAll sweeps every element of the pool, a scan of the chunks.
func (p *Pool) sweepAll(mask *bitset.Bits) int {
	removed := 0
	for i, pn := range p.nodeSlab.all {
		if pn.live() {
			removed += p.sweepNode(i, mask)
		}
	}
	for i, pe := range p.edgeSlab.all {
		if pe.live() {
			removed += p.sweepRecord(i, mask)
		}
	}
	for id, l := range p.edgeVals {
		removed += p.sweepEdgeValues(id, l, mask)
	}
	return removed
}

// sweepEdgeValues is sweepValues for the values of edge id, which leave
// edgeVals with the last of them.
func (p *Pool) sweepEdgeValues(id graph.EdgeID, l *attrList, mask *bitset.Bits) int {
	l, removed := p.sweepValues(l, mask)
	if l == nil {
		delete(p.edgeVals, id)
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
	cur := p.graphs[CurrentGraph]
	for n := range s.Nodes {
		p.mark(p.node(n).bits(), 0)
	}
	for e, info := range s.Edges {
		p.mark(p.edge(e, info).bits(), 0)
	}
	for n, attrs := range s.NodeAttrs {
		p.setAll(p.node(n).list(), attrs)
	}
	for e, attrs := range s.EdgeAttrs {
		p.setAll(p.values(e), attrs)
	}
	cur.nodeCount, cur.edgeCount = len(s.Nodes), len(s.Edges)
}

// setAll marks the value of every pair of attrs in l with bit 0, the
// current graph's.
func (p *Pool) setAll(l *attrList, attrs map[string]string) {
	if cap(*l) == 0 {
		*l = make(attrList, 0, len(attrs))
	}
	for k, v := range attrs {
		p.mark(p.value(l, p.str(k), k, v), 0)
	}
}

// ApplyEvent updates the current graph in place (bits 0 and 1), to the
// letter of graph.Snapshot.Apply for every event the index admits (an add of
// an element that is there is not one). What leaves keeps bit 1 set until
// ClearRecent is called, marking it as "recently deleted but not yet in the
// DeltaGraph index".
func (p *Pool) ApplyEvent(ev graph.Event) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.applyEvent(p.graphs[CurrentGraph], ev)
}

// Admission holds the pool's write lock for a run of events on the current
// graph, so that an index admits and applies a whole batch under one lock
// (Admit). No View method may be called while it is held: a view takes the
// read lock, which waits for this one. Let go of it (Pause) around anything
// that calls into the pool.
type Admission struct {
	p   *Pool
	cur *graphEntry
}

// Admit takes the pool's write lock for an Admission, until Pause.
func (p *Pool) Admit() *Admission {
	p.mu.Lock()
	return &Admission{p, p.graphs[CurrentGraph]}
}

// Pause lets go of the write lock; Resume takes it again.
func (a *Admission) Pause() { a.p.mu.Unlock() }

// Resume takes the write lock again after Pause.
func (a *Admission) Resume() { a.p.mu.Lock() }

// Check reads what ev is about to do to the current graph off the record of
// its element and reports whether it changes anything: an add of an element
// that is there (an edge id on any endpoints), a delete of one the graph
// holds nothing of, and an attribute set to the value it has, or removed
// where there is none, do not. For one that does, it returns what the event
// adds to the graph's size as graph.Snapshot.Size counts it, and writes into
// ev what the graph knows: the value an attribute event replaces (Old,
// HadOld) and the endpoints of an edge being deleted.
func (a *Admission) Check(ev *graph.Event) (grow int, changes bool) {
	p, m := a.p, a.cur.m
	switch ev.Type {
	case graph.AddNode:
		pn := p.findNode(ev.Node)
		return 1, pn == nil || !p.has(m, pn.bits())
	case graph.AddEdge:
		return 1, p.held(m, ev.Edge) == nil
	case graph.DelNode:
		pn := p.findNode(ev.Node)
		if pn == nil {
			return 0, false
		}
		n := p.heldValues(m, pn.vals)
		if p.has(m, pn.bits()) {
			n++
		}
		return -n, n > 0
	case graph.DelEdge:
		n := p.heldValues(m, p.edgeVals[ev.Edge])
		if pe := p.held(m, ev.Edge); pe != nil {
			info := p.info(pe)
			ev.Node, ev.Node2, ev.Directed = info.From, info.To, info.Directed
			n++
		}
		return -n, n > 0
	case graph.SetNodeAttr, graph.SetEdgeAttr:
		l := p.edgeVals[ev.Edge]
		if ev.Type == graph.SetNodeAttr {
			l = p.findNode(ev.Node).values()
		}
		ev.Old, ev.HadOld = p.valueIn(m, l, ev.Attr)
		switch {
		case ev.HasNew && !ev.HadOld:
			return 1, true
		case ev.HasNew && ev.New == ev.Old, !ev.HasNew && !ev.HadOld:
			return 0, false
		case !ev.HasNew:
			return -1, true
		}
	}
	return 0, true
}

// Apply applies ev to the current graph, as ApplyEvent does.
func (a *Admission) Apply(ev graph.Event) { a.p.applyEvent(a.cur, ev) }

// heldValues counts the attributes in l to which the graph with the
// membership test m gives a value.
func (p *Pool) heldValues(m membership, l *attrList) int {
	n, answered := 0, noStr // values of one name are adjacent
	attrs := l.all()
	for i := range attrs {
		if av := &attrs[i]; av.name() != answered && p.has(m, av.bits()) {
			n, answered = n+1, av.name()
		}
	}
	return n
}

// valueIn returns the value the graph with the membership test m gives
// attribute attr in l: the first of the name's values it holds.
func (p *Pool) valueIn(m membership, l *attrList, attr string) (string, bool) {
	attrs := l.all()
	for i, hi := l.run(p.str(attr)); i < hi; i++ {
		if p.has(m, attrs[i].bits()) {
			return p.strs[attrs[i].val], true
		}
	}
	return "", false
}

// applyEvent applies ev to the graph e in place, as graph.Snapshot.Apply
// does: a delete takes the element's attribute values with it, an attribute
// may be set on an element that is not there, and an edge added again has
// the endpoints the add names, whatever another graph holds the id between.
// The caller holds the write lock.
func (p *Pool) applyEvent(e *graphEntry, ev graph.Event) {
	switch ev.Type {
	case graph.AddNode:
		e.nodeCount += p.put(e, p.node(ev.Node).bits(), true)
	case graph.DelNode:
		pn := p.node(ev.Node)
		e.nodeCount += p.put(e, pn.bits(), false)
		p.retire(e, pn.vals, 0, len(pn.vals.all()))
		e.outNodes = append(e.outNodes, ev.Node)
	case graph.AddEdge:
		e.edgeCount += p.put(e, p.edge(ev.Edge, graph.EdgeInfo{From: ev.Node, To: ev.Node2, Directed: ev.Directed}).bits(), true)
	case graph.DelEdge:
		if pe := p.held(e.m, ev.Edge); pe != nil {
			e.edgeCount += p.put(e, pe.bits(), false)
		}
		p.retire(e, p.edgeVals[ev.Edge], 0, len(p.edgeVals[ev.Edge].all()))
		e.outEdges = append(e.outEdges, ev.Edge)
	case graph.SetNodeAttr:
		p.setNodeAttr(e, ev.Node, ev.Attr, ev.New, ev.HasNew)
	case graph.SetEdgeAttr:
		p.setEdgeAttr(e, ev.Edge, ev.Attr, ev.New, ev.HasNew)
	}
}

// applyDelta applies d to the graph e in place, as delta.Delta.Apply does:
// its deletions, then its additions, so that a structural delete takes no
// attribute with it. The caller holds the write lock.
func (p *Pool) applyDelta(e *graphEntry, d *delta.Delta) {
	for _, rec := range d.DelNodeAttrs {
		p.setNodeAttr(e, rec.Node, rec.Attr, "", false)
	}
	for _, rec := range d.DelEdgeAttrs {
		p.setEdgeAttr(e, rec.Edge, rec.Attr, "", false)
	}
	for _, rec := range d.DelEdges {
		if pe := p.record(rec.ID, graph.EdgeInfo{From: rec.From, To: rec.To, Directed: rec.Directed}); pe != nil {
			e.edgeCount += p.put(e, pe.bits(), false)
			e.outEdges = append(e.outEdges, rec.ID)
		}
	}
	for _, n := range d.DelNodes {
		if pn := p.findNode(n); pn != nil {
			e.nodeCount += p.put(e, pn.bits(), false)
			e.outNodes = append(e.outNodes, n)
		}
	}
	for _, n := range d.AddNodes {
		e.nodeCount += p.put(e, p.node(n).bits(), true)
	}
	for _, rec := range d.AddEdges {
		e.edgeCount += p.put(e, p.edge(rec.ID, graph.EdgeInfo{From: rec.From, To: rec.To, Directed: rec.Directed}).bits(), true)
	}
	for _, rec := range d.SetNodeAttrs {
		p.setNodeAttr(e, rec.Node, rec.Attr, rec.Val, true)
	}
	for _, rec := range d.SetEdgeAttrs {
		p.setEdgeAttr(e, rec.Edge, rec.Attr, rec.Val, true)
	}
}

// put makes what b is the bitmap of a member of the graph e, or not (in),
// and returns what that adds to e's count of such members. What leaves the
// current graph is marked with bit 1; a dependent graph holds an exception
// where it differs from its dependency, and none where it does not.
func (p *Pool) put(e *graphEntry, b bitmap, in bool) int {
	var was bool
	switch {
	case e.kind == KindCurrent: // bits 0 and 1, both in word 0
		w := p.word0(b)
		if was = *w&1 != 0; in {
			*w |= 1
		} else {
			*w = *w&^1 | 1<<1
		}
	case e.m.exc >= 0 && in == p.bit(b, e.m.dep):
		was = p.has(e.m, b)
		p.unmark(b, e.m.exc)
		p.unmark(b, e.m.mem)
	default:
		if was = p.has(e.m, b); e.m.exc >= 0 {
			p.mark(b, e.m.exc)
		}
		if in {
			p.mark(b, e.m.mem)
		} else {
			p.unmark(b, e.m.mem)
		}
	}
	if in == was {
		return 0
	} else if in {
		return 1
	}
	return -1
}

// retire takes the values at l.all()[lo:hi] that e holds out of it and
// reports whether there were any.
func (p *Pool) retire(e *graphEntry, l *attrList, lo, hi int) (any bool) {
	attrs := l.all()
	for i := lo; i < hi; i++ {
		if b := attrs[i].bits(); p.has(e.m, b) {
			p.put(e, b, false)
			any = true
		}
	}
	return any
}

// setNodeAttr takes the value the graph e gives attribute attr of node n out
// of it and, if set, puts val in, unless e was not retrieved with attr.
func (p *Pool) setNodeAttr(e *graphEntry, n graph.NodeID, attr, val string, set bool) {
	if !e.attrs.WantNodeAttr(attr) {
		return
	}
	pn := p.findNode(n)
	if set && pn == nil {
		pn = p.node(n)
	}
	name, l := p.str(attr), pn.values()
	if lo, hi := l.run(name); p.retire(e, l, lo, hi) {
		e.outNodes = append(e.outNodes, n)
	}
	if set {
		p.put(e, p.value(pn.list(), name, attr, val), true)
	}
}

// setEdgeAttr is setNodeAttr for edge id.
func (p *Pool) setEdgeAttr(e *graphEntry, id graph.EdgeID, attr, val string, set bool) {
	if !e.attrs.WantEdgeAttr(attr) {
		return
	}
	name, l := p.str(attr), p.edgeVals[id]
	if lo, hi := l.run(name); p.retire(e, l, lo, hi) {
		e.outEdges = append(e.outEdges, id)
	}
	if set {
		p.put(e, p.value(p.values(id), name, attr, val), true)
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
	cur := p.graphs[CurrentGraph]
	n := len(cur.outNodes) + len(cur.outEdges)
	p.sweepOut(cur, &mask)
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
	// A free list keeps the room a burst of evictions grew it to, long after
	// new records have taken the slots back: give the room back.
	p.nodeSlab.free, p.edgeSlab.free = slices.Clone(p.nodeSlab.free), slices.Clone(p.edgeSlab.free)
	return removed
}

// unlink takes edge record i out of the adjacency list of each of its
// endpoints, and evicts the record of such an endpoint that nothing holds any
// more. It returns how many it evicted.
func (p *Pool) unlink(i uint32) (removed int) {
	for _, n := range p.edgeSlab.at(i).ends() {
		pn := p.nodeSlab.at(n)
		k, last := slices.Index(pn.adj, i), len(pn.adj)-1
		pn.adj[k] = pn.adj[last]
		if pn.adj = pn.adj[:last]; last == 0 {
			pn.adj = nil
		}
		if pn.dead() {
			p.evictNode(n)
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
	Spilled        int   // bitmaps that carry words beyond the inline one, for a bit past 63
	Bytes          int64 // ApproxBytes as of a started Cleaner's last pass (0 before the first)
}

// Stats returns current pool statistics.
func (p *Pool) Stats() Stats {
	p.mu.RLock()
	defer p.mu.RUnlock()
	st := Stats{
		ActiveGraphs: len(p.graphs),
		PoolNodes:    p.nodeIdx.n,
		PoolEdges:    p.edgeIdx.n,
		Spilled:      len(p.spill)/p.stride - len(p.free),
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
// table grows and 42 just after. It prices the pool's maps: alts, edgeVals
// and the strings of attribute values (an id finds its record through an
// idTable).
const mapSlot = 30

// heapSize is n rounded up about the way the allocator rounds an object:
// to a sixteenth of the next power of two, and to no less than 16.
func heapSize(n uintptr) int64 {
	step := uintptr(1) << max(bits.Len(uint(n)), 8) >> 4
	return int64((n + step - 1) &^ (step - 1))
}

// bytes returns the heap the attribute list owns: its header and values at
// their capacity (their strings are in Pool.strs).
func (l *attrList) bytes() int64 {
	if l == nil {
		return 0
	}
	return heapSize(unsafe.Sizeof(*l)) + heapSize(uintptr(cap(*l))*unsafe.Sizeof(attrVal{}))
}

// ApproxBytes estimates the pool's memory footprint from its layout: the
// chunks of records, the tables that find them, a node's adjacency list at its
// capacity, the attribute lists (header and values) at their capacity, the
// spill table and its free list, and the table of the values' strings, each
// string once. It is the quantity plotted in the paper's Figure 8(a).
func (p *Pool) ApproxBytes() int64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	total := p.nodeSlab.bytes() + p.edgeSlab.bytes() + p.nodeIdx.bytes() + p.edgeIdx.bytes()
	for _, pn := range p.nodes {
		total += pn.vals.bytes()
		if cap(pn.adj) > 0 {
			total += heapSize(uintptr(cap(pn.adj)) * 4)
		}
	}
	for _, alts := range p.alts {
		total += mapSlot + heapSize(uintptr(cap(alts))*4)
	}
	for _, l := range p.edgeVals {
		total += mapSlot + l.bytes()
	}
	total += heapSize(uintptr(cap(p.spill))*8) + heapSize(uintptr(cap(p.free))*4)
	total += heapSize(uintptr(cap(p.strs))*16) + heapSize(uintptr(cap(p.refs))*4) + heapSize(uintptr(cap(p.strFree))*4)
	for s := range p.strIDs {
		total += mapSlot + 16 + int64(len(s))
	}
	return total
}
