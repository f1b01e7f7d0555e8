package graphpool

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"historygraph/internal/bitset"
	"historygraph/internal/delta"
	"historygraph/internal/graph"
)

// buildSnapshot makes a snapshot with nodes 1..n, a chain of edges, and a
// "name" attribute on every node.
var allAttrs = graph.MustParseAttrOptions("+node:all+edge:all")

func buildSnapshot(n int) *graph.Snapshot {
	s := graph.NewSnapshot()
	for i := 1; i <= n; i++ {
		id := graph.NodeID(i)
		s.Nodes[id] = struct{}{}
		s.NodeAttrs[id] = map[string]string{"name": "node" + string(rune('a'+i%26))}
	}
	for i := 1; i < n; i++ {
		e := graph.EdgeID(i)
		s.Edges[e] = graph.EdgeInfo{From: graph.NodeID(i), To: graph.NodeID(i + 1)}
		s.EdgeAttrs[e] = map[string]string{"w": "1"}
	}
	return s
}

func TestOverlayAndViewRoundTrip(t *testing.T) {
	p := New()
	s := buildSnapshot(10)
	id := p.OverlaySnapshot(s, 100)
	v, err := p.View(id)
	if err != nil {
		t.Fatal(err)
	}
	if v.At() != 100 {
		t.Errorf("At = %d", v.At())
	}
	if !v.Snapshot().Equal(s) {
		t.Error("extracted snapshot differs from overlaid one")
	}
	if v.NumNodes() != 10 || v.NumEdges() != 9 {
		t.Errorf("counts: %d nodes %d edges", v.NumNodes(), v.NumEdges())
	}
}

func TestMultipleGraphsOverlaid(t *testing.T) {
	p := New()
	s1 := buildSnapshot(10)
	s2 := buildSnapshot(6) // subset of s1
	// s3: disjoint ID range
	s3 := graph.NewSnapshot()
	for i := 100; i < 105; i++ {
		s3.Nodes[graph.NodeID(i)] = struct{}{}
	}
	id1 := p.OverlaySnapshot(s1, 1)
	id2 := p.OverlaySnapshot(s2, 2)
	id3 := p.OverlaySnapshot(s3, 3)

	v1, _ := p.View(id1)
	v2, _ := p.View(id2)
	v3, _ := p.View(id3)
	if !v1.Snapshot().Equal(s1) || !v2.Snapshot().Equal(s2) || !v3.Snapshot().Equal(s3) {
		t.Fatal("co-resident graphs corrupted each other")
	}
	// The union is stored once: pool node count equals union size.
	if st := p.Stats(); st.PoolNodes != 15 {
		t.Errorf("pool nodes = %d, want 15 (10 shared + 5 disjoint)", st.PoolNodes)
	}
	if v2.HasNode(7) {
		t.Error("graph 2 should not contain node 7")
	}
	if !v1.HasNode(7) {
		t.Error("graph 1 should contain node 7")
	}
}

func TestViewTraversal(t *testing.T) {
	p := New()
	s := buildSnapshot(5)
	id := p.OverlaySnapshot(s, 1)
	v, _ := p.View(id)

	nbrs := v.Neighbors(2)
	if len(nbrs) != 2 {
		t.Errorf("Neighbors(2) = %v", nbrs)
	}
	if d := v.Degree(2); d != 2 {
		t.Errorf("Degree(2) = %d", d)
	}
	if d := v.Degree(1); d != 1 {
		t.Errorf("Degree(1) = %d", d)
	}
	if len(v.IncidentEdges(3)) != 2 {
		t.Error("IncidentEdges(3) wrong")
	}
	if got, ok := v.NodeAttr(1, "name"); !ok || got == "" {
		t.Error("NodeAttr missing")
	}
	if got, ok := v.EdgeAttr(1, "w"); !ok || got != "1" {
		t.Error("EdgeAttr missing")
	}
	if _, ok := v.NodeAttr(1, "absent"); ok {
		t.Error("absent attr reported present")
	}
	if info, ok := v.EdgeInfo(1); !ok || info.From != 1 || info.To != 2 {
		t.Error("EdgeInfo wrong")
	}
	if attrs := v.NodeAttrs(1); len(attrs) != 1 {
		t.Errorf("NodeAttrs = %v", attrs)
	}
	if attrs := v.NodeAttrs(999); attrs != nil {
		t.Error("NodeAttrs of absent node should be nil")
	}
	count := 0
	v.ForEachNode(func(graph.NodeID) bool { count++; return count < 3 })
	if count != 3 {
		t.Error("ForEachNode early stop failed")
	}
	if len(v.Nodes()) != 5 {
		t.Error("Nodes() wrong size")
	}
}

func TestCurrentGraphEvents(t *testing.T) {
	p := New()
	p.ApplyEvent(graph.Event{Type: graph.AddNode, Node: 1})
	p.ApplyEvent(graph.Event{Type: graph.AddNode, Node: 2})
	p.ApplyEvent(graph.Event{Type: graph.AddEdge, Edge: 1, Node: 1, Node2: 2})
	p.ApplyEvent(graph.Event{Type: graph.SetNodeAttr, Node: 1, Attr: "a", New: "v1", HasNew: true})
	cur := p.Current()
	if cur.NumNodes() != 2 || cur.NumEdges() != 1 {
		t.Fatalf("current counts: %d, %d", cur.NumNodes(), cur.NumEdges())
	}
	if got, _ := cur.NodeAttr(1, "a"); got != "v1" {
		t.Error("current attr wrong")
	}
	// Update the attribute: old value must leave the current graph.
	p.ApplyEvent(graph.Event{Type: graph.SetNodeAttr, Node: 1, Attr: "a", Old: "v1", HadOld: true, New: "v2", HasNew: true})
	if got, _ := cur.NodeAttr(1, "a"); got != "v2" {
		t.Error("attr update not visible")
	}
	// Delete an edge: bit 1 keeps it resident until ClearRecent.
	p.ApplyEvent(graph.Event{Type: graph.DelEdge, Edge: 1, Node: 1, Node2: 2})
	if cur.HasEdge(1) {
		t.Error("deleted edge still in current graph")
	}
	if p.Stats().PoolEdges != 1 {
		t.Error("recently deleted edge evicted too early")
	}
	p.ClearRecent()
	p.CleanNow()
	// Element had only bit 1 left; after ClearRecent+clean it may be
	// evicted once no graph holds it. (CleanNow only evicts for released
	// graphs' bits, so check membership rather than eviction.)
	if cur.HasEdge(1) {
		t.Error("edge reappeared")
	}
}

func TestDependentGraph(t *testing.T) {
	p := New()
	base := buildSnapshot(100)
	matID := p.OverlayMaterialized(base)

	// The historical graph differs from the materialized one in a few
	// elements: node 101 added, node 1 removed, attr of node 2 changed.
	target := base.Clone()
	target.Nodes[101] = struct{}{}
	delete(target.Nodes, 1)
	delete(target.NodeAttrs, 1)
	delete(target.Edges, 1) // edge 1 touches node 1
	delete(target.EdgeAttrs, 1)
	target.NodeAttrs[2]["name"] = "renamed"

	d := delta.Compute(target, base)
	histID, err := p.OverlayDependent(matID, d, 55, allAttrs)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := p.View(histID)
	if !v.Snapshot().Equal(target) {
		t.Fatal("dependent view differs from target snapshot")
	}
	if v.HasNode(1) || !v.HasNode(101) || !v.HasNode(50) {
		t.Error("membership via dependency wrong")
	}
	if got, _ := v.NodeAttr(2, "name"); got != "renamed" {
		t.Errorf("exception attr = %q", got)
	}
	if got, _ := v.NodeAttr(3, "name"); got == "" {
		t.Error("inherited attr missing")
	}
	// The materialized view must be unaffected.
	mv, _ := p.View(matID)
	if !mv.Snapshot().Equal(base) {
		t.Error("materialized graph corrupted by dependent overlay")
	}

	// Releasing the dependency before the dependent graph must fail.
	if err := p.Release(matID); err == nil {
		t.Error("released a materialized graph with dependents")
	}
	if err := p.Release(histID); err != nil {
		t.Fatal(err)
	}
	if err := p.Release(matID); err != nil {
		t.Errorf("release after dependent released: %v", err)
	}
}

// A released dependent a reader still pins reads its dependency's bit for
// everything that is not an exception: the dependency cannot be released,
// let alone cleaned, until the last pin is gone. (It could: Release stopped
// counting the dependent at once, and the pinned view lost every inherited
// element to the next CleanNow.)
func TestPinnedDependentKeepsItsDependency(t *testing.T) {
	p := New()
	base := buildSnapshot(20)
	matID := p.OverlayMaterialized(base)
	depID, err := p.OverlayDependent(matID, &delta.Delta{DelNodes: []graph.NodeID{20}}, 5, graph.AttrOptions{})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := p.View(depID)
	p.Pin(depID)
	p.Release(depID)
	if err := p.Release(matID); err == nil {
		t.Error("released a materialized graph a pinned view still depends on")
	}
	p.CleanNow()
	if got := len(v.Nodes()); got != 19 {
		t.Errorf("the pinned dependent view holds %d nodes after a clean pass, want 19", got)
	}
	p.Unpin(depID)
	if err := p.Release(matID); err != nil {
		t.Errorf("release after the last pin: %v", err)
	}
	if p.CleanNow(); p.Stats().PoolNodes != 0 {
		t.Errorf("%d nodes left with every graph gone", p.Stats().PoolNodes)
	}
}

// A dependent graph retrieved without (some) attributes must not show the
// ones its dependency holds: the exception delta carries none, so they
// would otherwise be inherited.
func TestDependentHonoursAttrOptions(t *testing.T) {
	p := New()
	base := buildSnapshot(20)
	matID := p.OverlayMaterialized(base)
	for _, tc := range []struct {
		opts      string
		node, edg bool
	}{{"", false, false}, {"+node:name", true, false}, {"+node:all-node:name+edge:all", false, true}} {
		opts := graph.MustParseAttrOptions(tc.opts)
		target := opts.FilterSnapshot(base.Clone())
		delete(target.Nodes, 20)
		delete(target.NodeAttrs, 20)
		d := delta.Compute(target, opts.FilterSnapshot(base.Clone()))
		id, err := p.OverlayDependent(matID, d, 7, opts)
		if err != nil {
			t.Fatal(err)
		}
		v, _ := p.View(id)
		if !v.Snapshot().Equal(target) {
			t.Errorf("%q: dependent view differs from the filtered snapshot", tc.opts)
		}
		if _, ok := v.NodeAttr(3, "name"); ok != tc.node {
			t.Errorf("%q: NodeAttr visible = %v, want %v", tc.opts, ok, tc.node)
		}
		if got := v.NodeAttrs(3) != nil; got != tc.node {
			t.Errorf("%q: NodeAttrs visible = %v, want %v", tc.opts, got, tc.node)
		}
		if _, ok := v.EdgeAttr(2, "w"); ok != tc.edg {
			t.Errorf("%q: EdgeAttr visible = %v, want %v", tc.opts, ok, tc.edg)
		}
		if got := v.EdgeAttrs(2) != nil; got != tc.edg {
			t.Errorf("%q: EdgeAttrs visible = %v, want %v", tc.opts, got, tc.edg)
		}
	}
}

func TestDependentRequiresMaterializedOrCurrent(t *testing.T) {
	p := New()
	histID := p.OverlaySnapshot(buildSnapshot(3), 1)
	if _, err := p.OverlayDependent(histID, &delta.Delta{}, 2, allAttrs); err == nil {
		t.Error("dependency on a historical graph allowed")
	}
	if _, err := p.OverlayDependent(999, &delta.Delta{}, 2, allAttrs); err == nil {
		t.Error("dependency on unknown graph allowed")
	}
}

func TestDependentOnCurrent(t *testing.T) {
	p := New()
	for i := 1; i <= 10; i++ {
		p.ApplyEvent(graph.Event{Type: graph.AddNode, Node: graph.NodeID(i)})
	}
	d := &delta.Delta{DelNodes: []graph.NodeID{10}, AddNodes: []graph.NodeID{11}}
	id, err := p.OverlayDependent(CurrentGraph, d, 9, allAttrs)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := p.View(id)
	if v.HasNode(10) || !v.HasNode(11) || !v.HasNode(5) {
		t.Error("dependent-on-current membership wrong")
	}
	if v.NumNodes() != 10 {
		t.Errorf("NumNodes = %d, want 10", v.NumNodes())
	}
}

func TestReleaseAndCleanup(t *testing.T) {
	p := New()
	s1 := buildSnapshot(50)
	id1 := p.OverlaySnapshot(s1, 1)
	id2 := p.OverlaySnapshot(buildSnapshot(30), 2)

	if err := p.Release(id1); err != nil {
		t.Fatal(err)
	}
	if err := p.Release(id1); err != nil {
		t.Errorf("double release should be a no-op: %v", err)
	}
	removed := p.CleanNow()
	if removed == 0 {
		t.Error("cleanup removed nothing")
	}
	// Elements only in graph 1 (nodes 31..50) must be gone.
	if st := p.Stats(); st.PoolNodes != 30 {
		t.Errorf("pool nodes after clean = %d, want 30", st.PoolNodes)
	}
	// Graph 2 must be intact.
	v2, _ := p.View(id2)
	if v2.NumNodes() != 30 || !v2.HasNode(30) {
		t.Error("surviving graph damaged by cleanup")
	}
	if _, err := p.View(id1); err == nil {
		t.Error("released graph still viewable after clean")
	}
	// Bits must be recycled.
	before := p.Stats().Bits
	p.OverlaySnapshot(buildSnapshot(5), 3)
	if p.Stats().Bits != before {
		t.Error("bit not recycled")
	}
}

func TestPinDefersCleanup(t *testing.T) {
	p := New()
	s := buildSnapshot(20)
	id := p.OverlaySnapshot(s, 1)
	v, err := p.View(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Pin(id); err != nil {
		t.Fatal(err)
	}
	if err := p.Release(id); err != nil {
		t.Fatal(err)
	}
	// Released graphs are not viewable anew; the pin protects the
	// pre-existing view, not new ones.
	if _, err := p.View(id); err == nil {
		t.Fatal("view of released graph allowed")
	}
	// A released-but-pinned graph survives cleanup with its view intact.
	p.CleanNow()
	if st := p.Stats(); st.ActiveGraphs != 2 || st.PinnedGraphs != 1 {
		t.Fatalf("pinned graph reclaimed: %+v", st)
	}
	if !v.Snapshot().Equal(s) {
		t.Fatal("pinned view corrupted by cleanup")
	}
	if got := p.Pins(id); got != 1 {
		t.Fatalf("Pins = %d, want 1", got)
	}
	if err := p.Unpin(id); err != nil {
		t.Fatal(err)
	}
	if removed := p.CleanNow(); removed == 0 {
		t.Fatal("unpinned released graph not reclaimed")
	}
	if st := p.Stats(); st.ActiveGraphs != 1 || st.PinnedGraphs != 0 {
		t.Fatalf("after unpin+clean: %+v", st)
	}
}

func TestPinErrors(t *testing.T) {
	p := New()
	if err := p.Pin(999); err == nil {
		t.Error("pinned unknown graph")
	}
	id := p.OverlaySnapshot(buildSnapshot(3), 1)
	if err := p.Unpin(id); err == nil {
		t.Error("unpinned a graph with no pins")
	}
	p.Release(id)
	if err := p.Pin(id); err == nil {
		t.Error("pinned a released graph")
	}
}

func TestReleaseErrors(t *testing.T) {
	p := New()
	if err := p.Release(CurrentGraph); err == nil {
		t.Error("released the current graph")
	}
	if err := p.Release(12345); err == nil {
		t.Error("released unknown graph")
	}
}

func TestViewOfReleasedGraphFails(t *testing.T) {
	p := New()
	id := p.OverlaySnapshot(buildSnapshot(3), 1)
	p.Release(id)
	if _, err := p.View(id); err == nil {
		t.Error("view of released graph allowed")
	}
}

func TestMappingTable(t *testing.T) {
	p := New()
	h := p.OverlaySnapshot(buildSnapshot(2), 7)
	m := p.OverlayMaterialized(buildSnapshot(2))
	dep, _ := p.OverlayDependent(m, &delta.Delta{}, 9, allAttrs)
	rows := p.MappingTable()
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Kind != KindCurrent || rows[0].Bits != [2]int{0, 1} {
		t.Errorf("current row wrong: %+v", rows[0])
	}
	byID := map[GraphID]MappingRow{}
	for _, r := range rows {
		byID[r.ID] = r
	}
	// An explicit graph holds one bit, a dependent one a pair; each the
	// lowest free.
	if r := byID[h]; r.Kind != KindHistorical || r.Bits != [2]int{2, -1} {
		t.Errorf("historical row wrong: %+v", r)
	}
	if r := byID[m]; r.Kind != KindMaterialized || r.Bits != [2]int{3, -1} {
		t.Errorf("materialized row wrong: %+v", r)
	}
	if r := byID[dep]; r.Kind != KindHistorical || r.Dep != m || r.Bits != [2]int{4, 5} {
		t.Errorf("dependent row wrong: %+v", r)
	}
	if got := p.Stats().Bits; got != 6 {
		t.Errorf("Stats().Bits = %d, want 6", got)
	}
	// Bit 2 freed: a pair does not fit there, a single does.
	p.Release(h)
	p.CleanNow()
	dep2, _ := p.OverlayDependent(m, &delta.Delta{}, 10, allAttrs)
	single := p.OverlaySnapshot(buildSnapshot(2), 11)
	byID = map[GraphID]MappingRow{}
	for _, r := range p.MappingTable() {
		byID[r.ID] = r
	}
	if byID[dep2].Bits != [2]int{6, 7} || byID[single].Bits != [2]int{2, -1} {
		t.Errorf("after bit 2 was freed: a dependent got %v, an explicit graph %v; want [6 7] and [2 -1]", byID[dep2].Bits, byID[single].Bits)
	}
}

// TestBitsFallAfterClean: Stats().Bits is the width the graphs hold now, not
// the most they ever held.
func TestBitsFallAfterClean(t *testing.T) {
	p := New()
	var ids []GraphID
	for i := range 80 {
		ids = append(ids, p.OverlaySnapshot(buildSnapshot(5), graph.Time(i)))
	}
	if got := p.Stats().Bits; got != 82 {
		t.Errorf("80 explicit views hold %d bits, want 82", got)
	}
	for _, id := range ids {
		if err := p.Release(id); err != nil {
			t.Fatal(err)
		}
	}
	if p.CleanNow(); p.Stats().Bits != 2 {
		t.Errorf("with every view released and cleaned the pool holds %d bits, want 2", p.Stats().Bits)
	}
}

// randomSnapshot draws a graph over nodes 1–40 and edges 1–30, with an
// attribute value on some of its nodes and edges.
func randomSnapshot(rng *rand.Rand) *graph.Snapshot {
	s := graph.NewSnapshot()
	for n := graph.NodeID(1); n <= 40; n++ {
		if rng.Intn(2) == 0 {
			s.Nodes[n] = struct{}{}
			if rng.Intn(3) == 0 {
				s.NodeAttrs[n] = map[string]string{"a": fmt.Sprint(rng.Intn(4))}
			}
		}
	}
	for e := graph.EdgeID(1); e <= 30; e++ {
		info := randomEnds(e)
		_, oku := s.Nodes[info.From]
		_, okv := s.Nodes[info.To]
		if oku && okv && rng.Intn(2) == 0 {
			s.Edges[e] = info
			if rng.Intn(3) == 0 {
				s.EdgeAttrs[e] = map[string]string{"w": fmt.Sprint(rng.Intn(4))}
			}
		}
	}
	return s
}

// randomEnds returns the nodes edge e joins in every randomSnapshot.
func randomEnds(e graph.EdgeID) graph.EdgeInfo {
	return graph.EdgeInfo{From: graph.NodeID(1 + (int(e)*3)%40), To: graph.NodeID(1 + (int(e)*11)%40)}
}

// countBitmaps returns how many bitmaps in the pool — of node and edge
// records and of attribute values — satisfy f.
func countBitmaps(p *Pool, f func(bitmap) bool) int {
	n := 0
	count := func(b bitmap) {
		if f(b) {
			n++
		}
	}
	values := func(l *attrList) {
		attrs := l.all()
		for i := range attrs {
			count(attrs[i].bits())
		}
	}
	for _, pn := range p.nodes {
		count(pn.bits())
		values(pn.vals)
	}
	for _, pe := range p.records {
		count(pe.bits())
	}
	for _, l := range p.edgeVals {
		values(l)
	}
	return n
}

// spilled returns how many slots of the pool's spill table a bitmap holds.
func spilled(p *Pool) int { return len(p.spill)/p.stride - len(p.free) }

// checkSlots holds the spill table to the bitmaps that name its slots: a
// flagged bitmap names a slot no other bitmap names and that has a bit past
// 63 set, and every other slot is zero and on the free list once.
func checkSlots(t *testing.T, p *Pool, where string) {
	t.Helper()
	named := make([]bool, len(p.spill)/p.stride)
	countBitmaps(p, func(b bitmap) bool {
		switch k := *b.first; {
		case !b.spilled():
		case k >= uint64(len(named)) || named[k]:
			t.Fatalf("%s: a bitmap names slot %d of %d, named already: %v", where, k, len(named), k < uint64(len(named)))
		case slices.Max(p.slot(k)[1:]) == 0:
			t.Fatalf("%s: a bitmap is flagged, and its slot %d has no bit past 63 set", where, k)
		default:
			named[k] = true
		}
		return false
	})
	for _, k := range p.free {
		if named[k] || slices.Max(p.slot(uint64(k))) != 0 {
			t.Fatalf("%s: free slot %d is named by a bitmap (%v) or holds bits %v", where, k, named[k], p.slot(uint64(k)))
		}
		named[k] = true
	}
	if k := slices.Index(named, false); k >= 0 {
		t.Fatalf("%s: slot %d of %d is neither free nor named by a bitmap", where, k, len(named))
	}
}

// checkDiffering holds Combine's walk, which tests inline words itself, to
// has: for the graphs on the lowest, the middle and the highest bit in the
// table as children, and for the explicit graphs below bit 64 (whose inline
// words the walk reads with masks), it finds a child differing from the
// current graph on exactly the records and values on which has answers for
// one of them otherwise than for the current graph. It writes nothing.
func checkDiffering(t *testing.T, p *Pool, where string) {
	t.Helper()
	all := slices.SortedFunc(maps.Keys(p.graphs), func(a, b GraphID) int { return p.graphs[a].bit - p.graphs[b].bit })
	var spread, explicit []membership
	for _, id := range slices.Compact([]GraphID{all[0], all[len(all)/2], all[len(all)-1]}) {
		spread = append(spread, p.graphs[id].m)
	}
	for _, id := range all {
		if m := p.graphs[id].m; m.exc < 0 && m.mem < 64 {
			explicit = append(explicit, m)
		}
	}
	cur := p.graphs[CurrentGraph].m
	for _, w := range []combineWalk{newCombineWalk(p, nil, spread, cur, false), newCombineWalk(p, nil, explicit, cur, false)} {
		check := func(b bitmap) {
			in := p.has(cur, b)
			differs := slices.ContainsFunc(w.kids, func(m membership) bool { return p.has(m, b) != in })
			if got, base := w.differs(b); got != differs || base != in {
				t.Fatalf("%s: the walk (masks %v) reads a child differing from the current graph %v, the current graph holding it %v, on a bitmap (spilled %v); has says %v and %v",
					where, w.inline, got, base, b.spilled(), differs, in)
			}
		}
		for _, pn := range p.nodes {
			check(pn.bits())
			for i := range pn.vals.all() {
				check((*pn.vals)[i].bits())
			}
		}
		for _, pe := range p.records {
			check(pe.bits())
		}
		for _, l := range p.edgeVals {
			for i := range *l {
				check((*l)[i].bits())
			}
		}
	}
}

// TestSpillRoundTrip takes the bitmaps of a node record, an edge record and
// an attribute value past bit 63 and back: bits 0, 5 and 63, then bit 64
// (each bitmap moves into a slot), then bit 130 (every slot widens), then
// those two cleared again, one by one and then by a mask. After every step
// each bitmap reads as a bitset.Bits kept beside it, the flag is set exactly
// while a bit past 63 is, the slots match the flags, and the fields the flags
// share their words with read as they did.
func TestSpillRoundTrip(t *testing.T) {
	p := New()
	info := graph.EdgeInfo{From: 1, To: 2, Directed: true}
	pe := p.edge(7, info)
	pn := p.findNode(1)
	l := p.values(7)
	p.value(l, p.str("weight"), "weight", "3")
	av := &(*l)[0]
	name := av.name()
	bitmaps := []struct {
		label string
		b     bitmap
		model bitset.Bits
	}{{label: "node", b: pn.bits()}, {label: "edge", b: pe.bits()}, {label: "value", b: av.bits()}}
	do := func(where string, op func(b bitmap, model *bitset.Bits)) {
		t.Helper()
		for i := range bitmaps {
			bm := &bitmaps[i]
			op(bm.b, &bm.model)
			high := false
			for j := 0; j < 192; j++ {
				if got, want := p.bit(bm.b, j), bm.model.Get(j); got != want {
					t.Fatalf("%s: the %s's bit %d reads %v, want %v", where, bm.label, j, got, want)
				}
				high = high || (j >= 64 && bm.model.Get(j))
			}
			if bm.b.spilled() != high {
				t.Fatalf("%s: the %s's bitmap is flagged %v, with a bit past 63 set %v", where, bm.label, bm.b.spilled(), high)
			}
		}
		checkSlots(t, p, where)
		if p.info(pe) != info || !pe.live() || !pn.live() || pn.id != 1 || av.name() != name || p.strs[av.name()] != "weight" || p.strs[av.val] != "3" {
			t.Fatalf("%s: the edge reads %v (live %v), the node %d (live %v), the value %q=%q", where, p.info(pe), pe.live(), pn.id, pn.live(), p.strs[av.name()], p.strs[av.val])
		}
	}
	set := func(bits ...int) func(bitmap, *bitset.Bits) {
		return func(b bitmap, model *bitset.Bits) {
			for _, i := range bits {
				p.mark(b, i)
				model.Set(i)
			}
		}
	}
	var high bitset.Bits
	high.Set(64)
	high.Set(130)
	for _, byMask := range []bool{false, true} {
		where := fmt.Sprintf("cleared by mask %v", byMask)
		do(where+", bits 0, 5 and 63", set(0, 5, 63))
		if spilled(p) != 0 {
			t.Fatalf("%s: %d slots held with no bit past 63", where, spilled(p))
		}
		do(where+", bit 64", set(64))
		if stride := map[bool]int{false: 2, true: 3}[byMask]; spilled(p) != 3 || p.stride != stride { // slots never narrow
			t.Fatalf("%s, bit 64: %d slots of %d words held, want 3 of %d", where, spilled(p), p.stride, stride)
		}
		do(where+", bit 130", set(130))
		if spilled(p) != 3 || p.stride != 3 {
			t.Fatalf("%s, bit 130: %d slots of %d words held, want 3 of 3", where, spilled(p), p.stride)
		}
		if byMask {
			do(where+", bits 64 and 130", func(b bitmap, model *bitset.Bits) {
				p.andNot(b, &high)
				model.AndNot(&high)
			})
		} else {
			for _, i := range []int{130, 64} {
				do(fmt.Sprintf("%s, bit %d", where, i), func(b bitmap, model *bitset.Bits) {
					p.unmark(b, i)
					var one bitset.Bits
					one.Set(i)
					model.AndNot(&one)
				})
			}
		}
		if spilled(p) != 0 || len(p.free) != 3 {
			t.Fatalf("%s: back below bit 64, %d slots held and %d free, want 0 and 3", where, spilled(p), len(p.free))
		}
	}
}

// checkViews holds each graph's view to the snapshot it was overlaid from.
func checkViews(t *testing.T, where string, p *Pool, want map[GraphID]*graph.Snapshot) {
	t.Helper()
	for id, s := range want {
		if v, err := p.View(id); err != nil || !v.Snapshot().Equal(s) || v.NumNodes() != len(s.Nodes) || v.NumEdges() != len(s.Edges) {
			t.Fatalf("%s: graph %d (bit %d) does not read the graph it was overlaid from (%v)", where, id, p.graphs[id].bit, err)
		}
	}
}

// TestHeldViewsStayInline is the served shape: a view cache holding 32
// explicit views lets the oldest go and retrieves a new one on every miss,
// with no cleaner running. The views keep to bits 2–63 — the pool sweeps
// the released graphs before it would hand out bit 64 — so no bitmap in the
// pool carries a word beyond its record's, and every view reads its graph.
// That holds too when the views are structure-only views of the current
// graph, whose release frees their bits and evicts nothing.
func TestHeldViewsStayInline(t *testing.T) {
	for _, ofCurrent := range []bool{false, true} {
		rng := rand.New(rand.NewSource(33))
		p := New()
		draw := func() *graph.Snapshot { return randomSnapshot(rng) }
		if ofCurrent {
			all := graph.NewSnapshot()
			for n := graph.NodeID(1); n <= 40; n++ {
				all.Nodes[n] = struct{}{}
			}
			for e := graph.EdgeID(1); e <= 30; e++ {
				all.Edges[e] = randomEnds(e)
			}
			p.LoadCurrent(all)
			draw = func() *graph.Snapshot { return graph.AttrOptions{}.FilterSnapshot(randomSnapshot(rng)) }
		}
		var order []GraphID
		want := map[GraphID]*graph.Snapshot{}
		overlay := func() {
			s := draw()
			id := p.OverlaySnapshot(s, 0)
			order, want[id] = append(order, id), s
		}
		for range 32 {
			overlay()
		}
		for step := range 200 {
			if err := p.Release(order[0]); err != nil {
				t.Fatal(err)
			}
			delete(want, order[0])
			order = order[1:]
			overlay()
			where := fmt.Sprintf("views of the current graph %v, step %d", ofCurrent, step)
			if got := p.Stats().Bits; got > 64 {
				t.Fatalf("%s: the pool holds %d bits, want at most 64", where, got)
			}
			if n := spilled(p); n > 0 {
				t.Fatalf("%s: %d bitmaps carry a word beyond the inline one", where, n)
			}
			checkViews(t, where, p, want)
		}
	}
}

// A released graph a reader pins keeps its bit: the sweep an overlay runs
// before spilling past bit 63 passes it over, the new graph spills, and the
// pinned view still reads its graph. Once the reader unpins, the next such
// sweep frees the bit and the next graph gets it.
func TestPinnedReleasedGraphKeepsItsBit(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	p := New()
	want := map[GraphID]*graph.Snapshot{}
	overlay := func() GraphID {
		s := randomSnapshot(rng)
		id := p.OverlaySnapshot(s, 0)
		want[id] = s
		return id
	}
	reader := overlay()
	v, _ := p.View(reader)
	if err := p.Pin(reader); err != nil {
		t.Fatal(err)
	}
	if err := p.Release(reader); err != nil {
		t.Fatal(err)
	}
	for range 61 { // bits 3–63
		overlay()
	}
	if got := p.graphs[overlay()].bit; got != 64 {
		t.Errorf("with bits 2–63 held, one of them by a pinned released graph, the next graph got bit %d, want 64", got)
	}
	if !v.Snapshot().Equal(want[reader]) {
		t.Error("the pinned view no longer reads its graph")
	}
	delete(want, reader)
	checkViews(t, "with the pool spilled", p, want)
	if err := p.Unpin(reader); err != nil {
		t.Fatal(err)
	}
	if got := p.graphs[overlay()].bit; got != 2 {
		t.Errorf("once the reader unpinned, the next graph got bit %d, want 2", got)
	}
	checkViews(t, "with the pinned graph's bit handed out again", p, want)
}

// A bit handed out again reads clear on every element: the graph that held
// it is swept from each before the bit is free, whether the cleaner's pass
// ran the sweep or an overlay about to spill past bit 63 did.
func TestReusedBitReadsClear(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	p := New()
	want := map[GraphID]*graph.Snapshot{}
	var ids []GraphID
	for range 62 { // bits 2–63, the first the widest
		s := randomSnapshot(rng)
		if len(ids) == 0 {
			s = buildSnapshot(40)
		}
		ids = append(ids, p.OverlaySnapshot(s, 0))
		want[ids[len(ids)-1]] = s
	}
	for i, sweep := range []string{"CleanNow", "an overlay"} {
		if err := p.Release(ids[i]); err != nil {
			t.Fatal(err)
		}
		delete(want, ids[i])
		if i == 0 {
			p.CleanNow()
		}
		s := randomSnapshot(rng)
		id := p.OverlaySnapshot(s, 0)
		want[id] = s
		if got := p.graphs[id].bit; got != 2+i {
			t.Fatalf("after %s freed bit %d the new graph got bit %d", sweep, 2+i, got)
		}
		checkViews(t, "after "+sweep+" freed a bit", p, want)
		marks := len(s.Nodes) + len(s.Edges)
		for _, attrs := range s.NodeAttrs {
			marks += len(attrs)
		}
		for _, attrs := range s.EdgeAttrs {
			marks += len(attrs)
		}
		if carry := countBitmaps(p, func(b bitmap) bool { return p.bit(b, 2+i) }); carry != marks {
			t.Errorf("after %s freed bit %d, %d elements and values carry it; the graph given it has %d", sweep, 2+i, carry, marks)
		}
	}
}

func TestApproxBytesGrowsSublinearly(t *testing.T) {
	// Overlaying the same snapshot many times must cost far less than
	// disjoint storage: that is GraphPool's reason to exist (Fig 8a).
	p := New()
	s := buildSnapshot(1000)
	p.OverlaySnapshot(s, 1)
	oneBytes := p.ApproxBytes()
	for i := 2; i <= 20; i++ {
		p.OverlaySnapshot(s, graph.Time(i))
	}
	twentyBytes := p.ApproxBytes()
	if twentyBytes > oneBytes*3 {
		t.Errorf("20 identical graphs cost %dx one graph; want ~1x", twentyBytes/oneBytes)
	}
}

// Property: overlaying random snapshots and releasing a random subset never
// corrupts the survivors.
func TestPoolRandomizedIsolation(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := New()
		type reg struct {
			id   GraphID
			snap *graph.Snapshot
		}
		var regs []reg
		for i := 0; i < 8; i++ {
			s := graph.NewSnapshot()
			for n := graph.NodeID(1); n <= 40; n++ {
				if rng.Intn(2) == 0 {
					s.Nodes[n] = struct{}{}
				}
			}
			for e := graph.EdgeID(1); e <= 30; e++ {
				u := graph.NodeID(1 + (int(e)*3)%40)
				v := graph.NodeID(1 + (int(e)*11)%40)
				if _, oku := s.Nodes[u]; !oku {
					continue
				}
				if _, okv := s.Nodes[v]; !okv {
					continue
				}
				if rng.Intn(2) == 0 {
					s.Edges[e] = graph.EdgeInfo{From: u, To: v}
				}
			}
			regs = append(regs, reg{p.OverlaySnapshot(s, graph.Time(i)), s})
		}
		// Release a random subset and clean.
		var kept []reg
		for _, r := range regs {
			if rng.Intn(2) == 0 {
				if p.Release(r.id) != nil {
					return false
				}
			} else {
				kept = append(kept, r)
			}
		}
		p.CleanNow()
		for _, r := range kept {
			v, err := p.View(r.id)
			if err != nil || !v.Snapshot().Equal(r.snap) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestClearRecentVisitsOnlyRecentDeletes: a leaf cut clears bit 1 on the
// elements deleted since the last cut, not on the pool — and, since nothing
// holds them any more, takes them out of it.
func TestClearRecentVisitsOnlyRecentDeletes(t *testing.T) {
	p := New()
	const nodes, deletes = 5000, 7
	for n := graph.NodeID(1); n <= nodes; n++ {
		p.ApplyEvent(graph.Event{Type: graph.AddNode, Node: n})
		p.ApplyEvent(graph.Event{Type: graph.SetNodeAttr, Node: n, Attr: "a", New: "v", HasNew: true})
	}
	if n := p.ClearRecent(); n != 0 {
		t.Fatalf("nothing was deleted, ClearRecent visited %d elements", n)
	}
	for n := graph.NodeID(1); n <= deletes; n++ {
		p.ApplyEvent(graph.Event{Type: graph.SetNodeAttr, Node: n, Attr: "a", Old: "v", HadOld: true}) // one attribute value
		p.ApplyEvent(graph.Event{Type: graph.DelNode, Node: n})                                        // one node
	}
	if got := p.Stats().PoolNodes; got != nodes {
		t.Fatalf("recently deleted nodes must stay resident: %d of %d", got, nodes)
	}
	for n := graph.NodeID(1); n <= deletes; n++ {
		if pn := p.findNode(n); !p.bit(pn.bits(), 1) || !p.bit(pn.vals.all()[0].bits(), 1) {
			t.Fatalf("node %d not marked recently deleted", n)
		}
	}
	if n := p.ClearRecent(); n != 2*deletes {
		t.Errorf("%d deletes of a node and its attribute: ClearRecent visited %d elements, want %d (the pool holds %d nodes)", deletes, n, 2*deletes, nodes)
	}
	if n := p.ClearRecent(); n != 0 {
		t.Errorf("a second ClearRecent visited %d elements", n)
	}
	if got := p.Stats().PoolNodes; got != nodes-deletes {
		t.Errorf("pool holds %d nodes after the cut, want %d: the deleted ones are in no graph", got, nodes-deletes)
	}
}

// TestClearRecentEvictsDeadElements: a pool that is only written to (a
// follower, a primary between reads) never has a released graph, so CleanNow
// never sweeps it; what is deleted from the current graph must leave at the
// leaf cut. An element another graph still holds must not.
func TestClearRecentEvictsDeadElements(t *testing.T) {
	p := New()
	p.ApplyEvent(graph.Event{Type: graph.AddNode, Node: 1})
	p.ApplyEvent(graph.Event{Type: graph.AddNode, Node: 2})
	p.ApplyEvent(graph.Event{Type: graph.SetNodeAttr, Node: 1, Attr: "a", New: "v0", HasNew: true})
	const pairs = 1000
	for e := graph.EdgeID(1); e <= pairs; e++ {
		p.ApplyEvent(graph.Event{Type: graph.AddEdge, Edge: e, Node: 1, Node2: 2})
		p.ApplyEvent(graph.Event{Type: graph.SetEdgeAttr, Edge: e, Attr: "w", New: "1", HasNew: true})
		if e == pairs {
			break // the last edge stays, held below
		}
		p.ApplyEvent(graph.Event{Type: graph.SetNodeAttr, Node: 1, Attr: "a", Old: fmt.Sprint("v", e-1), HadOld: true, New: fmt.Sprint("v", e), HasNew: true})
		p.ApplyEvent(graph.Event{Type: graph.SetEdgeAttr, Edge: e, Attr: "w", Old: "1", HadOld: true})
		p.ApplyEvent(graph.Event{Type: graph.DelEdge, Edge: e, Node: 1, Node2: 2})
	}
	held := p.Current().Snapshot()
	id := p.OverlaySnapshot(held, 1)
	p.ApplyEvent(graph.Event{Type: graph.SetEdgeAttr, Edge: pairs, Attr: "w", Old: "1", HadOld: true})
	p.ApplyEvent(graph.Event{Type: graph.DelEdge, Edge: pairs, Node: 1, Node2: 2})
	if got := p.Stats().PoolEdges; got != pairs {
		t.Fatalf("recently deleted edges must stay resident: %d of %d", got, pairs)
	}
	p.ClearRecent()
	if got, adj := p.Stats().PoolEdges, len(p.adjacent(1))+len(p.adjacent(2)); got != 1 || adj != 2 {
		t.Errorf("after ClearRecent the pool holds %d edges and %d adjacency entries, want 1 and 2 (the edge the overlaid graph holds)", got, adj)
	}
	if got := len(p.findNode(1).vals.all()); got != 1 {
		t.Errorf("node 1 keeps %d values of an attribute replaced %d times, want 1", got, pairs-1)
	}
	if p.CleanNow(); p.Stats().PoolEdges != 1 {
		t.Error("CleanNow with nothing released changed the pool")
	}
	if v, _ := p.View(id); !v.Snapshot().Equal(held) {
		t.Error("ClearRecent damaged a graph that holds a deleted element")
	}
	if cur := p.Current(); cur.NumEdges() != 0 || cur.HasEdge(pairs) {
		t.Error("deleted edge back in the current graph")
	}
}

// TestEndpointRecordsLeaveWithTheirEdges: a node that only an edge record
// names has a record of its own, which holds its adjacency, for as long as
// the edge record is there and no longer; no graph lists it among its nodes.
// Three histories leave such a node: an edge between ids never added as
// nodes, nodes deleted while a held graph keeps the edge between them, and
// an edge id moved to another pair while a held graph keeps the first pair.
// Once the held graph is released and cleaned and the deletes are cleared,
// the pool is what a pool that only ever held the current graph is.
func TestEndpointRecordsLeaveWithTheirEdges(t *testing.T) {
	edge := func(typ graph.EventType, e graph.EdgeID, from, to graph.NodeID) graph.Event {
		return graph.Event{Type: typ, Edge: e, Node: from, Node2: to}
	}
	node := func(typ graph.EventType, n graph.NodeID) graph.Event { return graph.Event{Type: typ, Node: n} }
	edgeAlone := graph.NewSnapshot() // a materialized graph may hold an edge without its ends
	edgeAlone.Edges[1] = graph.EdgeInfo{From: 1, To: 2}
	for _, tc := range []struct {
		name     string
		before   []graph.Event   // then a graph is overlaid and held
		held     *graph.Snapshot // nil: the current graph's snapshot, overlaid explicitly
		after    []graph.Event
		endpoint []graph.NodeID // the nodes only an edge record names, after
	}{
		{"never added", []graph.Event{edge(graph.AddEdge, 1, 10, 11)}, nil,
			[]graph.Event{edge(graph.DelEdge, 1, 10, 11)}, []graph.NodeID{10, 11}},
		{"deleted", []graph.Event{node(graph.AddNode, 1), node(graph.AddNode, 2), edge(graph.AddEdge, 1, 1, 2)},
			edgeAlone,
			[]graph.Event{edge(graph.DelEdge, 1, 1, 2), node(graph.DelNode, 1), node(graph.DelNode, 2)}, []graph.NodeID{1, 2}},
		{"moved", []graph.Event{edge(graph.AddEdge, 5, 1, 2)}, nil,
			[]graph.Event{edge(graph.DelEdge, 5, 1, 2), edge(graph.AddEdge, 5, 3, 4)}, []graph.NodeID{1, 2, 3, 4}},
	} {
		p, cur := New(), graph.NewSnapshot()
		apply := func(evs []graph.Event) {
			for _, ev := range evs {
				p.ApplyEvent(ev)
				cur.Apply(ev)
			}
			p.ClearRecent()
		}
		apply(tc.before)
		held, heldID := tc.held, GraphID(0)
		if held == nil {
			held = cur.Clone()
			heldID = p.OverlaySnapshot(held, 1)
		} else {
			heldID = p.OverlayMaterialized(held)
		}
		apply(tc.after)
		heldView, _ := p.View(heldID)
		for _, g := range []struct {
			v    *View
			want *graph.Snapshot
		}{{p.Current(), cur}, {heldView, held}} {
			where := fmt.Sprintf("%s: graph %d", tc.name, g.v.ID())
			if got := g.v.Nodes(); len(got) != len(g.want.Nodes) {
				t.Errorf("%s lists nodes %v, has %d", where, got, len(g.want.Nodes))
			}
			for _, n := range tc.endpoint {
				checkAdjacency(t, where, g.v, g.want, n)
			}
		}
		for _, n := range tc.endpoint {
			if pn := p.findNode(n); pn == nil || len(pn.adj) == 0 || !pn.bits().empty() || pn.vals != nil {
				t.Errorf("%s: node %d has record %+v, want one with adjacency alone", tc.name, n, pn)
			}
		}

		if err := p.Release(heldID); err != nil {
			t.Fatal(err)
		}
		p.CleanNow()
		p.ClearRecent()
		alone := New()
		alone.LoadCurrent(cur)
		if got, want := p.Stats(), alone.Stats(); got.PoolNodes != want.PoolNodes || got.PoolEdges != want.PoolEdges || p.ApproxBytes() != alone.ApproxBytes() {
			t.Errorf("%s: with the held graph gone the pool holds %d nodes, %d edges, %d B; the current graph alone %d, %d, %d B",
				tc.name, got.PoolNodes, got.PoolEdges, p.ApproxBytes(), want.PoolNodes, want.PoolEdges, alone.ApproxBytes())
		}
		for _, n := range tc.endpoint {
			if alone.findNode(n) == nil && p.findNode(n) != nil {
				t.Errorf("%s: node %d keeps a record with no edge at it", tc.name, n)
			}
		}
	}
}

// TestCurrentGraphIsSnapshotApply: ApplyEvent means what graph.Snapshot.Apply
// means, whatever the trace does — deletes of elements that carry
// attributes (they go too: NN 1, UNA 1 a=x, DN 1, NN 1 leaves node 1 bare),
// attributes set on ids never added and on deleted ones, re-adds, with
// ClearRecent and a reload falling in between. The current graph's view
// says so whole (Snapshot), an Admission reads each event as Apply takes it
// (checkAdmission), and other graphs in the pool are not disturbed.
// checkAdjacency holds what v says of the edges at n, locked and frozen, to
// the snapshot s of the same graph.
func checkAdjacency(t *testing.T, where string, v *View, s *graph.Snapshot, n graph.NodeID) {
	t.Helper()
	var edges []graph.EdgeID
	nbrs := map[graph.NodeID]bool{}
	for e, info := range s.Edges {
		if info.Touches(n) {
			edges, nbrs[info.Other(n)] = append(edges, e), true
		}
	}
	sorted := func(x any) string {
		out := fmt.Sprint(x)
		switch x := x.(type) {
		case []graph.EdgeID:
			slices.Sort(x)
			out = fmt.Sprint(x)
		case []graph.NodeID:
			slices.Sort(x)
			out = fmt.Sprint(slices.Compact(x))
		}
		return out
	}
	f := v.Freeze()
	if got, want := sorted(v.IncidentEdges(n)), sorted(edges); got != want || v.Degree(n) != len(edges) || len(f.Neighbors(n)) != len(edges) {
		t.Fatalf("%s has edges %s at node %d (degree %d, frozen %d), want %s", where, got, n, v.Degree(n), len(f.Neighbors(n)), want)
	}
	if got, frozen, want := sorted(v.Neighbors(n)), sorted(f.Neighbors(n)), sorted(slices.Collect(maps.Keys(nbrs))); got != want || frozen != want {
		t.Fatalf("%s has neighbors %s of node %d (frozen %s), want %s", where, got, n, frozen, want)
	}
	for _, e := range edges {
		if info, ok := v.EdgeInfo(e); !ok || info != s.Edges[e] || !v.HasEdge(e) {
			t.Fatalf("%s says edge %d is %v (%v), want %v", where, e, info, ok, s.Edges[e])
		}
	}
}

// checkAdmission holds what an Admission reads of ev against the current
// graph to what graph.Snapshot.Apply does with it to want, the same graph:
// whether it changes anything, by how much the size grows, the value it
// replaces and the endpoints of the edge it deletes. It applies nothing.
func checkAdmission(t *testing.T, where string, p *Pool, want *graph.Snapshot, ev graph.Event) {
	t.Helper()
	a := p.Admit()
	got := ev
	grow, changes := a.Check(&got)
	a.Pause()
	next := want.Clone()
	next.Apply(ev)
	if changes == next.Equal(want) || (changes && grow != next.Size()-want.Size()) {
		t.Fatalf("%s: Check reads changes %v, growth %d; Snapshot.Apply grows %d and changes %v", where, changes, grow, next.Size()-want.Size(), !next.Equal(want))
	}
	var old map[string]string
	switch ev.Type {
	case graph.SetNodeAttr:
		old = want.NodeAttrs[ev.Node]
	case graph.SetEdgeAttr:
		old = want.EdgeAttrs[ev.Edge]
	}
	if v, ok := old[ev.Attr]; old != nil && (got.Old != v || got.HadOld != ok) {
		t.Fatalf("%s: Check reads the old value %q (%v), want %q (%v)", where, got.Old, got.HadOld, v, ok)
	}
	if info, ok := want.Edges[ev.Edge]; ok && ev.Type == graph.DelEdge && (got.Node != info.From || got.Node2 != info.To || got.Directed != info.Directed) {
		t.Fatalf("%s: Check reads the endpoints %d-%d, want %v", where, got.Node, got.Node2, info)
	}
}

func TestCurrentGraphIsSnapshotApply(t *testing.T) {
	p := New()
	for _, ev := range []graph.Event{
		{Type: graph.AddNode, Node: 1}, {Type: graph.SetNodeAttr, Node: 1, Attr: "a", New: "x", HasNew: true},
		{Type: graph.DelNode, Node: 1}, {Type: graph.AddNode, Node: 1},
	} {
		p.ApplyEvent(ev)
	}
	if s := p.Current().Snapshot(); !p.Current().HasNode(1) || s.NodeAttrs[1] != nil || p.Current().NodeAttrs(1) != nil {
		t.Fatalf("a node deleted with an attribute on it and added again: present %v with %v, want it bare", p.Current().HasNode(1), s.NodeAttrs[1])
	}

	// An edge id deleted and added again between other nodes, while a graph
	// retrieved earlier still holds the old edge: each graph has its own.
	p.ApplyEvent(graph.Event{Type: graph.AddEdge, Edge: 5, Node: 1, Node2: 2})
	old := p.Current().Snapshot()
	oldID := p.OverlaySnapshot(old, 0)
	p.ApplyEvent(graph.Event{Type: graph.DelEdge, Edge: 5, Node: 1, Node2: 2})
	p.ClearRecent()
	p.ApplyEvent(graph.Event{Type: graph.AddEdge, Edge: 5, Node: 3, Node2: 4})
	want := old.Clone()
	want.Edges[5] = graph.EdgeInfo{From: 3, To: 4}
	oldView, _ := p.View(oldID)
	for n := graph.NodeID(1); n <= 4; n++ {
		checkAdjacency(t, "the current graph", p.Current(), want, n)
		checkAdjacency(t, "the graph retrieved before", oldView, old, n)
	}
	if err := p.Release(oldID); err != nil {
		t.Fatal(err)
	}
	// Node 1 is in the current graph; 3 and 4 are held by the edge alone, and
	// 2 by nothing.
	if p.CleanNow(); !p.Current().Snapshot().Equal(want) || p.Stats().PoolEdges != 1 || p.Stats().PoolNodes != 3 || p.findNode(2) != nil ||
		len(p.adjacent(1)) != 0 || len(p.adjacent(3)) != 1 || len(p.adjacent(4)) != 1 {
		t.Fatalf("with the other graph gone the pool holds %d edge records and %d node records: want one, between 3 and 4, and nodes 1, 3 and 4",
			p.Stats().PoolEdges, p.Stats().PoolNodes)
	}

	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p, want := New(), graph.NewSnapshot()
		const ids = 8
		held := buildSnapshot(ids) // another graph over the same ids
		heldID := p.OverlaySnapshot(held, 0)
		for i := 0; i < 800; i++ {
			node, edge := graph.NodeID(1+rng.Intn(ids)), graph.EdgeID(1+rng.Intn(ids))
			ev := graph.Event{Node: node}
			if rng.Intn(2) == 0 { // an edge event; edge e joins e and e+1, as in held, or e+1 and e+3
				ev.Edge, ev.Node, ev.Node2 = edge, graph.NodeID(edge), graph.NodeID(edge+1)
				if rng.Intn(3) == 0 {
					ev.Node, ev.Node2 = ev.Node+1, ev.Node2+2
				}
			}
			switch k := rng.Intn(6); {
			case k < 2:
				ev.Type = graph.AddNode
			case k < 3:
				ev.Type = graph.DelNode
			default:
				ev.Type, ev.Attr = graph.SetNodeAttr, []string{"name", "w", "z"}[rng.Intn(3)]
				if rng.Intn(4) != 0 {
					ev.New, ev.HasNew = []string{"1", "2", "nodeb"}[rng.Intn(3)], true
				}
			}
			if ev.Edge != 0 {
				ev.Type = map[graph.EventType]graph.EventType{graph.AddNode: graph.AddEdge, graph.DelNode: graph.DelEdge, graph.SetNodeAttr: graph.SetEdgeAttr}[ev.Type]
			}
			// The index admits only what changes the graph: no add of a live
			// element.
			if _, live := want.Nodes[ev.Node]; live && ev.Type == graph.AddNode {
				continue
			}
			if info, live := want.Edges[ev.Edge]; live && ev.Type == graph.AddEdge {
				continue
			} else if live && ev.Type == graph.DelEdge { // and it knows the endpoints of a live edge
				ev.Node, ev.Node2 = info.From, info.To
			}
			checkAdmission(t, fmt.Sprintf("seed %d, event %d (%+v)", seed, i, ev), p, want, ev)
			p.ApplyEvent(ev)
			want.Apply(ev)
			switch rng.Intn(12) {
			case 0:
				p.ClearRecent()
			case 1:
				p.LoadCurrent(want)
			}
			cur := p.Current()
			if got := cur.Snapshot(); !got.Equal(want) {
				t.Fatalf("seed %d, after event %d (%+v): the current graph is nodes %v attrs %v, edges %v attrs %v; Snapshot.Apply says %v %v, %v %v",
					seed, i, ev, got.Nodes, got.NodeAttrs, got.Edges, got.EdgeAttrs, want.Nodes, want.NodeAttrs, want.Edges, want.EdgeAttrs)
			}
			if cur.NumNodes() != len(want.Nodes) || cur.NumEdges() != len(want.Edges) {
				t.Fatalf("seed %d, after event %d: counts %d and %d, want %d and %d", seed, i, cur.NumNodes(), cur.NumEdges(), len(want.Nodes), len(want.Edges))
			}
			for _, probe := range []graph.Event{
				{Type: graph.DelNode, Node: node}, {Type: graph.DelEdge, Edge: edge},
				{Type: graph.SetNodeAttr, Node: node, Attr: "w"}, {Type: graph.SetEdgeAttr, Edge: edge, Attr: "z", New: "1", HasNew: true},
			} {
				checkAdmission(t, fmt.Sprintf("seed %d, after event %d", seed, i), p, want, probe)
			}
			where := fmt.Sprintf("seed %d, after event %d (%+v): the current graph", seed, i, ev)
			checkAdjacency(t, where, cur, want, node)
			heldView, _ := p.View(heldID)
			checkAdjacency(t, where+" set beside a graph that", heldView, held, node)
			if i%16 == 0 { // the other graph once more, as what it differs from the current graph in
				depID, err := p.OverlayDependent(CurrentGraph, delta.Compute(held, want), 0, allAttrs)
				if err != nil {
					t.Fatal(err)
				}
				dep, _ := p.View(depID)
				if got := dep.Snapshot(); !got.Equal(held) {
					t.Fatalf("%s has a dependent with edges %v attrs %v, want %v %v", where, got.Edges, got.EdgeAttrs, held.Edges, held.EdgeAttrs)
				}
				checkAdjacency(t, where+" has a dependent that", dep, held, node)
				if err := p.Release(depID); err != nil {
					t.Fatal(err)
				}
				p.CleanNow()
			}
		}
		if v, err := p.View(heldID); err != nil || !v.Snapshot().Equal(held) {
			t.Fatalf("seed %d: the other graph in the pool changed under the current graph's events (%v)", seed, err)
		}
		// With the other graph gone an edge id has one pair of endpoints again,
		// and the pool one record of it.
		if err := p.Release(heldID); err != nil {
			t.Fatal(err)
		}
		if p.CleanNow(); len(p.alts) != 0 || !p.Current().Snapshot().Equal(want) {
			t.Fatalf("seed %d: the current graph alone in the pool, and %d edge ids have further records", seed, len(p.alts))
		}
		for n := graph.NodeID(0); n <= ids+3; n++ {
			checkAdjacency(t, fmt.Sprintf("seed %d: the current graph, alone in the pool,", seed), p.Current(), want, n)
		}
	}
}

// TestPoolSlotsReused: the records live in chunks, and the slot an evicted
// record frees is taken by the next record made. Overlaying a view of the
// history, which brings back what the current graph has deleted since —
// nodes, edges, and an edge id the current graph now holds between two other
// nodes, which takes a further record — then letting it go and cleaning, 200
// times over, leaves the pool as many chunks as the first time did, give or
// take one; and a value the current graph replaces every cycle with a fresh
// string leaves as many strings live as the first cycle did, in a table one
// larger at most. The
// walks see no freed slot and no bit a slot held before:
// Structure and Combine agree with the snapshots the graphs are, and the
// pool walks as many records as one that only ever held the current graph.
func TestPoolSlotsReused(t *testing.T) {
	p, history := shapedPool()
	rng := rand.New(rand.NewSource(27)) // shapedPool's events again, for the model
	cur := graph.NewSnapshot()
	cur.ApplyAll(append(shapeNodeEvents(rng), shapeEdgeEvents(rng)...))
	for id := GraphID(1); id <= shapeViews; id++ { // graphs are numbered from 1 as overlaid
		if err := p.Release(id); err != nil {
			t.Fatal(err)
		}
	}
	const moved = graph.EdgeID(100) // in every view of the history
	var evs []graph.Event
	for e := graph.EdgeID(1); e <= 64; e++ {
		evs = append(evs, graph.Event{Type: graph.DelEdge, Edge: e, Node: cur.Edges[e].From, Node2: cur.Edges[e].To})
	}
	for n := graph.NodeID(1); n <= 16; n++ {
		evs = append(evs, graph.Event{Type: graph.DelNode, Node: n})
	}
	info := cur.Edges[moved]
	evs = append(evs, graph.Event{Type: graph.DelEdge, Edge: moved, Node: info.From, Node2: info.To},
		graph.Event{Type: graph.AddEdge, Edge: moved, Node: info.To + 1, Node2: info.From + 1})
	for _, ev := range evs {
		p.ApplyEvent(ev)
		cur.Apply(ev)
	}
	p.ClearRecent()
	p.CleanNow()

	structure := func(s *graph.Snapshot) *graph.Snapshot {
		out := graph.NewSnapshot()
		maps.Copy(out.Nodes, s.Nodes)
		maps.Copy(out.Edges, s.Edges)
		return out
	}
	// The ids on which a view of the history differs from the current graph.
	differing := func(s *graph.Snapshot) (nodes map[graph.NodeID]bool, edges map[graph.EdgeID]bool) {
		nodes, edges = map[graph.NodeID]bool{}, map[graph.EdgeID]bool{}
		for _, g := range []*graph.Snapshot{s, cur} {
			for n := range g.Nodes {
				_, inS := s.Nodes[n]
				_, inCur := cur.Nodes[n]
				nodes[n] = inS != inCur || !maps.Equal(s.NodeAttrs[n], cur.NodeAttrs[n])
			}
			for n := range g.NodeAttrs {
				nodes[n] = nodes[n] || !maps.Equal(s.NodeAttrs[n], cur.NodeAttrs[n])
			}
			for e := range g.Edges {
				infoS, inS := s.Edges[e]
				infoCur, inCur := cur.Edges[e]
				edges[e] = inS != inCur || infoS != infoCur
			}
		}
		maps.DeleteFunc(nodes, func(_ graph.NodeID, differs bool) bool { return !differs })
		maps.DeleteFunc(edges, func(_ graph.EdgeID, differs bool) bool { return !differs })
		return nodes, edges
	}
	type view struct {
		structure *graph.Snapshot
		nodes     map[graph.NodeID]bool
		edges     map[graph.EdgeID]bool
	}
	views := make([]view, len(history))
	for i, s := range history {
		views[i].structure = structure(s)
		views[i].nodes, views[i].edges = differing(s)
	}
	alone := New()
	alone.LoadCurrent(cur)
	all := func(bitmap) bool { return true }
	records, curStructure := countBitmaps(alone, all), structure(cur)
	chunks := func() int { return len(p.nodeSlab.chunks) + len(p.edgeSlab.chunks) }
	first, alts := 0, 0
	var strs, live int
	const renamed = graph.NodeID(100) // not deleted above: it differs from every view as it did
	for cycle := range 200 {
		ev := graph.Event{Type: graph.SetNodeAttr, Node: renamed, Attr: "k0", Old: cur.NodeAttrs[renamed]["k0"], HadOld: true,
			New: fmt.Sprintf("value of cycle %d", cycle), HasNew: true}
		p.ApplyEvent(ev)
		cur.Apply(ev)
		p.ClearRecent()
		s, want := history[cycle%len(history)], views[cycle%len(history)]
		id := p.OverlaySnapshot(s, 0)
		alts += len(p.alts)
		v, err := p.View(id)
		if err != nil {
			t.Fatal(err)
		}
		if !v.Structure().Equal(want.structure) {
			t.Fatalf("cycle %d: the view's Structure is not the snapshot it was overlaid from", cycle)
		}
		rec := newRecorder(delta.Intersection{})
		made, err := p.Combine([]GraphID{id}, []bool{true}, rec) // the parent of one child is the child, on its bit
		if err != nil {
			t.Fatal(err)
		}
		if !maps.Equal(rec.nodes, want.nodes) || !maps.Equal(rec.edges, want.edges) {
			t.Fatalf("cycle %d: Combine decides %d nodes and %d edges, the view differs from the current graph on %d and %d",
				cycle, len(rec.nodes), len(rec.edges), len(want.nodes), len(want.edges))
		}
		if made.Grow != 0 || made.Deltas[0].Len() != 0 {
			t.Fatalf("cycle %d: the parent of one child is %d larger than the child, %d records away", cycle, made.Grow, made.Deltas[0].Len())
		}
		if _, err := p.View(id); err == nil || made.Parent.entry.bit != v.entry.bit {
			t.Fatalf("cycle %d: the parent took bit %d, not the spent child's %d, or left the child readable", cycle, made.Parent.entry.bit, v.entry.bit)
		}
		if err := p.Release(made.Parent.ID()); err != nil {
			t.Fatal(err)
		}
		p.CleanNow()
		if cycle == 0 {
			first, strs, live = chunks(), len(p.strs), len(p.strIDs)
		} else if n := chunks(); n < first-1 || n > first+1 {
			t.Fatalf("cycle %d: the pool holds %d chunks, %d after the first cycle", cycle, n, first)
		} else if len(p.strIDs) != live || len(p.strs) > strs+1 { // a fresh string enters before the one it replaces leaves
			t.Fatalf("cycle %d: the table holds %d strings, %d of them live; %d and %d after the first cycle", cycle, len(p.strs), len(p.strIDs), strs, live)
		}
		if got, want := p.Stats(), alone.Stats(); got.PoolNodes != want.PoolNodes || got.PoolEdges != want.PoolEdges || countBitmaps(p, all) != records {
			t.Fatalf("cycle %d: the pool has %d nodes and %d edges and walks %d records and values; one that only held the current graph %d, %d and %d",
				cycle, got.PoolNodes, got.PoolEdges, countBitmaps(p, all), want.PoolNodes, want.PoolEdges, records)
		}
		if got, ok := p.Current().EdgeInfo(moved); !ok || got != cur.Edges[moved] {
			t.Fatalf("cycle %d: the current graph holds edge %d as %v (%v), want %v", cycle, moved, got, ok, cur.Edges[moved])
		}
		if cycle%len(history) == 0 || cycle == 199 { // the whole current graph, now and then: the counts above check the rest
			if !p.Current().Structure().Equal(curStructure) {
				t.Fatalf("cycle %d: the current graph's Structure is not the model's", cycle)
			}
		}
	}
	if alts == 0 {
		t.Fatal("no view held an edge id on a further record: the alts path went untested")
	}
	t.Logf("%d chunks after the first cycle, %d after the last", first, chunks())
}

// TestCleanGivesBackFreeRoom: a clean pass gives back the room a burst of
// evictions grew a slab's free list to, once new records have taken the slots
// back; the pool does not keep it until the next burst.
func TestCleanGivesBackFreeRoom(t *testing.T) {
	p := New()
	p.ApplyEvent(graph.Event{Type: graph.AddNode, Node: 1 << 40}) // the slab never empties
	retrieved := func(nodes ...graph.NodeID) GraphID {
		b, err := p.NewBuild(NoDependency, false, graph.AttrOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range nodes {
			b.ApplyEvents([]graph.Event{{Type: graph.AddNode, Node: n}}, false)
		}
		return b.Commit(KindHistorical, 1)
	}
	var burst []graph.NodeID
	for n := range graph.NodeID(4000) {
		burst = append(burst, n+1)
	}
	if err := p.Release(retrieved(burst...)); err != nil {
		t.Fatal(err)
	}
	p.CleanNow()
	grown := cap(p.nodeSlab.free)
	for n := range graph.NodeID(3900) { // new records take the freed slots back
		p.ApplyEvent(graph.Event{Type: graph.AddNode, Node: n + 10_000})
	}
	if err := p.Release(retrieved(1)); err != nil {
		t.Fatal(err)
	}
	p.CleanNow()
	if free := p.nodeSlab.free; cap(free) > 2*len(free) {
		t.Fatalf("after the clean the node slab's free list holds %d slots in room for %d (%d after the burst)", len(free), cap(free), grown)
	}
}

// ApplyEvent is one event admitted alone: it updates the current graph in
// place (bits 0 and 1), to the
// letter of graph.Snapshot.Apply for every event the index admits (an add of
// an element that is there is not one). What leaves keeps bit 1 set until
// ClearRecent is called, marking it as "recently deleted but not yet in the
// DeltaGraph index".
func (p *Pool) ApplyEvent(ev graph.Event) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.applyEvent(p.graphs[CurrentGraph], ev)
}
