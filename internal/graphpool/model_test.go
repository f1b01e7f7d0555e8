package graphpool

import (
	"fmt"
	"math/rand"
	"testing"

	"historygraph/internal/delta"
	"historygraph/internal/graph"
)

// modelGraph is one graph the model test holds in the pool, beside the
// graph.Snapshot every answer about it must equal.
type modelGraph struct {
	id    GraphID
	label string
	view  *View
	want  *graph.Snapshot
	adj   map[graph.NodeID][]graph.NodeID // want's incident edges, by their other end
	pins  int
	freed bool        // released, still pinned: readable until the last Unpin
	mat   bool        // a materialized graph: others may depend on it
	nDeps int         // how many do
	onMat *modelGraph // the materialized graph this one depends on
	onCur bool        // depends on the current graph: dropped before the next event
	crowd bool        // pinned by a crowd of readers (crowd, disperse)
}

// adjacency lists, for every node of s, the other end of each incident edge.
func adjacency(s *graph.Snapshot) map[graph.NodeID][]graph.NodeID {
	adj := map[graph.NodeID][]graph.NodeID{}
	for _, info := range s.Edges {
		adj[info.From] = append(adj[info.From], info.To)
		if info.To != info.From {
			adj[info.To] = append(adj[info.To], info.From)
		}
	}
	return adj
}

// poolModel drives a Pool and a graph.Snapshot oracle through the same
// steps.
type poolModel struct {
	t        *testing.T
	rng      *rand.Rand
	p        *Pool
	cur      *graph.Snapshot
	past     []*graph.Snapshot // earlier states of cur, to overlay
	live     []*modelGraph
	nextEdge graph.EdgeID
}

var (
	modelNames = []string{"a", "b", "c"}
	modelVals  = []string{"x", "y", "z", "a longer value"}
	modelOpts  = []string{"", "+node:all", "+node:all+edge:all", "+node:a+edge:all-edge:b"}
)

const (
	modelNodes  = 16
	modelGraphs = 128 // held at once before the model lets go of some
	// From step crowdFrom to crowdTo, readers hold the pool past 128 bits.
	crowdFrom, crowdTo = 150, 300
)

// events draws one change that is well formed against s — an edge joins two
// present nodes, and an element's attributes (and a node's edges) leave
// before it does, which is why the change may be several events — or none.
// Nothing here ranges over a map: a seed names one run.
func (m *poolModel) events(s *graph.Snapshot) []graph.Event {
	rng := m.rng
	node := graph.NodeID(1 + rng.Intn(modelNodes))
	_, have := s.Nodes[node]
	attr := modelNames[rng.Intn(len(modelNames))]
	var anEdge graph.EdgeID // the first present edge at or after a random ID, wrapping round
	for i, from := 0, rng.Intn(int(m.nextEdge)+1); i < int(m.nextEdge) && anEdge == 0; i++ {
		if e := graph.EdgeID((from+i)%int(m.nextEdge) + 1); s.Edges[e].From != 0 {
			anEdge = e
		}
	}
	setAttr := func(old string, had bool) graph.Event {
		ev := graph.Event{Attr: attr, Old: old, HadOld: had}
		if !had || rng.Intn(3) > 0 {
			ev.New, ev.HasNew = modelVals[rng.Intn(len(modelVals))], true
		}
		return ev
	}
	delEdge := func(evs []graph.Event, e graph.EdgeID) []graph.Event {
		info := s.Edges[e]
		for _, name := range modelNames {
			if val, ok := s.EdgeAttrs[e][name]; ok {
				evs = append(evs, graph.Event{Type: graph.SetEdgeAttr, Edge: e, Node: info.From, Node2: info.To, Attr: name, Old: val, HadOld: true})
			}
		}
		return append(evs, graph.Event{Type: graph.DelEdge, Edge: e, Node: info.From, Node2: info.To})
	}
	switch k := rng.Intn(10); {
	case k < 7 && !have:
		return []graph.Event{{Type: graph.AddNode, Node: node}}
	case k < 1:
		var evs []graph.Event
		for e := graph.EdgeID(1); e <= m.nextEdge; e++ {
			if info, ok := s.Edges[e]; ok && info.Touches(node) {
				evs = delEdge(evs, e)
			}
		}
		for _, name := range modelNames {
			if val, ok := s.NodeAttrs[node][name]; ok {
				evs = append(evs, graph.Event{Type: graph.SetNodeAttr, Node: node, Attr: name, Old: val, HadOld: true})
			}
		}
		return append(evs, graph.Event{Type: graph.DelNode, Node: node})
	case k < 5 && have:
		other := graph.NodeID(1 + rng.Intn(modelNodes))
		if _, ok := s.Nodes[other]; !ok {
			return nil
		}
		m.nextEdge++
		return []graph.Event{{Type: graph.AddEdge, Edge: m.nextEdge, Node: node, Node2: other, Directed: rng.Intn(2) == 0}}
	case k < 6 && anEdge != 0:
		return delEdge(nil, anEdge)
	case k < 8 && have:
		old, had := s.NodeAttrs[node][attr]
		ev := setAttr(old, had)
		ev.Type, ev.Node = graph.SetNodeAttr, node
		return []graph.Event{ev}
	case anEdge != 0:
		old, had := s.EdgeAttrs[anEdge][attr]
		ev := setAttr(old, had)
		ev.Type, ev.Edge, ev.Node, ev.Node2 = graph.SetEdgeAttr, anEdge, s.Edges[anEdge].From, s.Edges[anEdge].To
		return []graph.Event{ev}
	}
	return nil
}

// mutated returns a copy of s a few well-formed events away from it.
func (m *poolModel) mutated(s *graph.Snapshot) *graph.Snapshot {
	c := s.Clone()
	for i := m.rng.Intn(6); i >= 0; i-- {
		for _, ev := range m.events(c) {
			if err := c.ApplyStrict(ev); err != nil {
				m.t.Fatalf("model drew a malformed event %+v: %v", ev, err)
			}
		}
	}
	return c
}

func (m *poolModel) add(id GraphID, want *graph.Snapshot, label string) *modelGraph {
	v, err := m.p.View(id)
	if err != nil {
		m.t.Fatalf("%s: %v", label, err)
	}
	g := &modelGraph{id: id, view: v, want: want, adj: adjacency(want), label: fmt.Sprintf("graph %d (%s)", id, label)}
	m.live = append(m.live, g)
	return g
}

// dependent overlays a graph near base (the current graph when on is nil) as
// exceptions against it, retrieved with a random attribute option.
func (m *poolModel) dependent(on *modelGraph) {
	base, dep, label := m.cur, CurrentGraph, "dependent on current"
	if on != nil {
		base, dep, label = on.want, on.id, fmt.Sprintf("dependent on %d", on.id)
	}
	spec := modelOpts[m.rng.Intn(len(modelOpts))]
	opts := graph.MustParseAttrOptions(spec)
	want := opts.FilterSnapshot(m.mutated(base))
	d := delta.Compute(want, opts.FilterSnapshot(base.Clone()))
	id, err := m.p.OverlayDependent(dep, d, graph.Time(m.rng.Intn(1000)), opts)
	if err != nil {
		m.t.Fatalf("%s: %v", label, err)
	}
	g := m.add(id, want, fmt.Sprintf("%s, attrs %q", label, spec))
	g.onMat, g.onCur = on, on == nil
	if on != nil {
		on.nDeps++
	}
}

// release lets g go: out of the model at once unless a pin keeps it readable.
func (m *poolModel) release(g *modelGraph) {
	err := m.p.Release(g.id)
	if g.nDeps > 0 {
		if err == nil {
			m.t.Fatalf("%s released with %d dependents", g.label, g.nDeps)
		}
		return
	}
	if err != nil {
		m.t.Fatalf("release %s: %v", g.label, err)
	}
	g.freed = true
	m.dropUnheld()
}

func (m *poolModel) unpin(g *modelGraph) {
	if err := m.p.Unpin(g.id); err != nil {
		m.t.Fatalf("unpin %s: %v", g.label, err)
	}
	g.pins--
	m.dropUnheld()
}

// dropUnheld forgets the graphs the next CleanNow may reclaim: released, and
// no reader's pin left. Until then a dependent holds on to its dependency.
func (m *poolModel) dropUnheld() {
	kept := m.live[:0]
	for _, g := range m.live {
		if !g.freed || g.pins > 0 {
			kept = append(kept, g)
		} else if g.onMat != nil {
			g.onMat.nDeps--
		}
	}
	m.live = kept
}

// crowd overlays explicit graphs that a reader pins and the holder then
// releases, until the pool's bits reach past 128. A released graph a reader
// pins keeps its bit through a clean pass, so the pool cannot make room
// below bit 64 for what comes next: the graphs past bit 63 mark words
// beyond the inline one, as a pool with that many readers must.
func (m *poolModel) crowd() {
	for m.p.Stats().Bits <= 128 {
		s := m.past[m.rng.Intn(len(m.past))]
		g := m.add(m.p.OverlaySnapshot(s, graph.Time(m.rng.Intn(1000))), s, "pinned in a crowd")
		if err := m.p.Pin(g.id); err != nil {
			m.t.Fatalf("pin %s: %v", g.label, err)
		}
		g.pins, g.crowd = g.pins+1, true
		m.release(g)
	}
}

// disperse is the crowd's readers finishing.
func (m *poolModel) disperse() {
	for _, g := range append([]*modelGraph(nil), m.live...) {
		if g.crowd {
			m.unpin(g)
		}
	}
}

func (m *poolModel) step() {
	rng, p := m.rng, m.p
	var g *modelGraph
	if len(m.live) > 0 {
		g = m.live[rng.Intn(len(m.live))]
	}
	k := rng.Intn(100)
	if len(m.live) > modelGraphs {
		k = 84 + rng.Intn(16) // full: let one go, or clean
	}
	switch {
	case k < 30:
		evs := m.events(m.cur)
		if len(evs) == 0 {
			return
		}
		// A graph that depends on the current graph reads its live bits:
		// its holder drops it before the current graph moves.
		for _, g := range append([]*modelGraph(nil), m.live...) {
			if g.onCur {
				for g.pins > 0 {
					m.unpin(g)
				}
				m.release(g)
			}
		}
		if rng.Intn(8) == 0 {
			m.past = append(m.past, m.cur.Clone())
		}
		for _, ev := range evs {
			if err := m.cur.ApplyStrict(ev); err != nil {
				m.t.Fatalf("model drew a malformed event %+v: %v", ev, err)
			}
			p.ApplyEvent(ev)
		}
	case k < 35:
		p.ClearRecent()
	case k < 50:
		s := m.mutated(m.past[rng.Intn(len(m.past))])
		if rng.Intn(2) == 0 {
			s = graph.AttrOptions{}.FilterSnapshot(s) // structure only
		}
		m.add(p.OverlaySnapshot(s, graph.Time(rng.Intn(1000))), s, "explicit")
	case k < 55 && rng.Intn(2) == 0: // a copy of bit 0, as a leaf cut commits one
		b, err := p.NewBuild(CurrentGraph, false, allAttrs)
		if err != nil {
			m.t.Fatal(err)
		}
		m.add(b.Commit(KindMaterialized, 0), m.cur.Clone(), "materialized copy of the current graph").mat = true
	case k < 55:
		s := m.past[rng.Intn(len(m.past))].Clone()
		m.add(p.OverlayMaterialized(s), s, "materialized").mat = true
	case k < 65:
		m.dependent(nil)
	case k < 75:
		var mats []*modelGraph
		for _, g := range m.live {
			if g.mat && !g.freed {
				mats = append(mats, g)
			}
		}
		if len(mats) > 0 {
			m.dependent(mats[rng.Intn(len(mats))])
		}
	case k < 80 && g != nil && !g.freed:
		if err := p.Pin(g.id); err != nil {
			m.t.Fatalf("pin %s: %v", g.label, err)
		}
		g.pins++
	case k < 84 && g != nil && g.pins > 0:
		m.unpin(g)
	case k < 94 && g != nil:
		m.release(g)
	default:
		p.CleanNow()
	}
}

// check holds every live graph, and the current one, to its oracle.
func (m *poolModel) check(step int) {
	t := m.t
	t.Helper()
	all := append([]*modelGraph{{view: m.p.Current(), want: m.cur, adj: adjacency(m.cur), label: "the current graph"}}, m.live...)
	for _, g := range all {
		v, want := g.view, g.want
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("step %d, %s, %d bits: %s", step, g.label, m.p.Stats().Bits, fmt.Sprintf(format, args...))
		}
		if got := v.Snapshot(); !got.Equal(want) {
			fail("Snapshot() has %d nodes, %d edges, %d+%d attributed; want %d, %d, %d+%d", len(got.Nodes), len(got.Edges),
				len(got.NodeAttrs), len(got.EdgeAttrs), len(want.Nodes), len(want.Edges), len(want.NodeAttrs), len(want.EdgeAttrs))
		}
		if v.NumNodes() != len(want.Nodes) || v.NumEdges() != len(want.Edges) {
			fail("NumNodes %d NumEdges %d, want %d and %d", v.NumNodes(), v.NumEdges(), len(want.Nodes), len(want.Edges))
		}
		f := v.Freeze()
		frozen := map[graph.NodeID]bool{}
		f.ForEachNode(func(n graph.NodeID) bool { frozen[n] = true; return true })
		if len(frozen) != len(want.Nodes) || f.NumNodes() != len(want.Nodes) {
			fail("Freeze() visits %d nodes and counts %d, want %d", len(frozen), f.NumNodes(), len(want.Nodes))
		}
		for n := graph.NodeID(1); n <= modelNodes; n++ {
			_, in := want.Nodes[n]
			if v.HasNode(n) != in || frozen[n] != in {
				fail("node %d: HasNode %v, frozen %v, want %v", n, v.HasNode(n), frozen[n], in)
			}
			for _, name := range modelNames {
				wantVal, wantOK := want.NodeAttrs[n][name]
				if val, ok := v.NodeAttr(n, name); ok != wantOK || val != wantVal {
					fail("NodeAttr(%d, %q) = %q, %v; want %q, %v", n, name, val, ok, wantVal, wantOK)
				}
			}
			degree, nbrs := len(g.adj[n]), map[graph.NodeID]bool{}
			for _, o := range g.adj[n] {
				nbrs[o] = true
			}
			if got := v.Degree(n); got != degree {
				fail("Degree(%d) = %d, want %d", n, got, degree)
			}
			if got := f.Degree(n); in && got != degree {
				fail("frozen Degree(%d) = %d, want %d", n, got, degree)
			}
			got := v.Neighbors(n)
			fgot := map[graph.NodeID]bool{}
			f.ForEachNeighbor(n, func(o graph.NodeID) bool { fgot[o] = true; return true })
			if len(got) != len(nbrs) || (in && len(fgot) != len(nbrs)) {
				fail("Neighbors(%d) = %v, frozen %v, want %v", n, got, fgot, nbrs)
			}
			for _, o := range got {
				if !nbrs[o] || (in && !fgot[o]) {
					fail("Neighbors(%d) = %v, frozen %v, want %v", n, got, fgot, nbrs)
				}
			}
		}
	}
}

func newModel(t *testing.T, seed int64) *poolModel {
	m := &poolModel{t: t, rng: rand.New(rand.NewSource(seed)), p: New(), cur: graph.NewSnapshot()}
	m.past = []*graph.Snapshot{graph.NewSnapshot()}
	return m
}

// run takes the model through its steps, a crowd of readers among them,
// calls after after each, and returns the most bits the pool held.
func (m *poolModel) run(after func(step int)) (maxBits int) {
	for step := 0; step < 450; step++ {
		switch step {
		case crowdFrom:
			m.crowd()
		case crowdTo:
			m.disperse()
		default:
			m.step()
		}
		after(step)
		maxBits = max(maxBits, m.p.Stats().Bits)
	}
	return maxBits
}

// releaseAll lets every graph but the current one go, and cleans.
func (m *poolModel) releaseAll() {
	for _, mats := range []bool{false, true} { // dependents before what they depend on
		for _, g := range append([]*modelGraph(nil), m.live...) {
			if g.mat == mats {
				m.release(g)
				for g.pins > 0 {
					m.unpin(g)
				}
			}
		}
	}
	m.p.CleanNow()
	m.p.ClearRecent()
}

// TestPoolMatchesModel holds the pool's layout to a model: a seeded run of
// everything a pool can be asked to do — events on the current graph
// (adds, deletes, attribute sets, replacements and removals), leaf cuts,
// explicit, materialized and dependent overlays (on the current graph and
// on a materialized one, retrieved with and without attributes), pins,
// releases and clean passes that hand bits out again, and for a stretch a
// crowd of readers pinning released graphs, which holds the pool past 128
// bits — with every answer of every live View and of its frozen projection
// compared, after every step, with a graph.Snapshot kept beside it.
func TestPoolMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		m := newModel(t, seed)
		maxBits := m.run(func(step int) {
			m.check(step)
			where := fmt.Sprintf("seed %d, step %d", seed, step)
			checkSlots(t, m.p, where)
			checkDiffering(t, m.p, where)
		})
		if maxBits <= 128 {
			t.Errorf("seed %d: the run reached %d bits, want more than 128 (two words above the inline one)", seed, maxBits)
		}
		// With every graph gone, the pool is the current graph and nothing
		// else: whatever a delete, a replacement or a release left behind
		// has been evicted.
		m.releaseAll()
		m.check(-1)
		values := 0
		for _, attrs := range m.cur.NodeAttrs {
			values += len(attrs)
		}
		for _, attrs := range m.cur.EdgeAttrs {
			values += len(attrs)
		}
		held := 0
		for _, pn := range m.p.nodes {
			held += len(pn.vals.all())
		}
		for _, l := range m.p.edgeVals {
			held += len(*l)
		}
		t.Logf("seed %d: %d bits at the widest; the current graph ends with %d nodes, %d edges, %d attribute values", seed, maxBits, len(m.cur.Nodes), len(m.cur.Edges), values)
		if st := m.p.Stats(); st.PoolNodes != len(m.cur.Nodes) || st.PoolEdges != len(m.cur.Edges) || held != values || st.ActiveGraphs != 1 {
			t.Errorf("seed %d: with only the current graph left the pool holds %d nodes, %d edges, %d values in %d graphs; the graph has %d, %d, %d",
				seed, st.PoolNodes, st.PoolEdges, held, st.ActiveGraphs, len(m.cur.Nodes), len(m.cur.Edges), values)
		}
		// Bits 0 and 1 are inline: whatever spilled past bit 63 on the way
		// has given its slot back.
		if n := spilled(m.p); n > 0 {
			t.Errorf("seed %d: with only the current graph left %d bitmaps hold a spill slot", seed, n)
		}
	}
}

// checkStrs recounts the fields of the attribute values that name each entry
// of p's string table: the count must be the table's, a live entry the one
// its string finds, and a freed one "" and on the free list once.
func checkStrs(t *testing.T, p *Pool, where string) {
	t.Helper()
	refs := make([]uint32, len(p.strs))
	count := func(l *attrList) {
		for _, av := range l.all() {
			refs[av.name()]++
			refs[av.val]++
		}
	}
	for _, pn := range p.nodes {
		count(pn.vals)
	}
	for _, l := range p.edgeVals {
		count(l)
	}
	free := make([]bool, len(p.strs))
	for _, i := range p.strFree {
		if free[i] {
			t.Fatalf("%s: string %d is on the free list twice", where, i)
		}
		free[i] = true
	}
	if len(p.strIDs)+len(p.strFree) != len(p.strs) {
		t.Fatalf("%s: %d strings, %d found by the map, %d on the free list", where, len(p.strs), len(p.strIDs), len(p.strFree))
	}
	for i, s := range p.strs {
		id, found := p.strIDs[s]
		switch {
		case refs[i] != p.refs[i]:
			t.Fatalf("%s: string %d (%q) counts %d fields, %d name it", where, i, s, p.refs[i], refs[i])
		case refs[i] == 0 && (s != "" || !free[i]):
			t.Fatalf("%s: string %d, which no field names, holds %q (on the free list: %v)", where, i, s, free[i])
		case refs[i] > 0 && (!found || id != uint32(i) || free[i]):
			t.Fatalf("%s: string %d (%q) is live, and the map finds it at %d (%v); on the free list: %v", where, i, s, id, found, free[i])
		}
	}
}

// TestStringsMatchRecount holds the pool's string table to a recount, after
// every step of TestPoolMatchesModel's run: the table holds the strings the
// values name, each once, and nothing once no graph holds a value.
func TestStringsMatchRecount(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		m := newModel(t, seed)
		m.run(func(step int) { checkStrs(t, m.p, fmt.Sprintf("seed %d, step %d", seed, step)) })
		m.releaseAll()
		checkStrs(t, m.p, fmt.Sprintf("seed %d, the current graph alone", seed))
		live := len(m.p.strIDs)
		m.p.LoadCurrent(graph.NewSnapshot())
		checkStrs(t, m.p, fmt.Sprintf("seed %d, the pool emptied", seed))
		if len(m.p.strIDs) != 0 {
			t.Errorf("seed %d: the pool emptied holds %d strings", seed, len(m.p.strIDs))
		}
		t.Logf("seed %d: the current graph's values name %d strings; the table grew to %d", seed, live, len(m.p.strs))
	}
}
