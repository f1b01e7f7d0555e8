package deltagraph

import (
	"fmt"
	"math/rand"
	"testing"

	"historygraph/internal/delta"
	"historygraph/internal/graph"
	"historygraph/internal/graphpool"
	"historygraph/internal/kvstore"
)

// makeTrace builds a well-formed random trace with adds, deletes, attribute
// churn and transient events, one event per timestamp tick (plus occasional
// same-timestamp bursts to exercise leaf-boundary extension).
func makeTrace(seed int64, n int) graph.EventList {
	rng := rand.New(rand.NewSource(seed))
	var (
		events    graph.EventList
		nextNode  graph.NodeID
		nextEdge  graph.EdgeID
		liveNodes []graph.NodeID
		liveEdges []graph.EdgeID
		edgeInfo  = map[graph.EdgeID]graph.EdgeInfo{}
		attrs     = map[graph.NodeID]map[string]string{}
		now       graph.Time
	)
	attrNames := []string{"name", "job", "city"}
	for len(events) < n {
		if rng.Intn(4) != 0 {
			now++ // 1 in 4 events shares the previous timestamp
		}
		switch op := rng.Intn(12); {
		case op < 4 || len(liveNodes) < 2:
			nextNode++
			liveNodes = append(liveNodes, nextNode)
			events = append(events, graph.Event{Type: graph.AddNode, At: now, Node: nextNode})
		case op < 8:
			nextEdge++
			u := liveNodes[rng.Intn(len(liveNodes))]
			v := liveNodes[rng.Intn(len(liveNodes))]
			liveEdges = append(liveEdges, nextEdge)
			edgeInfo[nextEdge] = graph.EdgeInfo{From: u, To: v}
			events = append(events, graph.Event{Type: graph.AddEdge, At: now, Edge: nextEdge, Node: u, Node2: v})
		case op < 10:
			nd := liveNodes[rng.Intn(len(liveNodes))]
			an := attrNames[rng.Intn(len(attrNames))]
			old, had := attrs[nd][an]
			newv := fmt.Sprintf("v%d", rng.Intn(5))
			events = append(events, graph.Event{Type: graph.SetNodeAttr, At: now, Node: nd, Attr: an, Old: old, HadOld: had, New: newv, HasNew: true})
			if attrs[nd] == nil {
				attrs[nd] = map[string]string{}
			}
			attrs[nd][an] = newv
		case op < 11 && len(liveEdges) > 0:
			i := rng.Intn(len(liveEdges))
			e := liveEdges[i]
			info := edgeInfo[e]
			liveEdges = append(liveEdges[:i], liveEdges[i+1:]...)
			events = append(events, graph.Event{Type: graph.DelEdge, At: now, Edge: e, Node: info.From, Node2: info.To})
		default:
			u := liveNodes[rng.Intn(len(liveNodes))]
			v := liveNodes[rng.Intn(len(liveNodes))]
			events = append(events, graph.Event{Type: graph.TransientEdge, At: now, Edge: graph.EdgeID(1<<40) + graph.EdgeID(len(events)), Node: u, Node2: v})
		}
	}
	return events
}

var allAttrs = graph.MustParseAttrOptions("+node:all+edge:all")

// validateInvariant checks that every leaf is reachable from the super-root
// or a pending node's graph.
func (dg *DeltaGraph) validateInvariant() error {
	if err := dg.rlockBuilt(); err != nil {
		return err
	}
	defer dg.mu.RUnlock()
	p := planner{dg: dg, sel: selectorFor(graph.AttrOptions{}, nil)}
	for _, leaf := range dg.skel.leaves {
		if r, err := p.reach(leaf); err != nil || r == nil {
			return fmt.Errorf("leaf %d unreachable (%v)", leaf, err)
		}
	}
	return nil
}

// onlyWhatCutsAdd checks that the skeleton holds the nodes and edges of the
// index and nothing else: the super-root, the anchor leaf and its
// materialization edge, every leaf with its two eventlist edges, every
// interior node with its delta edges, and a materialization edge for each
// pinned node.
func (dg *DeltaGraph) onlyWhatCutsAdd() error {
	st := dg.Stats()
	dg.mu.RLock()
	defer dg.mu.RUnlock()
	nodes, edges := len(dg.skel.nodes), len(dg.skel.edges)
	if want := 2 + st.Leaves + st.InteriorNodes; nodes != want {
		return fmt.Errorf("the skeleton holds %d nodes, the index %d", nodes, want)
	}
	if want := 1 + 2*st.EventlistEdges + st.DeltaEdges + len(dg.matGraphs); edges != want {
		return fmt.Errorf("the skeleton holds %d edges, the index %d", edges, want)
	}
	return nil
}

// checkAgainstReference compares index retrieval against naive replay at
// many probe times.
func checkAgainstReference(t *testing.T, dg *DeltaGraph, events graph.EventList, opts graph.AttrOptions, probes []graph.Time) {
	t.Helper()
	for _, q := range probes {
		want := opts.FilterSnapshot(graph.SnapshotAt(events, q))
		got, err := dg.GetSnapshot(q, opts)
		if err != nil {
			t.Fatalf("GetSnapshot(%d): %v", q, err)
		}
		if !got.Equal(want) {
			t.Fatalf("snapshot at %d differs from reference: got %d nodes/%d edges, want %d/%d",
				q, len(got.Nodes), len(got.Edges), len(want.Nodes), len(want.Edges))
		}
	}
}

func probeTimes(events graph.EventList, n int) []graph.Time {
	_, last := events.Span()
	probes := make([]graph.Time, 0, n+2)
	for i := 0; i <= n; i++ {
		probes = append(probes, graph.Time(int64(last)*int64(i)/int64(n)))
	}
	probes = append(probes, last+100) // beyond the end: current graph
	return probes
}

func TestBuildAndRetrieveMatchesReference(t *testing.T) {
	events := makeTrace(1, 3000)
	for _, fn := range []delta.Differential{
		delta.Intersection{}, delta.Union{}, delta.Balanced(),
		delta.Mixed{R1: 0.9, R2: 0.9}, delta.Empty{},
	} {
		fn := fn
		t.Run(fn.Name(), func(t *testing.T) {
			dg, err := Build(events, Options{LeafSize: 200, Arity: 3, Function: fn})
			if err != nil {
				t.Fatal(err)
			}
			if err := dg.validateInvariant(); err != nil {
				t.Fatal(err)
			}
			checkAgainstReference(t, dg, events, allAttrs, probeTimes(events, 17))
		})
	}
}

func TestRetrieveStructureOnly(t *testing.T) {
	events := makeTrace(2, 2000)
	dg, err := Build(events, Options{LeafSize: 150, Arity: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, dg, events, graph.AttrOptions{}, probeTimes(events, 9))
}

func TestRetrieveNamedAttr(t *testing.T) {
	events := makeTrace(3, 2000)
	dg, err := Build(events, Options{LeafSize: 150, Arity: 4})
	if err != nil {
		t.Fatal(err)
	}
	opts := graph.MustParseAttrOptions("+node:name")
	checkAgainstReference(t, dg, events, opts, probeTimes(events, 9))
}

func TestArityAndLeafSizeVariants(t *testing.T) {
	events := makeTrace(4, 2500)
	for _, k := range []int{2, 4, 8} {
		for _, L := range []int{100, 500} {
			dg, err := Build(events, Options{LeafSize: L, Arity: k})
			if err != nil {
				t.Fatalf("k=%d L=%d: %v", k, L, err)
			}
			checkAgainstReference(t, dg, events, allAttrs, probeTimes(events, 7))
		}
	}
}

func TestPartitionedRetrieval(t *testing.T) {
	events := makeTrace(5, 2500)
	dg, err := Build(events, Options{LeafSize: 200, Arity: 3, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, dg, events, allAttrs, probeTimes(events, 9))
}

func TestPartitionedRequiresPartitionedStore(t *testing.T) {
	if _, err := New(Options{Partitions: 3, Store: kvstore.NewMemStore()}); err == nil {
		t.Error("plain store accepted for partitioned index")
	}
	if _, err := New(Options{Partitions: 5, Store: kvstore.NewMemPartitioned(2)}); err == nil {
		t.Error("too few partitions accepted")
	}
}

func TestLiveAppendsInterleavedWithQueries(t *testing.T) {
	events := makeTrace(6, 3000)
	dg, err := New(Options{LeafSize: 150, Arity: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Append in chunks, querying as we go.
	chunk := 400
	for lo := 0; lo < len(events); lo += chunk {
		hi := lo + chunk
		if hi > len(events) {
			hi = len(events)
		}
		if err := dg.AppendAll(events[lo:hi]); err != nil {
			t.Fatal(err)
		}
		probe := events[(lo+hi)/2].At
		want := graph.SnapshotAt(events[:hi], probe)
		got, err := dg.GetSnapshot(probe, allAttrs)
		if err != nil {
			t.Fatalf("after %d events, query %d: %v", hi, probe, err)
		}
		if !got.Equal(want) {
			t.Fatalf("after %d events, snapshot at %d differs", hi, probe)
		}
	}
	checkAgainstReference(t, dg, events, allAttrs, probeTimes(events, 11))
	if err := dg.validateInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestAppendRejectsOutOfOrder(t *testing.T) {
	dg, _ := New(Options{})
	if err := dg.Append(graph.Event{Type: graph.AddNode, At: 10, Node: 1}); err != nil {
		t.Fatal(err)
	}
	if err := dg.Append(graph.Event{Type: graph.AddNode, At: 5, Node: 2}); err == nil {
		t.Error("out-of-order event accepted")
	}
}

func TestMultipointMatchesSinglepoint(t *testing.T) {
	events := makeTrace(7, 3000)
	dg, err := Build(events, Options{LeafSize: 200, Arity: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, last := events.Span()
	var ts []graph.Time
	for i := 1; i <= 6; i++ {
		ts = append(ts, last*graph.Time(i)/7)
	}
	// Shuffle to verify order preservation.
	ts[0], ts[3] = ts[3], ts[0]
	multi, err := dg.GetSnapshots(ts, allAttrs)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range ts {
		single, err := dg.GetSnapshot(q, allAttrs)
		if err != nil {
			t.Fatal(err)
		}
		if !multi[i].Equal(single) {
			t.Errorf("multipoint[%d] (t=%d) differs from singlepoint", i, q)
		}
	}
	// Duplicates and empty input.
	dup, err := dg.GetSnapshots([]graph.Time{ts[0], ts[0]}, allAttrs)
	if err != nil || !dup[0].Equal(dup[1]) {
		t.Error("duplicate timepoints mishandled")
	}
	if out, err := dg.GetSnapshots(nil, allAttrs); err != nil || out != nil {
		t.Error("empty multipoint mishandled")
	}
	// Random indexes, built every way, asked at every kind of time.
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 60; i++ {
		in := make([]byte, 32)
		rng.Read(in)
		checkRetrievals(t, in)
	}
}

func TestMaterializationCorrectAndFaster(t *testing.T) {
	events := makeTrace(8, 4000)
	dg, err := Build(events, Options{LeafSize: 200, Arity: 2, Function: delta.Intersection{}})
	if err != nil {
		t.Fatal(err)
	}
	_, last := events.Span()
	q := last * 3 / 4
	costBefore, err := dg.PlanCost(q, allAttrs)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := dg.GetSnapshot(q, allAttrs)

	if err := dg.MaterializeLevel("root"); err != nil {
		t.Fatal(err)
	}
	costAfter, err := dg.PlanCost(q, allAttrs)
	if err != nil {
		t.Fatal(err)
	}
	if costAfter > costBefore {
		t.Errorf("materialization increased plan cost: %d -> %d", costBefore, costAfter)
	}
	got, err := dg.GetSnapshot(q, allAttrs)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Error("materialized retrieval differs")
	}
	// Deeper materialization reduces cost further (or stays equal).
	if err := dg.MaterializeLevel("grandchildren"); err != nil {
		t.Fatal(err)
	}
	costDeep, _ := dg.PlanCost(q, allAttrs)
	if costDeep > costAfter {
		t.Errorf("deeper materialization increased cost: %d -> %d", costAfter, costDeep)
	}
	got, _ = dg.GetSnapshot(q, allAttrs)
	if !got.Equal(want) {
		t.Error("deep materialized retrieval differs")
	}

	// Unmaterialize restores the old behavior.
	for _, ref := range dg.MaterializedNodes() {
		if err := dg.Unmaterialize(ref); err != nil {
			t.Fatal(err)
		}
	}
	costRestored, _ := dg.PlanCost(q, allAttrs)
	if costRestored != costBefore {
		t.Errorf("cost after unmaterialize = %d, want %d", costRestored, costBefore)
	}
}

func TestTotalMaterialization(t *testing.T) {
	events := makeTrace(9, 2000)
	dg, err := Build(events, Options{LeafSize: 200, Arity: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := dg.MaterializeLevel("leaves"); err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, dg, events, allAttrs, probeTimes(events, 9))
	// Every leaf query should now be nearly free.
	lt := dg.LeafTimes()
	cost, err := dg.PlanCost(lt[len(lt)/2], allAttrs)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 0 {
		t.Errorf("leaf plan cost with total materialization = %d, want 0", cost)
	}
}

func TestRetrieveIntoPoolWithDependency(t *testing.T) {
	events := makeTrace(10, 3000)
	pool := graphpool.New()
	dg, err := Build(events, Options{LeafSize: 200, Arity: 2, Pool: pool, DependentMaxRatio: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := dg.MaterializeLevel("root"); err != nil {
		t.Fatal(err)
	}
	_, last := events.Span()
	for i := 1; i <= 5; i++ {
		q := last * graph.Time(i) / 6
		id, err := dg.Retrieve(q, allAttrs)
		if err != nil {
			t.Fatal(err)
		}
		v, err := pool.View(id)
		if err != nil {
			t.Fatal(err)
		}
		want := graph.SnapshotAt(events, q)
		if !v.Snapshot().Equal(want) {
			t.Fatalf("pool view at %d differs from reference", q)
		}
	}
	// At least one retrieval should have used the dependent-overlay path
	// (the mapping table shows a dependency).
	dependent := false
	for _, row := range pool.MappingTable() {
		if row.Kind == graphpool.KindHistorical && row.Dep != graphpool.NoDependency {
			dependent = true
		}
	}
	if !dependent {
		t.Log("note: no dependent overlay occurred (plan never started at a materialized base)")
	}
}

func TestRetrieveManyIntoPool(t *testing.T) {
	events := makeTrace(11, 2000)
	pool := graphpool.New()
	dg, err := Build(events, Options{LeafSize: 150, Arity: 3, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	_, last := events.Span()
	ts := []graph.Time{last / 4, last / 2, 3 * last / 4}
	ids, err := dg.RetrieveMany(ts, allAttrs)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		v, err := pool.View(id)
		if err != nil {
			t.Fatal(err)
		}
		if !v.Snapshot().Equal(graph.SnapshotAt(events, ts[i])) {
			t.Errorf("pool snapshot %d differs", i)
		}
	}
}

func TestIntervalQuery(t *testing.T) {
	events := makeTrace(12, 2500)
	dg, err := Build(events, Options{LeafSize: 150, Arity: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, last := events.Span()
	ts, te := last/4, 3*last/4
	res, err := dg.GetInterval(ts, te, allAttrs)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: elements whose add events fall in [ts, te); transient
	// events in window. An attribute set to the value it already has is no
	// event of the history (AppendAllCounted drops it).
	wantGraph, cur := graph.NewSnapshot(), graph.NewSnapshot()
	var wantTrans int
	for _, ev := range events {
		held, had := cur.NodeAttrs[ev.Node][ev.Attr]
		cur.Apply(ev)
		if ev.At < ts || ev.At >= te || (ev.Type == graph.SetNodeAttr && had && held == ev.New) {
			continue
		}
		switch ev.Type {
		case graph.TransientEdge, graph.TransientNode:
			wantTrans++
		case graph.AddNode, graph.AddEdge, graph.SetNodeAttr, graph.SetEdgeAttr:
			wantGraph.Apply(ev)
		}
	}
	if !res.Graph.Snapshot().Equal(wantGraph) {
		t.Error("interval graph differs from reference")
	}
	if err := dg.pool.Release(res.Graph.ID()); err != nil {
		t.Fatal(err)
	}
	if len(res.Transients) != wantTrans {
		t.Errorf("transients = %d, want %d", len(res.Transients), wantTrans)
	}
	if _, err := dg.GetInterval(te, ts, allAttrs); err == nil {
		t.Error("empty interval accepted")
	}

	// An edge added again on other endpoints in the window is in the graph
	// once, on the endpoints of its last add, as a replay has it.
	moved := graph.EventList{
		{Type: graph.AddNode, At: 1, Node: 1}, {Type: graph.AddNode, At: 1, Node: 2}, {Type: graph.AddNode, At: 1, Node: 3},
		{Type: graph.AddEdge, At: 2, Edge: 1, Node: 1, Node2: 2},
		{Type: graph.DelEdge, At: 3, Edge: 1, Node: 1, Node2: 2},
		{Type: graph.AddEdge, At: 4, Edge: 1, Node: 2, Node2: 3},
	}
	if dg, err = Build(moved, Options{LeafSize: 2, Arity: 2}); err != nil {
		t.Fatal(err)
	}
	if res, err = dg.GetInterval(2, 5, allAttrs); err != nil {
		t.Fatal(err)
	}
	if want, _ := replayInterval(moved, 2, 5); !res.Graph.Snapshot().Equal(want) || res.Graph.NumEdges() != 1 || res.Graph.Order(nil).NumEdges() != 1 {
		t.Errorf("an edge moved in the window: %d edges, %v; the replay %v", res.Graph.NumEdges(), res.Graph.Snapshot().Edges, want.Edges)
	}
}

func TestTimeExpressionQuery(t *testing.T) {
	events := makeTrace(13, 2500)
	dg, err := Build(events, Options{LeafSize: 150, Arity: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, last := events.Span()
	t1, t2 := last/3, 2*last/3
	// Elements valid at t1 but not at t2.
	out, err := expression(dg, TimeExpression{
		Times: []graph.Time{t1, t2},
		Expr:  And{Var(0), Not{E: Var(1)}},
	}, allAttrs)
	if err != nil {
		t.Fatal(err)
	}
	s1 := graph.SnapshotAt(events, t1)
	s2 := graph.SnapshotAt(events, t2)
	for e := range out.Edges {
		if _, in1 := s1.Edges[e]; !in1 {
			t.Errorf("edge %d not valid at t1", e)
		}
		if _, in2 := s2.Edges[e]; in2 {
			t.Errorf("edge %d still valid at t2", e)
		}
	}
	// Count check: result edges == edges in s1 minus those surviving to s2.
	want := 0
	for e := range s1.Edges {
		if _, ok := s2.Edges[e]; !ok {
			want++
		}
	}
	if len(out.Edges) != want {
		t.Errorf("edges = %d, want %d", len(out.Edges), want)
	}
	// Or / Var behavior sanity.
	union, err := expression(dg, TimeExpression{Times: []graph.Time{t1, t2}, Expr: Or{Var(0), Var(1)}}, allAttrs)
	if err != nil {
		t.Fatal(err)
	}
	if len(union.Nodes) < len(s1.Nodes) || len(union.Nodes) < len(s2.Nodes) {
		t.Error("union smaller than operands")
	}
	if _, err := dg.RetrieveExpression(TimeExpression{}, allAttrs); err == nil {
		t.Error("empty expression accepted")
	}
}

func TestCheckpointAndOpen(t *testing.T) {
	events := makeTrace(14, 2500)
	store := kvstore.NewMemStore()
	dg, err := Build(events[:2000], Options{LeafSize: 150, Arity: 3, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if err := dg.MaterializeLevel("root"); err != nil {
		t.Fatal(err)
	}
	if err := dg.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, re, events[:2000], allAttrs, probeTimes(events[:2000], 9))
	// The reopened index must keep accepting appends.
	if err := re.AppendAll(events[2000:]); err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, re, events, allAttrs, probeTimes(events, 9))
	// Materialization must have been restored.
	if len(re.MaterializedNodes()) == 0 {
		t.Error("materialized nodes lost on reopen")
	}
}

func TestOpenMissingCheckpoint(t *testing.T) {
	if _, err := Open(Options{Store: kvstore.NewMemStore()}); err == nil {
		t.Error("Open on empty store succeeded")
	}
	if _, err := Open(Options{}); err == nil {
		t.Error("Open without store succeeded")
	}
}

func TestStats(t *testing.T) {
	events := makeTrace(15, 2000)
	dg, err := Build(events, Options{LeafSize: 100, Arity: 2})
	if err != nil {
		t.Fatal(err)
	}
	st := dg.Stats()
	if st.Leaves < 10 {
		t.Errorf("leaves = %d", st.Leaves)
	}
	if st.Height < 2 {
		t.Errorf("height = %d", st.Height)
	}
	if st.DeltaEdges == 0 || st.EventlistEdges != st.Leaves {
		t.Errorf("edges: %d deltas, %d eventlists (leaves %d)", st.DeltaEdges, st.EventlistEdges, st.Leaves)
	}
	if st.DiskBytes <= 0 || st.EventlistBytes <= 0 {
		t.Error("byte accounting missing")
	}
	if len(st.DeltaBytesByLevel) == 0 {
		t.Error("no per-level delta stats")
	}
}

func TestQueryBeforeAnyData(t *testing.T) {
	dg, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := dg.GetSnapshot(100, allAttrs)
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 0 {
		t.Error("empty index returned non-empty snapshot")
	}
}

func TestQueryAtTimeZeroAndEarly(t *testing.T) {
	events := makeTrace(16, 1500)
	dg, err := Build(events, Options{LeafSize: 100, Arity: 2})
	if err != nil {
		t.Fatal(err)
	}
	first, _ := events.Span()
	for _, q := range []graph.Time{first - 1, first, first + 1} {
		want := graph.SnapshotAt(events, q)
		got, err := dg.GetSnapshot(q, allAttrs)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("early query at %d differs", q)
		}
	}
}

// TestEveryReadMatchesReplay: every graph that Retrieve, RetrieveMany,
// GetSnapshot and GetSnapshots build is the replay of the trace at its time
// (graph.SnapshotAt, filtered to the read's attributes), and so is
// RetrieveExpression of one timepoint — at random times, structure only, with one
// node attribute and with all, on indexes with nothing, the root and every
// leaf materialized, one of them partitioned. Between them the reads build
// every kind of graph: a dependent of the current graph, a dependent of a
// materialized one, an explicit one, and multipoint plans that fork. Once
// every graph is released and cleaned the pool holds what it held before the
// reads, to the byte, the graphs the map-returning calls and the expression
// built and released among them.
//
// lenientTrace sets attributes on absent elements and moves edge ids, and
// there the replay is not the index's answer: a multipoint plan may undo an
// eventlist a singlepoint one applies, and an undone delete does not bring
// back the attributes it took. On it each graph Retrieve and RetrieveMany
// build in the pool, a dependent one among them, is held instead to the
// copy GetSnapshot and GetSnapshots hand back from an explicit graph built
// on the same plan.
func TestEveryReadMatchesReplay(t *testing.T) {
	kinds := map[string]int{}
	for _, tc := range []struct {
		trace  string
		events graph.EventList
		parts  int
	}{{"makeTrace", makeTrace(31, 3000), 1}, {"makeTrace", makeTrace(32, 3000), 3}, {"lenientTrace", lenientTrace(31, 3000), 1}} {
		for _, policy := range []string{"", "root", "leaves"} {
			name := fmt.Sprintf("%s/P=%d/materialized=%q", tc.trace, tc.parts, policy)
			pool := graphpool.New()
			dg, err := Build(tc.events, Options{LeafSize: 100, Arity: 2, Pool: pool, Partitions: tc.parts, DependentMaxRatio: 0.5})
			if err == nil && policy != "" {
				err = dg.MaterializeLevel(policy)
			}
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(len(policy))))
			first, last := tc.events.Span()
			draw := func() graph.Time { return first - 2 + graph.Time(rng.Int63n(int64(last-first+5))) }
			type read struct {
				ts   []graph.Time
				opts graph.AttrOptions
			}
			var reads []read
			for i := 0; i < 15; i++ {
				ts := []graph.Time{draw()}
				if i%3 == 0 { // the head and near it, where reads start at the current graph
					ts[0] = last - graph.Time(rng.Intn(20))
				}
				for j := rng.Intn(4); j > 0; j-- { // close times, so that plans share steps
					ts = append(ts, ts[len(ts)-1]+graph.Time(rng.Intn(40)))
				}
				reads = append(reads, read{ts, graph.MustParseAttrOptions([]string{"", "+node:name", "+node:all+edge:all"}[i%3])})
			}
			// Once to grow what the reads grow (a node's list of values, the
			// spill table), which a clean pass does not shrink, then again.
			for pass := 0; pass < 2; pass++ {
				pool.CleanNow()
				bytes, st := pool.ApproxBytes(), pool.Stats()
				var held []graphpool.GraphID
				for _, rd := range reads {
					single, err := dg.GetSnapshot(rd.ts[0], rd.opts)
					if err != nil {
						t.Fatal(err)
					}
					snaps, err := dg.GetSnapshots(rd.ts, rd.opts)
					if err != nil {
						t.Fatal(err)
					}
					expr, err := expression(dg, TimeExpression{Times: rd.ts, Expr: Var(0)}, rd.opts)
					if err != nil {
						t.Fatal(err)
					}
					one, err := dg.Retrieve(rd.ts[0], rd.opts)
					if err != nil {
						t.Fatal(err)
					}
					many, err := dg.RetrieveMany(rd.ts, rd.opts)
					if err != nil {
						t.Fatal(err)
					}
					for i, id := range append([]graphpool.GraphID{one}, many...) {
						at, copied := rd.ts[0], single
						if i > 0 {
							at, copied = rd.ts[i-1], snaps[i-1]
						}
						want, what := copied, "the copy GetSnapshot(s) hands back"
						if tc.trace == "makeTrace" {
							want, what = rd.opts.FilterSnapshot(graph.SnapshotAt(tc.events, at)), "the replay"
							if !copied.Equal(want) {
								t.Fatalf("%s: GetSnapshot(s) at %d of %v, %v, differs from the replay", name, at, rd.ts, rd.opts)
							}
							if i == 0 && !expr.Equal(want) {
								t.Fatalf("%s: RetrieveExpression of %d alone over %v, %v, differs from the replay", name, at, rd.ts, rd.opts)
							}
						}
						v, err := pool.View(id)
						if err != nil {
							t.Fatal(err)
						}
						if got := v.Snapshot(); !got.Equal(want) || v.NumNodes() != len(want.Nodes) || v.NumEdges() != len(want.Edges) {
							t.Fatalf("%s: graph %d of Retrieve(%v) and RetrieveMany(%v, %v) differs from %s", name, i, rd.ts[0], rd.ts, rd.opts, what)
						}
					}
					held = append(append(held, one), many...)
					for _, row := range pool.MappingTable() {
						switch {
						case row.ID != one:
						case row.Dep == graphpool.CurrentGraph:
							kinds["dependent on the current graph"]++
						case row.Dep != graphpool.NoDependency:
							kinds["dependent on a materialized graph"]++
						default:
							kinds["explicit"]++
						}
					}
					dg.mu.RLock()
					tree, _, err := dg.planLocked(rd.ts, selectorFor(rd.opts, nil))
					dg.mu.RUnlock()
					if err != nil {
						t.Fatal(err)
					}
					if forks(tree.kids...) > 0 {
						kinds["multipoint, forked"]++
					}
				}
				for _, id := range held {
					if err := pool.Release(id); err != nil {
						t.Fatal(err)
					}
				}
				pool.CleanNow()
				after := pool.Stats()
				if got := pool.ApproxBytes(); pass == 1 && (got != bytes || after.PoolNodes != st.PoolNodes || after.PoolEdges != st.PoolEdges || after.ActiveGraphs != st.ActiveGraphs) {
					t.Errorf("%s: released and cleaned, the pool holds %d B, %d nodes, %d edges in %d graphs; before the reads %d B, %d, %d in %d",
						name, got, after.PoolNodes, after.PoolEdges, after.ActiveGraphs, bytes, st.PoolNodes, st.PoolEdges, st.ActiveGraphs)
				}
			}
		}
	}
	t.Logf("graphs built: %v", kinds)
	for _, kind := range []string{"dependent on the current graph", "dependent on a materialized graph", "explicit", "multipoint, forked"} {
		if kinds[kind] == 0 {
			t.Errorf("no read built a graph %s", kind)
		}
	}
}

// forks counts the nodes of a plan, below its root, that more than one graph
// goes on from.
func forks(nodes ...*planNode) (n int) {
	for _, pn := range nodes {
		if len(pn.outs)+len(pn.kids) > 1 {
			n++
		}
		n += forks(pn.kids...)
	}
	return n
}

// TestMaterializedPendingNode: a pending node is materialized where it is,
// on its own pool graph, with no copy; no read builds a dependent of that
// graph, which is the pending node's to let go of. When the node gets a
// parent its graph stays, materialized. A pending node unmaterialized keeps
// its graph until it gets a parent, and then lets it go. Reads at every leaf
// time agree with replay throughout.
func TestMaterializedPendingNode(t *testing.T) {
	events := makeTrace(36, 4000)
	pool := graphpool.New()
	split := 1500
	dg, err := Build(events[:split], Options{LeafSize: 100, Arity: 2, Pool: pool, DependentMaxRatio: 1})
	if err != nil {
		t.Fatal(err)
	}
	live := func() int { st := pool.Stats(); return st.ActiveGraphs - st.ReleasedGraphs }
	check := func(what string, hi int) {
		t.Helper()
		for _, q := range dg.LeafTimes() {
			id, err := dg.Retrieve(q, allAttrs)
			if err != nil {
				t.Fatalf("%s: Retrieve(%d): %v", what, q, err)
			}
			v, err := pool.View(id)
			if err != nil || !v.Snapshot().Equal(graph.SnapshotAt(events[:hi], q)) {
				t.Fatalf("%s: the graph retrieved at %d differs from replay (%v)", what, q, err)
			}
			for _, row := range pool.MappingTable() {
				if n := dg.pendingNodeOf(row.Dep); n >= 0 {
					t.Fatalf("%s: graph %d depends on pending node %d's graph", what, row.ID, n)
				}
			}
			if err := pool.Release(id); err != nil {
				t.Fatal(err)
			}
		}
		pool.CleanNow()
	}
	appendUntilPromoted := func(node NodeRef, lo int) int {
		t.Helper()
		for ; dg.pendingNode(int(node)) != nil; lo += 50 {
			if lo >= len(events) {
				t.Fatalf("node %d never got a parent", node)
			}
			if err := dg.AppendAll(events[lo:min(lo+50, len(events))]); err != nil {
				t.Fatal(err)
			}
		}
		return lo
	}

	root, err := dg.Root()
	if err != nil {
		t.Fatal(err)
	}
	before := live()
	if err := dg.MaterializeLevel("root"); err != nil {
		t.Fatal(err)
	}
	gid := dg.matGraphs[int(root)]
	if live() != before || gid != dg.pendingNode(int(root)).graph.ID() {
		t.Fatalf("materializing pending node %d made a graph (%d live graphs, were %d)", root, live(), before)
	}
	check("root materialized", split)
	pinned, err := pool.View(gid)
	if err != nil {
		t.Fatal(err)
	}
	want := pinned.Snapshot()
	hi := appendUntilPromoted(root, split)
	if v, err := pool.View(gid); err != nil || !v.Snapshot().Equal(want) {
		t.Fatalf("node %d got a parent and its materialized graph went (%v)", root, err)
	}
	check("the materialized node promoted", hi)

	next, err := dg.Root()
	if err != nil {
		t.Fatal(err)
	}
	if next == root {
		t.Fatal("the new root is the old one")
	}
	if err := dg.Materialize(next); err != nil {
		t.Fatal(err)
	}
	if err := dg.Unmaterialize(next); err != nil {
		t.Fatal(err)
	}
	check("a pending node unmaterialized", hi)
	gone := dg.pendingNode(int(next)).graph.ID()
	hi = appendUntilPromoted(next, hi)
	if _, err := pool.View(gone); err == nil {
		t.Fatalf("unmaterialized node %d got a parent and kept its graph", next)
	}
	check("the unmaterialized node promoted", hi)
}

// pendingNodeOf returns the pending node whose graph is id, -1 if none is.
func (dg *DeltaGraph) pendingNodeOf(id graphpool.GraphID) int {
	for _, level := range dg.pending {
		for _, c := range level {
			if c.graph.ID() == id {
				return c.node
			}
		}
	}
	return -1
}

// The index's test-only surface: reading the current graph out whole, and
// taking a materialization back.

// CurrentSnapshot returns a copy of the current graph.
func (dg *DeltaGraph) CurrentSnapshot() *graph.Snapshot {
	dg.mu.RLock()
	defer dg.mu.RUnlock()
	return dg.cur.Snapshot()
}

// Unmaterialize releases a materialized node: the zero-weight edge is
// removed and the pinned snapshot dropped, unless the node is pending and
// holds it still. It fails if the pool copy has dependent graphs.
func (dg *DeltaGraph) Unmaterialize(ref NodeRef) error {
	dg.mu.Lock()
	defer dg.mu.Unlock()
	id := int(ref)
	if id < 0 || id >= len(dg.skel.nodes) || !dg.skel.nodes[id].materialized {
		return fmt.Errorf("deltagraph: node %d not materialized", id)
	}
	if id == dg.skel.leaves[0] {
		return fmt.Errorf("deltagraph: the empty anchor leaf stays materialized")
	}
	if gid, ok := dg.matGraphs[id]; ok {
		if dg.pendingNode(id) == nil {
			if err := dg.pool.Release(gid); err != nil {
				return err
			}
		}
		delete(dg.matGraphs, id)
	}
	dg.skel.nodes[id].materialized = false
	for _, ei := range dg.skel.out[dg.skel.superRoot] {
		e := dg.skel.edges[ei]
		if e != nil && e.kind == kindMat && e.to == id {
			dg.skel.removeEdge(ei)
			break
		}
	}
	return nil
}

// removeEdge drops edge idx, a materialization edge (Unmaterialize). The
// index must be valid; the edge slot is tombstoned, which the index's
// walks and checkpoints skip.
func (s *skeleton) removeEdge(idx int) {
	e := s.edges[idx]
	if e == nil {
		return
	}
	list := s.out[e.from]
	for i, x := range list {
		if x == idx {
			s.out[e.from] = append(list[:i], list[i+1:]...)
			break
		}
	}
	s.edges[idx] = nil
}
