package historygraph

import (
	"path/filepath"
	"testing"
)

// smallTrace: a co-authorship-flavored deterministic trace.
func smallTrace() EventList {
	var events EventList
	now := Time(0)
	addAuthor := func(id NodeID, name string) {
		now++
		events = append(events,
			Event{Type: AddNode, At: now, Node: id},
			Event{Type: SetNodeAttr, At: now, Node: id, Attr: "name", New: name, HasNew: true})
	}
	coauthor := func(eid EdgeID, a, b NodeID) {
		now++
		events = append(events, Event{Type: AddEdge, At: now, Edge: eid, Node: a, Node2: b})
	}
	addAuthor(1, "ada")
	addAuthor(2, "bob")
	addAuthor(3, "cho")
	coauthor(1, 1, 2)
	coauthor(2, 2, 3)
	addAuthor(4, "dee")
	coauthor(3, 3, 4)
	coauthor(4, 1, 4)
	return events
}

func TestEndToEndLifecycle(t *testing.T) {
	gm, err := Open(Options{LeafEventlistSize: 3, Arity: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer gm.Close()
	events := smallTrace()
	if err := gm.AppendAll(events); err != nil {
		t.Fatal(err)
	}

	// Current graph.
	cur := gm.CurrentGraph()
	if cur.NumNodes() != 4 || cur.NumEdges() != 4 {
		t.Fatalf("current graph: %d nodes, %d edges", cur.NumNodes(), cur.NumEdges())
	}

	// Historical graph with attributes: after the first coauthorship.
	h, err := gm.GetHistGraph(5, "+node:name")
	if err != nil {
		t.Fatal(err)
	}
	if h.NumNodes() != 3 || h.NumEdges() != 2 {
		t.Errorf("t=5: %d nodes, %d edges", h.NumNodes(), h.NumEdges())
	}
	if name, ok := h.NodeAttr(1, "name"); !ok || name != "ada" {
		t.Errorf("attr = %q, %v", name, ok)
	}
	nbrs := h.Neighbors(1)
	if len(nbrs) != 1 || nbrs[0] != 2 {
		t.Errorf("neighbors = %v", nbrs)
	}
	if err := gm.Release(h); err != nil {
		t.Fatal(err)
	}

	// Multipoint.
	hs, err := gm.GetHistGraphs([]Time{3, 6, 8}, "")
	if err != nil {
		t.Fatal(err)
	}
	if hs[0].NumNodes() != 3 || hs[2].NumNodes() != 4 {
		t.Errorf("multipoint sizes: %d, %d", hs[0].NumNodes(), hs[2].NumNodes())
	}

	// Detached snapshot.
	snap, err := gm.GetHistSnapshot(7, "+node:all")
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Nodes) != 4 || len(snap.Edges) != 3 {
		t.Errorf("snapshot: %d nodes %d edges", len(snap.Nodes), len(snap.Edges))
	}

	// TimeExpression: edges valid at t=8 but not at t=5.
	expr, err := gm.GetHistGraphExpr(TimeExpression{
		Times: []Time{8, 5},
		Expr:  And{Var(0), Not{E: Var(1)}},
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	if expr.NumEdges() != 2 {
		t.Errorf("expression edges = %d, want 2", expr.NumEdges())
	}
	gm.Release(expr)

	// Interval query.
	ir, err := gm.GetHistGraphInterval(4, 7, "")
	if err != nil {
		t.Fatal(err)
	}
	if ir.Graph.NumEdges() != 2 {
		t.Errorf("interval edges = %d", ir.Graph.NumEdges())
	}
	gm.Release(ir.Graph)

	// Materialization policies.
	if err := gm.Materialize("root"); err != nil {
		t.Fatal(err)
	}
	if err := gm.Materialize("leaves"); err != nil {
		t.Fatal(err)
	}
	h2, err := gm.GetHistGraph(5, "")
	if err != nil {
		t.Fatal(err)
	}
	if h2.NumNodes() != 3 {
		t.Error("materialized retrieval differs")
	}

	if gm.IndexStats().Leaves == 0 {
		t.Error("no leaves in stats")
	}
	if gm.PoolStats().ActiveGraphs == 0 {
		t.Error("no active graphs")
	}
}

func TestPersistentLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db")
	gm, err := Open(Options{LeafEventlistSize: 3, Arity: 2, StorePath: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := gm.AppendAll(smallTrace()); err != nil {
		t.Fatal(err)
	}
	if err := gm.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := gm.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Load(Options{StorePath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	h, err := re.GetHistGraph(5, "")
	if err != nil {
		t.Fatal(err)
	}
	if h.NumNodes() != 3 || h.NumEdges() != 2 {
		t.Errorf("reloaded t=5: %d nodes, %d edges", h.NumNodes(), h.NumEdges())
	}
	// Keep appending after reload.
	if err := re.Append(Event{Type: AddNode, At: 100, Node: 99}); err != nil {
		t.Fatal(err)
	}
	if !re.CurrentGraph().HasNode(99) {
		t.Error("append after reload missing")
	}
}

func TestPartitionedPersistentStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db")
	gm, err := Open(Options{LeafEventlistSize: 3, Arity: 2, Partitions: 3, StorePath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer gm.Close()
	if err := gm.AppendAll(smallTrace()); err != nil {
		t.Fatal(err)
	}
	h, err := gm.GetHistGraph(6, "")
	if err != nil {
		t.Fatal(err)
	}
	if h.NumNodes() != 4 {
		t.Errorf("partitioned retrieval: %d nodes", h.NumNodes())
	}
	// One file per partition.
	for i := 0; i < 3; i++ {
		if _, err := filepath.Glob(path + ".p*"); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBuildFrom(t *testing.T) {
	gm, err := BuildFrom(smallTrace(), Options{LeafEventlistSize: 3, Arity: 2, DifferentialFunction: "balanced"})
	if err != nil {
		t.Fatal(err)
	}
	defer gm.Close()
	h, err := gm.GetHistGraph(8, "")
	if err != nil {
		t.Fatal(err)
	}
	if h.NumEdges() != 4 {
		t.Errorf("edges = %d", h.NumEdges())
	}
}

func TestOptionErrors(t *testing.T) {
	if _, err := Open(Options{DifferentialFunction: "nope"}); err == nil {
		t.Error("bad differential function accepted")
	}
	if _, err := Load(Options{}); err == nil {
		t.Error("Load without path accepted")
	}
	gm, _ := Open(Options{})
	defer gm.Close()
	if _, err := gm.GetHistGraph(1, "bogus options"); err == nil {
		t.Error("bad attr options accepted")
	}
	if _, err := gm.GetHistGraphs([]Time{1}, "bogus"); err == nil {
		t.Error("bad attr options accepted in multipoint")
	}
}

// TestAppendDoesNotRewriteThePast: events that change nothing — a second add
// of a live node, a delete of an edge that is not there, an attribute set to
// the value it has — are acknowledged and leave every answer as it was,
// through both retrieval paths.
func TestAppendDoesNotRewriteThePast(t *testing.T) {
	gm, err := Open(Options{LeafEventlistSize: 2, Arity: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer gm.Close()
	events := smallTrace()
	last := events[len(events)-1].At
	events = append(events,
		Event{Type: AddNode, At: last + 1, Node: 1},
		Event{Type: DelEdge, At: last + 2, Edge: 99, Node: 1, Node2: 2},
		Event{Type: SetNodeAttr, At: last + 3, Node: 2, Attr: "name", New: "bob", HasNew: true},
		Event{Type: AddNode, At: last + 4, Node: 5})
	if err := gm.AppendAll(events); err != nil {
		t.Fatal(err)
	}
	if gm.LastTime() != last+4 {
		t.Fatalf("clock at %d, want %d", gm.LastTime(), last+4)
	}
	for q := Time(0); q <= last+4; q++ {
		want := 0
		for _, ev := range smallTrace() {
			if ev.Type == AddNode && ev.At <= q {
				want++
			}
		}
		if q == last+4 {
			want++
		}
		snap, err := gm.GetHistSnapshot(q, "+node:all")
		if err != nil {
			t.Fatal(err)
		}
		h, err := gm.GetHistGraph(q, "")
		if err != nil {
			t.Fatal(err)
		}
		if len(snap.Nodes) != want || h.NumNodes() != want {
			t.Errorf("t=%d: %d nodes by snapshot, %d by pool view, want %d", q, len(snap.Nodes), h.NumNodes(), want)
		}
		if q >= 2 && snap.NodeAttrs[2]["name"] != "bob" {
			t.Errorf("t=%d: node 2 is named %q", q, snap.NodeAttrs[2]["name"])
		}
		gm.Release(h)
	}
}
