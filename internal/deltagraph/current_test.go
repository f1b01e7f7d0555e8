package deltagraph

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"historygraph/internal/datagen"
	"historygraph/internal/delta"
	"historygraph/internal/graph"
	"historygraph/internal/graphpool"
)

// lenientTrace is a seeded trace that takes graph.Snapshot.Apply at its
// word, where datagen.MessyTrace is courteous: nodes and edges are deleted
// with their attributes on them and added again later, and attributes are
// set on ids that were never added and on ones that were deleted. It keeps
// MessyTrace's other courtesy (no delete and re-add of one element at one
// instant). An edge id names one pair of nodes from an add to the next
// delete, and every other time another pair after that.
func lenientTrace(seed int64, n int) graph.EventList {
	rng := rand.New(rand.NewSource(seed))
	const ids = 10
	type elem struct {
		edge bool
		id   int64
	}
	var (
		events  graph.EventList
		now     graph.Time
		deleted = map[elem]graph.Time{} // when each element was last deleted
		joins   = map[graph.EdgeID][2]graph.NodeID{}
	)
	for len(events) < n {
		if rng.Intn(3) == 0 {
			now += graph.Time(1 + rng.Intn(2))
		}
		node, edge := graph.NodeID(1+rng.Intn(ids)), graph.EdgeID(1+rng.Intn(2*ids))
		ev := graph.Event{At: now, Node: node}
		if k := rng.Intn(10); k >= 5 { // an edge event, with its endpoints
			ev.Edge, ev.Node, ev.Node2 = edge, graph.NodeID(edge%ids+1), graph.NodeID(edge*7%ids+1)
			if pair, live := joins[edge]; live {
				ev.Node, ev.Node2 = pair[0], pair[1]
			} else if rng.Intn(2) == 0 {
				ev.Node, ev.Node2 = ev.Node2%ids+1, ev.Node%ids+1
			}
		}
		x := elem{id: int64(node)}
		if ev.Edge != 0 {
			x = elem{edge: true, id: int64(edge)}
		}
		switch k := rng.Intn(5); {
		case k < 2: // an add, of a live element or not
			if at, ok := deleted[x]; ok && at == now {
				continue
			}
			ev.Type = graph.AddNode
			if x.edge {
				ev.Type, joins[edge] = graph.AddEdge, [2]graph.NodeID{ev.Node, ev.Node2}
			}
		case k < 3: // a delete, attributes and all, of something there or not
			ev.Type, deleted[x] = graph.DelNode, now
			if x.edge {
				ev.Type = graph.DelEdge
				delete(joins, edge)
			}
		default: // an attribute set or removed, whether the element is there or not
			ev.Type, ev.Attr = graph.SetNodeAttr, []string{"a", "b"}[rng.Intn(2)]
			if x.edge {
				ev.Type = graph.SetEdgeAttr
			}
			if rng.Intn(4) != 0 {
				ev.New, ev.HasNew = []string{"x", "y", "z"}[rng.Intn(3)], true
			}
		}
		events = append(events, ev)
	}
	return events
}

// TestCurrentGraphIsOneGraph: the current graph is held once, in the pool,
// so every way of reading it says the same thing, which is what a naive
// replay says. Before, the index's own copy dropped a deleted element's
// attributes and the pool kept them in the current graph: after NN 1,
// UNA 1 a=x, DN 1, NN 1 a view of the head showed a=x on a node every other
// reader called bare. It is also the only place the endpoints of a current
// edge are kept, whatever a graph some reader holds in the same pool says of
// the edge's id: the trace deletes edges and adds them again between other
// nodes while one is held.
//
// The trace is read at the head only. A delete event does not carry the
// attributes it takes with it, so a stored eventlist played backward over an
// attributed delete cannot bring them back: that is the exactness item of
// ROADMAP direction 3, not this test's.
func TestCurrentGraphIsOneGraph(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		events := lenientTrace(seed, 600)
		pool := graphpool.New()
		dg, err := New(Options{LeafSize: 16, Arity: 2, Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		var (
			attributedDeletes, orphans, moved int
			held                              *graph.Snapshot // a graph a reader keeps in the pool, and its id there
			heldID                            graphpool.GraphID
		)
		for i, ev := range events {
			if err := dg.Append(ev); err != nil {
				t.Fatal(err)
			}
			want := graph.SnapshotAt(events[:i+1], ev.At)
			// The reader's graph is not the index's to change, nor in its way:
			// an edge id the reader holds between two nodes may be deleted and
			// added between two others.
			if held != nil {
				for e, info := range held.Edges {
					if now, ok := want.Edges[e]; ok && now != info {
						moved++
					}
				}
				if v, err := pool.View(heldID); err != nil || !v.Snapshot().Equal(held) {
					t.Fatalf("seed %d, after event %d (%+v): the graph a reader holds in the pool changed (%v)", seed, i, ev, err)
				}
			}
			if i%120 == 0 {
				if held != nil {
					if err := pool.Release(heldID); err != nil {
						t.Fatal(err)
					}
				}
				held = want
				b, err := pool.NewBuild(graphpool.NoDependency, false, allAttrs)
				if err != nil {
					t.Fatal(err)
				}
				b.ApplyDelta(delta.FromSnapshot(held))
				heldID = b.Commit(graphpool.KindHistorical, ev.At)
			}
			id, err := dg.Retrieve(ev.At, allAttrs)
			if err != nil {
				t.Fatal(err)
			}
			view, err := pool.View(id)
			if err != nil {
				t.Fatal(err)
			}
			got, err := dg.GetSnapshot(ev.At, allAttrs)
			if err != nil {
				t.Fatal(err)
			}
			for how, s := range map[string]*graph.Snapshot{"CurrentSnapshot": dg.CurrentSnapshot(), "GetSnapshot": got, "Retrieve": view.Snapshot()} {
				if !s.Equal(want) {
					t.Fatalf("seed %d, after event %d (%+v): %s says nodes %v attrs %v, edges %v attrs %v; replay says %v %v, %v %v",
						seed, i, ev, how, s.Nodes, s.NodeAttrs, s.Edges, s.EdgeAttrs, want.Nodes, want.NodeAttrs, want.Edges, want.EdgeAttrs)
				}
			}
			if err := pool.Release(id); err != nil {
				t.Fatal(err)
			}
			pool.CleanNow()
			// What the trace is for: count that it happened.
			if i > 0 && (ev.Type == graph.DelNode || ev.Type == graph.DelEdge) {
				before := graph.SnapshotAt(events[:i], ev.At)
				if len(before.NodeAttrs[ev.Node]) > 0 && ev.Type == graph.DelNode || len(before.EdgeAttrs[ev.Edge]) > 0 && ev.Type == graph.DelEdge {
					attributedDeletes++
				}
			}
			for n := range want.NodeAttrs {
				if _, ok := want.Nodes[n]; !ok {
					orphans++
				}
			}
		}
		if st := dg.Stats(); st.Leaves < 10 || attributedDeletes < 10 || orphans < 10 || moved < 5 {
			t.Fatalf("seed %d: %d leaves, %d attributed deletes, %d reads with attributes on an absent node, %d with an edge a reader holds between other nodes: the trace does not cover what it is for",
				seed, st.Leaves, attributedDeletes, orphans, moved)
		}
		// The same graph comes back from a checkpoint, into a pool of the
		// reopened index's own.
		if err := dg.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		re, err := Open(Options{Store: dg.Store()})
		if err != nil {
			t.Fatal(err)
		}
		if want := dg.CurrentSnapshot(); !re.CurrentSnapshot().Equal(want) {
			t.Fatalf("seed %d: the reopened index's current graph differs", seed)
		}
	}
}

// benchTrace is the repository benchmark's trace (benchmark/dataset.go) at
// scale times its size: 4 000 authors with 10 attributes each, 16 000 edges,
// then 10 000 edge adds and as many deletes.
func benchTrace(seed int64, scale int) graph.EventList {
	base := datagen.Coauthorship(datagen.CoauthorshipConfig{
		Authors: 4000 * scale, Edges: 16000 * scale, Years: 20, AttrsPerNode: 10, Seed: seed,
	})
	return datagen.Churn(base, datagen.ChurnConfig{Adds: 10000 * scale, Dels: 10000 * scale, Seed: seed + 1})
}

// heapGrowth returns the live heap build leaves behind: HeapAlloc after it
// and a collection, less HeapAlloc after a collection before it. inputs are
// what build reads; they are kept alive across both readings, so that
// their collection is not counted against the growth. Each collection is
// two, as the repository benchmark's heap_live_mb takes: a sync.Pool's
// victim cache outlives one, and the store's pooled flate writers (about
// 1 MB each) would count as the index's when the last put came just before.
func heapGrowth(build func(), inputs ...any) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	build()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(inputs)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// TestIndexResidentHeap is the counter behind the repository benchmark's
// heap_live_mb, as TestGoldenCheckpointBytes is behind
// durable_bytes_per_event: what an index over the benchmark's seed-1 trace
// and its pool keep on the heap once built, payloads in a file. It read
// 13.3 MB when the index held a graph.Snapshot of the current graph beside
// the pool; 9.22 MB with the pool alone, about half of it the pending nodes'
// patches; 7.06 MB once a promoted group was let go of (half of those patches
// were of nodes that had a parent); 5.93 MB, 40 753 patch entries down to
// 12 791, with the far level-4 node held from the
// null graph; 5.35 MB with each node's adjacency on its pool record and no
// attribute-list header on a bare edge (5.34 MB with one bit an explicit view,
// ceiling 5.9 MB); 4.72 MB with 32-byte attribute values and edge records in
// the pool (ceiling 5.2 MB); 4.34 MB with the open leaf held as encoded
// chunks and no set of the elements it changed; 4.09 MB once Build stopped
// building a spine (ceiling 4.8 MB); 3.23 MB with the pending nodes held as
// graphs in the pool, a bit each, where their patches beside it held about
// 1 MB (ceiling 3.55 MB); 3.14 MB with the pool's records in chunks, named by 4-byte
// indices, and adjacency lists of them (ceiling 3.45 MB); 2.59 MB with
// the records found by id through open-addressed tables of those indices,
// where Go maps held 721 kB (ceiling 2.85 MB); 2.36 MB with 24-byte
// attribute values that name their strings in one table, where a string
// header on each of the 40 000 values made them 32 B (ceiling 2.6 MB); and
// 1.91 MB with 16-byte values and 24-byte edge records, each bitmap's spill
// slot named by its inline word, when the ceiling was set about a tenth
// above that: the pool, which is the current graph and the pending nodes,
// and 44 kB of open leaf (TestOpenLeafHeap).
func TestIndexResidentHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocator is not the one the ceiling was measured under")
	}
	events := benchTrace(1, 1)
	fs := openFileStore(t, filepath.Join(t.TempDir(), "index"))
	defer fs.Close()
	var dg *DeltaGraph
	grown := heapGrowth(func() {
		var err error
		if dg, err = Build(events, Options{Store: fs, Pool: graphpool.New()}); err != nil {
			t.Fatal(err)
		}
	}, events)
	t.Logf("index and pool hold %.2f MB of heap for %d events (the pool holds %d bits)", float64(grown)/(1<<20), len(events), dg.pool.Stats().Bits)
	const ceiling = 2.1 * (1 << 20)
	if float64(grown) > ceiling {
		t.Errorf("index and pool hold %d B of heap, ceiling %.0f", grown, ceiling)
	}
	runtime.KeepAlive(dg)
}

// TestReadLeavesNoIndexState: a read builds nothing the index keeps. Bulk
// built from the benchmark's seed-1 trace, less ten leaves' worth, the index
// is left with under 16 kB more live heap by its first historical read (the
// read built the provisional spine, 0.255 MB on the whole trace, until reads
// came to reach the pending nodes by their patches). Then ten live leaf
// cuts, each followed by a historical read, leave the skeleton the nodes and
// edges the cuts add, and nothing else: a rebuilt spine used to leave its
// nodes and edges behind as tombstones.
func TestReadLeavesNoIndexState(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocator is not the one the ceiling was measured under")
	}
	const leaf, cuts = 4096, 10
	events := benchTrace(1, 1)
	split := len(events) - (cuts+1)*leaf
	fs := openFileStore(t, filepath.Join(t.TempDir(), "index"))
	defer fs.Close()
	dg, err := Build(events[:split], Options{LeafSize: leaf, Store: fs, Pool: graphpool.New()})
	if err != nil {
		t.Fatal(err)
	}
	past := events[split/2].At
	grown := heapGrowth(func() {
		if _, err := dg.GetSnapshot(past, allAttrs); err != nil {
			t.Fatal(err)
		}
	}, events)
	t.Logf("the first historical read left %d B of live heap", grown)
	if grown >= 16<<10 {
		t.Errorf("the first historical read left %d B of live heap, ceiling 16 kB", grown)
	}
	rng := rand.New(rand.NewSource(1))
	for lo, end := split, len(dg.LeafTimes())+cuts; len(dg.LeafTimes()) < end; lo += 256 {
		if lo >= len(events) {
			t.Fatalf("the trace ran out %d leaves short", end-len(dg.LeafTimes()))
		}
		leaves := len(dg.LeafTimes())
		if err := dg.AppendAll(events[lo:min(lo+256, len(events))]); err != nil {
			t.Fatal(err)
		}
		if len(dg.LeafTimes()) == leaves {
			continue
		}
		q := events[rng.Intn(lo)].At
		got, err := dg.GetSnapshot(q, allAttrs)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(graph.SnapshotAt(events, q)) {
			t.Fatalf("snapshot at %d differs from replay", q)
		}
		if err := dg.onlyWhatCutsAdd(); err != nil {
			t.Fatalf("after %d leaves: %v", len(dg.LeafTimes()), err)
		}
	}
	runtime.KeepAlive(dg)
}

// TestPendingGraphsCostLittle: the pending nodes are graphs in the pool, a
// bit each on records the current graph and the other graphs share, so
// letting go of them — releasing their graphs and cleaning the pool — frees
// under 100 kB of heap and record slots (61 kB measured: 1.3 kB of heap and
// 59 kB of slots) after the build, and again after enough
// further events that level 2 has filled and got a parent, when nothing may
// hold the children that were promoted on the way. As patches beside the
// pool they held 0.97 MB, 12 791 element images.
func TestPendingGraphsCostLittle(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocator is not the one the bound was measured under")
	}
	events := benchTrace(1, 1)
	// The same history again on other ids, later: every event of it is admitted.
	last := events[len(events)-1].At
	more := make(graph.EventList, len(events))
	for i, ev := range events {
		ev.At, ev.Node, ev.Node2, ev.Edge = ev.At+last+1, ev.Node+1<<30, ev.Node2+1<<30, ev.Edge+1<<30
		more[i] = ev
	}
	for _, promote := range []bool{false, true} {
		dg, err := Build(events, Options{Pool: graphpool.New()})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; promote; i++ {
			if err := dg.Append(more[i]); err != nil {
				t.Fatal(err)
			}
			if st := dg.Stats(); st.Leaves%8 == 0 && st.RecentEvents == 1 {
				break // the eighth leaf of a run: levels 0, 1 and 2 have just emptied
			}
		}
		leaves, before, graphs := dg.Stats().Leaves, dg.pool.Stats(), 0
		freed := -heapGrowth(func() {
			for _, level := range dg.pending {
				for _, c := range level {
					if err := dg.pool.Release(c.graph.ID()); err != nil {
						t.Fatal(err)
					}
					graphs++
				}
			}
			dg.pending = nil
			dg.pool.CleanNow()
		}, events, more, dg)
		// A record let go leaves its slot in its chunk for the next record,
		// so the heap does not show it: count the ids that left the pool at
		// the size of a record (an edge id's further records, if any, are
		// not counted).
		after := dg.pool.Stats()
		const nodeRecord, edgeRecord = 56, 32 // graphpool's record sizes
		slots := int64(before.PoolNodes-after.PoolNodes)*nodeRecord + int64(before.PoolEdges-after.PoolEdges)*edgeRecord
		t.Logf("%d leaves: letting go of %d pending graphs (the pool held %d bits) frees %.1f kB of heap and %.1f kB of record slots",
			leaves, graphs, before.Bits, float64(freed)/(1<<10), float64(slots)/(1<<10))
		if freed += slots; freed > 100<<10 {
			t.Errorf("%d leaves: the %d pending graphs hold %d B of heap and record slots, more than 100 kB", leaves, graphs, freed)
		}
	}
}

// headIndex is an index over the benchmark's trace at the given scale, and
// the time of its newest event.
func headIndex(tb testing.TB, scale int) (*DeltaGraph, graph.Time) {
	tb.Helper()
	events := benchTrace(1, scale)
	dg, err := Build(events, Options{Pool: graphpool.New()})
	if err != nil {
		tb.Fatal(err)
	}
	return dg, events[len(events)-1].At
}

// TestRetrieveHeadAllocs: a read at the head overlays a dependent of the
// current graph with no exceptions and copies nothing, so what it allocates
// does not depend on the size of the graph. It used to clone the current
// graph twice and sort both copies to find that they were equal.
func TestRetrieveHeadAllocs(t *testing.T) {
	var allocs [2]float64
	for i, scale := range []int{1, 4} {
		dg, last := headIndex(t, scale)
		allocs[i] = testing.AllocsPerRun(50, func() {
			id, err := dg.Retrieve(last, allAttrs)
			if err == nil {
				err = dg.Pool().Release(id)
			}
			if err != nil {
				t.Fatal(err)
			}
		})
		if n := dg.CurrentSnapshot().Size(); n < 50000*scale {
			t.Fatalf("the graph at scale %d has %d elements", scale, n)
		}
	}
	t.Logf("%v allocations a read at the head, on a graph and on one four times its size", allocs)
	if allocs[0] != allocs[1] || allocs[0] > 8 {
		t.Errorf("a read at the head allocates %v times on a graph, %v on one four times its size: want the same few", allocs[0], allocs[1])
	}
}

// BenchmarkRetrieveHead is Retrieve at the newest event's time: the read a
// serving layer makes for "now".
func BenchmarkRetrieveHead(b *testing.B) {
	dg, last := headIndex(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := dg.Retrieve(last, allAttrs)
		if err == nil {
			err = dg.Pool().Release(id)
		}
		if err != nil {
			b.Fatal(err)
		}
		if i%1024 == 1023 { // give the bits back, off the clock
			b.StopTimer()
			dg.Pool().CleanNow()
			b.StartTimer()
		}
	}
}

// BenchmarkAppend is the builder with storage out of the way and a pool
// attached: every event is admitted against the pool's current graph. The
// Flush counts the builder goroutine's work, which may end after the appends.
func BenchmarkAppend(b *testing.B) {
	events := benchTrace(1, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dg, err := New(Options{Pool: graphpool.New()})
		if err == nil {
			_, err = dg.AppendAllCounted(events)
		}
		if err == nil {
			err = dg.Flush()
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(events))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// TestPendingBitsWithinBudget: the pending nodes take a bit each, and the
// index holds at most (k−1)·height+1 of them, so a view cache can have the
// rest. Across more than ten live leaf cuts, with 32 explicit views held and
// churning — each step lets the oldest go and retrieves a new one, with no
// cleaner running — the pool never holds more than 64 bits and no bitmap
// carries a word beyond its inline one, no graph a promotion let go of stays
// live, and every new view reads its graph.
func TestPendingBitsWithinBudget(t *testing.T) {
	const leaf, arity, held = 150, 3, 32
	events := makeTrace(35, 6000)
	pool := graphpool.New()
	split := 2000
	dg, err := Build(events[:split], Options{LeafSize: leaf, Arity: arity, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(35))
	var views []graphpool.GraphID
	retrieve := func(upTo int) {
		t.Helper()
		q := events[rng.Intn(upTo)].At
		ids, err := dg.RetrieveMany([]graph.Time{q}, allAttrs)
		if err != nil {
			t.Fatal(err)
		}
		v, err := pool.View(ids[0])
		if err != nil || !v.Snapshot().Equal(graph.SnapshotAt(events, q)) {
			t.Fatalf("the view retrieved at %d does not read the graph there (%v)", q, err)
		}
		views = append(views, ids[0])
	}
	for range held {
		retrieve(split)
	}
	start, most := dg.Stats().Leaves, 0
	for lo := split; dg.Stats().Leaves < start+12; lo += 50 {
		if lo >= len(events) {
			t.Fatalf("the trace ran out %d leaves short", start+12-dg.Stats().Leaves)
		}
		if err := dg.AppendAll(events[lo:min(lo+50, len(events))]); err != nil {
			t.Fatal(err)
		}
		if err := pool.Release(views[0]); err != nil {
			t.Fatal(err)
		}
		views = views[1:]
		retrieve(lo)
		pending, height := 0, 0
		for level, row := range dg.pending {
			if pending += len(row); len(row) > 0 {
				height = level
			}
		}
		where := fmt.Sprintf("%d leaves", dg.Stats().Leaves)
		if budget := (arity-1)*height + 1; pending > budget {
			t.Fatalf("%s: %d pending nodes at height %d, budget %d", where, pending, height, budget)
		}
		st := pool.Stats()
		if st.Bits > 64 || st.Spilled > 0 {
			t.Fatalf("%s: the pool holds %d bits, %d bitmaps spilled (%d pending nodes, %d views)", where, st.Bits, st.Spilled, pending, len(views))
		}
		if live := st.ActiveGraphs - st.ReleasedGraphs; live != 1+pending+len(views) {
			t.Fatalf("%s: the pool holds %d live graphs: the current graph, %d pending nodes and %d views are %d", where, live, pending, len(views), 1+pending+len(views))
		}
		most = max(most, st.Bits)
	}
	t.Logf("%d live leaf cuts; the pool held at most %d bits", dg.Stats().Leaves-start, most)
}

// BenchmarkGetSnapshotHead is GetSnapshot, a structure-only copy handed out,
// at the newest event's time and five ticks before it: a dependent of the
// current graph, with no exception at the head and the five ticks' events
// undone behind it.
func BenchmarkGetSnapshotHead(b *testing.B) {
	dg, last := headIndex(b, 1)
	for _, back := range []graph.Time{0, 5} {
		b.Run(fmt.Sprintf("back=%d", back), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := dg.GetSnapshot(last-back, graph.AttrOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
