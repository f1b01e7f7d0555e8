package deltagraph

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"historygraph/internal/delta"
	"historygraph/internal/graph"
	"historygraph/internal/graphpool"
	"historygraph/internal/kvstore"
)

// openLeafEvents returns rounds of events on ids from base up, which no other
// event of the tests uses, from time at on, one timestamp an event but the two adds that open a
// round. They are what the index admits them as (Old and HadOld as the graph
// has them, a deleted edge's endpoints spelled out), so the recent eventlist
// must hold exactly these. Between them they write every field the event
// codec has: raw events (a type its table does not know, a transient node
// that carries an attribute name), HadOld with an empty Old, an attribute
// set to "" and one removed, directed and undirected edges.
func openLeafEvents(at graph.Time, base int64, rounds int) graph.EventList {
	ref := graph.NewSnapshot()
	var evs graph.EventList
	add := func(ev graph.Event) {
		ev.At = at
		switch ev.Type {
		case graph.SetNodeAttr:
			ev.Old, ev.HadOld = ref.NodeAttrs[ev.Node][ev.Attr]
		case graph.SetEdgeAttr:
			ev.Old, ev.HadOld = ref.EdgeAttrs[ev.Edge][ev.Attr]
		case graph.DelEdge:
			info := ref.Edges[ev.Edge]
			ev.Node, ev.Node2, ev.Directed = info.From, info.To, info.Directed
		}
		ref.Apply(ev)
		evs = append(evs, ev)
		at++
	}
	for i := range rounds {
		n, e := graph.NodeID(base+2*int64(i)), graph.EdgeID(base+int64(i))
		add(graph.Event{Type: graph.AddNode, Node: n})
		at--
		add(graph.Event{Type: graph.AddNode, Node: n + 1})
		add(graph.Event{Type: graph.SetNodeAttr, Node: n, Attr: "a", New: fmt.Sprint("v", i), HasNew: true})
		add(graph.Event{Type: graph.AddEdge, Edge: e, Node: n, Node2: n + 1, Directed: i%2 == 0})
		add(graph.Event{Type: graph.SetEdgeAttr, Edge: e, Attr: "w", New: "", HasNew: true})
		add(graph.Event{Type: graph.SetNodeAttr, Node: n, Attr: "a", New: "", HasNew: true})
		add(graph.Event{Type: graph.SetNodeAttr, Node: n, Attr: "a", New: "x", HasNew: true}) // HadOld, Old ""
		add(graph.Event{Type: graph.SetEdgeAttr, Edge: e, Attr: "w"})                         // removed
		add(graph.Event{Type: graph.TransientNode, Node: n, Attr: fmt.Sprint("tag", i)})
		add(graph.Event{Type: 12, Node: n, Node2: n + 1, Edge: e, Attr: "z", New: "q", HasNew: true})
		if i%2 == 1 {
			add(graph.Event{Type: graph.DelEdge, Edge: e})
			add(graph.Event{Type: graph.DelNode, Node: n + 1})
			add(graph.Event{Type: graph.TransientEdge, Edge: e + 1<<20, Node: n, Node2: n - 2})
		}
	}
	return evs
}

// leafWalk carries s, the graph at time from, to time to along the leaf
// level: the events of every step, fetched in one graphRun, applied oldest
// first, or undone newest first where the step goes back in time.
func leafWalk(t *testing.T, dg *DeltaGraph, s *graph.Snapshot, from, to graph.Time) *graph.Snapshot {
	t.Helper()
	dg.mu.RLock()
	defer dg.mu.RUnlock()
	steps, err := dg.leafSteps(from, to, selectorFor(allAttrs, nil))
	if err != nil {
		t.Fatal(err)
	}
	run := graphRun{dg: dg, spec: specFor(allAttrs)}
	for _, st := range steps {
		evs, err := run.events(st)
		if err != nil {
			t.Fatal(err)
		}
		for i := range evs {
			if st.back {
				s.Apply(evs[len(evs)-1-i].Inverse())
			} else {
				s.Apply(evs[i])
			}
		}
	}
	return s
}

// checkOpenLeaf reads the index at every time from its last leaf to its
// newest event: forward from the leaf's graph, backward from the current
// graph, and all at once. Each answer must be the replay of history's.
func checkOpenLeaf(t *testing.T, dg *DeltaGraph, history graph.EventList) {
	t.Helper()
	leaf := dg.skel.leafTime(len(dg.skel.leaves) - 1)
	last := dg.LastTime()
	atLeaf, err := dg.GetSnapshot(leaf, allAttrs)
	if err != nil {
		t.Fatal(err)
	}
	var ts []graph.Time
	for q := leaf; q <= last; q++ {
		want := graph.SnapshotAt(history, q)
		if got := leafWalk(t, dg, atLeaf.Clone(), leaf, q); !got.Equal(want) {
			t.Fatalf("at %d forward from the leaf at %d: differs from the replay", q, leaf)
		}
		if got := leafWalk(t, dg, dg.CurrentSnapshot(), last, q); !got.Equal(want) {
			t.Fatalf("at %d backward from the current graph at %d: differs from the replay", q, last)
		}
		ts = append(ts, q)
	}
	snaps, err := dg.GetSnapshots(ts, allAttrs)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range ts {
		if !snaps[i].Equal(graph.SnapshotAt(history, q)) {
			t.Fatalf("GetSnapshots at %d differs from the replay", q)
		}
	}
	checkTransients(t, dg, history, leaf+1, last)
}

// checkTransients reads every interval of three ticks that starts in
// [from, to]: its transient events must be history's, field for field.
func checkTransients(t *testing.T, dg *DeltaGraph, history graph.EventList, from, to graph.Time) {
	t.Helper()
	for lo := from; lo <= to; lo++ {
		res, err := dg.GetInterval(lo, lo+3, allAttrs)
		if err != nil {
			t.Fatal(err)
		}
		var want []graph.Event
		for _, ev := range history[history.SearchTime(lo-1):history.SearchTime(lo+2)] {
			if ev.Type.IsTransient() {
				want = append(want, ev)
			}
		}
		if !reflect.DeepEqual(res.Transients, want) {
			t.Fatalf("transients in [%d, %d): got %v, want %v", lo, lo+3, res.Transients, want)
		}
		if err := dg.pool.Release(res.Graph.ID()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenLeafMatchesReplay reads an open leaf of several encoded chunks and
// a partial one at every time inside it, before and after a checkpoint taken
// in the middle of a chunk, and again once later events have cut it into a
// stored leaf-eventlist.
func TestOpenLeafMatchesReplay(t *testing.T) {
	const leafSize = 64 // chunks of 8 events
	store := kvstore.NewMemStore()
	history := makeTrace(44, 5*leafSize)
	dg, err := Build(history, Options{LeafSize: leafSize, Arity: 2, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	dg.mu.Lock()
	err = dg.cutLeafLocked() // the open leaf is the events below and no others
	dg.unlock()
	if err != nil {
		t.Fatal(err)
	}
	open := openLeafEvents(history[len(history)-1].At+1, 1<<32, 4)
	if err := dg.AppendAll(open); err != nil {
		t.Fatal(err)
	}
	history = append(history, open...)
	l := &dg.recent
	if len(l.chunks) < 2 || len(l.tail) == 0 {
		t.Fatalf("the open leaf is %d chunks of %d events and a tail of %d: want more than one chunk and a partial one", len(l.chunks), l.size, len(l.tail))
	}
	holdsOpen := func(dg *DeltaGraph) {
		t.Helper()
		if got, err := dg.recent.all(); err != nil || !reflect.DeepEqual(got, open) {
			t.Fatalf("the recent eventlist holds\n%v (%v)\nwant\n%v", got, err, open)
		}
	}
	holdsOpen(dg)
	checkOpenLeaf(t, dg, history)

	if err := dg.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	holdsOpen(re)
	checkOpenLeaf(t, re, history)

	leaves := re.Stats().Leaves
	more := openLeafEvents(history[len(history)-1].At+1, 1<<33, 2)
	if err := re.AppendAll(more); err != nil {
		t.Fatal(err)
	}
	if re.Stats().Leaves != leaves+1 {
		t.Fatal("no leaf was cut")
	}
	history = append(history, more...)
	var probes []graph.Time
	for q := open[0].At - 1; q <= re.LastTime(); q++ {
		probes = append(probes, q)
	}
	checkAgainstReference(t, re, history, allAttrs, probes)
	checkTransients(t, re, history, open[0].At, re.LastTime())
	checkOpenLeaf(t, re, history)
}

// TestOpenLeafHeap: the recent eventlist at the benchmark's fixed point (the
// seed-1 trace, 2 108 events after the last leaf) holds at most 24 B of heap
// an event. Held decoded, as a graph.EventList of 104-byte events, it took
// 104.9 B. As four encoded chunks of L/8 events, each event's time beside
// them, and a decoded tail of 60 it takes 21.0, and 20.0 with an event 88
// bytes: 8.1 B of payload an event, 8 of time, the rest the tail and
// allocation size classes.
func TestOpenLeafHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocator is not the one the bound was measured under")
	}
	events := benchTrace(1, 1)
	dg, err := Build(events, Options{Pool: graphpool.New()})
	if err != nil {
		t.Fatal(err)
	}
	n := dg.Stats().RecentEvents
	freed := -heapGrowth(func() { dropValue(&dg.recent) }, events, dg)
	perEvent := float64(freed) / float64(n)
	t.Logf("the open leaf holds %d B for %d events, %.1f B an event", freed, n, perEvent)
	if perEvent > 24 {
		t.Errorf("the open leaf holds %.1f B an event, want at most 24", perEvent)
	}
}

// TestLeafCutAllocations: a leaf cut copies each event twice, decoding the
// open leaf's chunks straight into one list and that list into its columns,
// each counted first and carved out of one array at its exact size. So on a
// mixed window of 4 096 events the cut allocates what decoding the chunks and
// encoding the columns do, one array of the window's events (360 kB), and
// 33 kB beside (keys, the store's copies). It allocated 1.5 MB beyond when
// the chunks were decoded apart and copied into one list and each column
// grew by append; the smallest column regrowing would show 118 kB.
func TestLeafCutAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocator is not the one the bound was measured under")
	}
	window := openLeafEvents(1, 1<<32, 400)[:4096]
	dg, err := New(Options{Store: kvstore.NewMemStore(), LeafSize: 2 * len(window)})
	if err != nil {
		t.Fatal(err)
	}
	var cols [4]graph.EventList
	for _, ev := range window {
		dg.recent.add(ev)
		cols[eventColumn(ev)] = append(cols[eventColumn(ev)], ev)
	}
	for c, col := range cols {
		if len(col) < len(window)/10 {
			t.Fatalf("column %d has %d of the window's %d events: want a mixed window", c, len(col), len(window))
		}
	}
	decode := allocated(func() {
		for _, chunk := range dg.recent.chunks {
			_, _ = delta.DecodeEvents(nil, chunk)
		}
	})
	encode := allocated(func() {
		for _, col := range cols {
			_ = delta.EncodeEvents(col)
		}
	})
	limit := decode + encode + uint64(len(window))*uint64(unsafe.Sizeof(graph.Event{})) + 64<<10
	var got uint64
	for try := 0; try < 3; try++ { // the counter is the process's: an excess has to show three times
		if got = allocated(func() {
			events, err := dg.recent.all()
			if err == nil {
				_, err = dg.putEvents(uint64(try+1), events, nil)
			}
			if err != nil {
				t.Fatal(err)
			}
		}); got <= limit {
			break
		}
	}
	t.Logf("the cut allocated %d B: %d decoding, %d encoding, %d beside", got, decode, encode, int64(got)-int64(decode+encode))
	if got > limit {
		t.Errorf("the cut allocated %d B, more than %d", got, limit)
	}
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// dropValue sets *p to its zero value, whatever the type of the recent
// eventlist is.
func dropValue[T any](p *T) {
	var zero T
	*p = zero
}
