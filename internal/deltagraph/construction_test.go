package deltagraph

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"historygraph/internal/baseline"
	"historygraph/internal/datagen"
	"historygraph/internal/delta"
	"historygraph/internal/graph"
	"historygraph/internal/kvstore"
)

// refBuilder constructs an index the way the builder did before it worked
// over the elements that differ: every pending node is a whole-graph clone, every parent a
// whole-graph Combine, every delta a whole-graph Compute. It is the
// reference the construction differential compares payload bytes against,
// and the only place the whole-graph construction survives. It borrows a
// DeltaGraph for its stores, id counters and codecs, and nothing else.
type refBuilder struct {
	st       *DeltaGraph
	current  *graph.Snapshot
	recent   graph.EventList
	lastTime graph.Time
	pending  [][]*graph.Snapshot
	sizes    []int // of permanent nodes, leaves included, in creation order
}

func newRefBuilder(t *testing.T, opts Options) *refBuilder {
	t.Helper()
	opts.Store = nil
	st, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return &refBuilder{st: st, current: graph.NewSnapshot(), pending: make([][]*graph.Snapshot, 1)}
}

func (r *refBuilder) appendAll(t *testing.T, events graph.EventList) {
	t.Helper()
	for _, ev := range events {
		if len(r.recent) >= r.st.opts.LeafSize && ev.At > r.lastTime {
			r.cut(t)
		}
		r.current.Apply(ev)
		r.recent = append(r.recent, ev)
		r.lastTime = ev.At
	}
}

func (r *refBuilder) cut(t *testing.T) {
	t.Helper()
	if _, err := r.st.putEvents(r.st.nextDeltaID, r.recent, nil); err != nil {
		t.Fatal(err)
	}
	r.st.nextDeltaID++
	r.recent = nil
	r.sizes = append(r.sizes, r.current.Size())
	r.pending[0] = append(r.pending[0], r.current.Clone())
	k := r.st.opts.Arity
	for level := 0; len(r.pending[level]) >= k; level++ {
		parent := r.parent(t, r.pending[level][:k])
		r.pending[level] = r.pending[level][k:]
		if len(r.pending) == level+1 {
			r.pending = append(r.pending, nil)
		}
		r.pending[level+1] = append(r.pending[level+1], parent)
	}
}

func (r *refBuilder) parent(t *testing.T, group []*graph.Snapshot) *graph.Snapshot {
	t.Helper()
	p := combine(r.st.opts.Function, group)
	r.sizes = append(r.sizes, p.Size())
	for _, c := range group {
		if _, err := r.st.putDelta(r.st.nextDeltaID, delta.Compute(c, p), nil); err != nil {
			t.Fatal(err)
		}
		r.st.nextDeltaID++
	}
	return p
}

// payloads reads every record with an id in [from, to) out of a store: the
// four columns of a graph and, up to last, the aux indexes'.
func payloads(t *testing.T, store kvstore.Store, partitions int, from, to uint64, last kvstore.Component) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for id := from; id < to; id++ {
		for p := 0; p < partitions; p++ {
			for c := kvstore.ComponentStruct; c <= last; c++ {
				key := kvstore.EncodeKey(p, id, c)
				buf, err := store.Get(key)
				if err == kvstore.ErrNotFound {
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				out[string(key)] = buf
			}
		}
	}
	return out
}

func samePayloads(t *testing.T, what string, got, want map[string][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d records, reference has %d", what, len(got), len(want))
	}
	for key, w := range want {
		if g, ok := got[key]; !ok || !bytes.Equal(g, w) {
			p, id, c, _ := kvstore.DecodeKey([]byte(key))
			t.Fatalf("%s: record (%d, %d, %s) differs from the reference (%d B against %d B, present %v)", what, p, id, c, len(g), len(w), ok)
		}
	}
}

// compare holds dg against the reference: the permanent payloads key by key,
// the sizes carried on the skeleton nodes, and the pending nodes' graphs.
func (r *refBuilder) compare(t *testing.T, dg *DeltaGraph) {
	t.Helper()
	if err := dg.Flush(); err != nil { // the builder's puts reach the store
		t.Fatal(err)
	}
	P := dg.opts.Partitions
	if dg.nextDeltaID != r.st.nextDeltaID {
		t.Fatalf("next delta id %d, reference %d", dg.nextDeltaID, r.st.nextDeltaID)
	}
	last := kvstore.ComponentAuxBase
	if len(dg.auxes) > 0 {
		last-- // the reference stores no aux column
	}
	samePayloads(t, "index store", payloads(t, dg.store, P, 1, dg.nextDeltaID, last), payloads(t, r.st.store, P, 1, r.st.nextDeltaID, last))
	var want []*graph.Snapshot
	for level := len(r.pending) - 1; level >= 0; level-- {
		want = append(want, r.pending[level]...)
	}
	got, _ := pendingGraphs(dg)
	if len(got) != len(want) {
		t.Fatalf("%d pending nodes, reference %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("pending node %d holds another graph than the reference's", i)
		}
	}

	var sizes []int
	for _, n := range dg.skel.nodes[2:] { // past the super-root and the anchor leaf
		if n.level >= 0 {
			sizes = append(sizes, n.size)
		}
	}
	if fmt.Sprint(sizes) != fmt.Sprint(r.sizes) {
		t.Errorf("node sizes carried by arithmetic %v, counted by the reference %v", sizes, r.sizes)
	}
	if n := dg.cur.Snapshot().Size(); dg.curSize != n {
		t.Errorf("current graph: size carried %d, counted %d", dg.curSize, n)
	}
}

// canonical is a trace as the index admits it: the events that change
// nothing (an add of a live element, a delete of one the graph holds
// nothing of, an attribute set to the value it has or removed where there
// is none) dropped, and what the graph knows written into the rest (the
// value an attribute event replaces, a deleted edge's endpoints). The
// reference is fed what is left.
func canonical(events graph.EventList) graph.EventList {
	s := graph.NewSnapshot()
	var out graph.EventList
	for _, ev := range events {
		_, node := s.Nodes[ev.Node]
		info, edge := s.Edges[ev.Edge]
		switch ev.Type {
		case graph.AddNode, graph.AddEdge:
			if (ev.Type == graph.AddNode && node) || (ev.Type == graph.AddEdge && edge) {
				continue
			}
		case graph.DelNode:
			if !node && len(s.NodeAttrs[ev.Node]) == 0 {
				continue
			}
		case graph.DelEdge:
			if !edge && len(s.EdgeAttrs[ev.Edge]) == 0 {
				continue
			} else if edge {
				ev.Node, ev.Node2, ev.Directed = info.From, info.To, info.Directed
			}
		case graph.SetNodeAttr, graph.SetEdgeAttr:
			attrs := s.NodeAttrs[ev.Node]
			if ev.Type == graph.SetEdgeAttr {
				attrs = s.EdgeAttrs[ev.Edge]
			}
			ev.Old, ev.HadOld = attrs[ev.Attr]
			if (ev.HasNew && ev.HadOld && ev.Old == ev.New) || (!ev.HasNew && !ev.HadOld) {
				continue
			}
		}
		s.Apply(ev)
		out = append(out, ev)
	}
	return out
}

// TestConstructionDifferential is the licence for building parents over the
// elements on which a child differs from the current graph: whatever the differential function, arity,
// leaf size and way of feeding, every stored byte equals what whole-graph
// construction writes, before and after a Checkpoint → Open.
func TestConstructionDifferential(t *testing.T) {
	events := makeTrace(41, 3200)
	canon := canonical(events)
	if len(canon) == len(events) {
		t.Fatal("the trace has no no-op event: the test would not cover their removal")
	}
	for _, fn := range []string{"intersection", "union", "balanced", "skewed:0.3", "rightskewed:0.5", "leftskewed:0.5", "empty"} {
		for _, arity := range []int{2, 3, 4} {
			for _, leaf := range []int{64, 256} {
				for _, live := range []bool{false, true} {
					name := fmt.Sprintf("%s/k%d/L%d/live=%v", fn, arity, leaf, live)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						f, err := delta.ByName(fn)
						if err != nil {
							t.Fatal(err)
						}
						opts := Options{LeafSize: leaf, Arity: arity, Function: f}
						differential(t, events, canon, opts, live)
					})
				}
			}
		}
	}
	t.Run("partitioned", func(t *testing.T) {
		t.Parallel()
		opts := Options{LeafSize: 64, Arity: 2, Partitions: 3}
		differential(t, events, canon, opts, true)
	})
}

func differential(t *testing.T, events, canon graph.EventList, opts Options, live bool) {
	// Hold back the last two and a half leaves' worth for after the reopen.
	split := len(events) - 5*opts.LeafSize/2
	canonSplit := len(canonical(events[:split]))
	ref := newRefBuilder(t, opts)

	var dg *DeltaGraph
	var err error
	if live {
		if dg, err = New(opts); err != nil {
			t.Fatal(err)
		}
		fed := 0
		for lo := 0; lo < split; lo += 256 {
			hi := min(lo+256, split)
			if err := dg.AppendAll(events[lo:hi]); err != nil {
				t.Fatal(err)
			}
			if (lo/256)%3 == 2 {
				// A read in the middle of a leaf window starts from pending
				// nodes the current graph has moved away from; the parents
				// made after it must not notice.
				n := len(canonical(events[:hi]))
				ref.appendAll(t, canon[fed:n])
				fed = n
				ref.compare(t, dg)
			}
		}
		ref.appendAll(t, canon[fed:canonSplit])
	} else {
		if dg, err = Build(events[:split], opts); err != nil {
			t.Fatal(err)
		}
		ref.appendAll(t, canon[:canonSplit])
	}
	ref.compare(t, dg)
	checkAgainstReference(t, dg, events[:split], allAttrs, probeTimes(events[:split], 9))

	// Checkpoint → Open: the restored pending nodes come back as graphs
	// committed to the pool along the walk, and must be the right ones for
	// the leaves cut afterwards to find the right parents.
	if err := dg.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Options{Store: dg.Store()})
	if err != nil {
		t.Fatal(err)
	}
	before := re.Stats().Leaves
	if err := appendBatches(re, events[split:]); err != nil {
		t.Fatal(err)
	}
	if got := re.Stats().Leaves - before; got < 2 {
		t.Fatalf("only %d leaves cut after the reopen", got)
	}
	ref.appendAll(t, canon[canonSplit:])
	ref.compare(t, re)
	checkAgainstReference(t, re, events, allAttrs, probeTimes(events, 9))
}

// TestAppendNeverRewritesThePast is the property ROADMAP direction 1 asks
// for: whatever is appended, every past answer stays what forward replay of
// the acknowledged events says — at every leaf time and between leaves,
// checked again after every batch, because the bug this guards against is an
// append changing answers that were right before it.
func TestAppendNeverRewritesThePast(t *testing.T) {
	for seed, opts := range []Options{
		{LeafSize: 32, Arity: 2},
		{LeafSize: 48, Arity: 3, Function: delta.Balanced()},
		{LeafSize: 32, Arity: 2, Function: delta.Union{}},
		{LeafSize: 64, Arity: 4, Function: delta.Empty{}},
	} {
		dg, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprintf("%s/k%d", dg.opts.Function.Name(), opts.Arity), func(t *testing.T) {
			events := datagen.MessyTrace(int64(100+seed), 1400)
			rng := rand.New(rand.NewSource(int64(seed)))
			for lo := 0; lo < len(events); lo += 100 {
				hi := min(lo+100, len(events))
				if err := dg.AppendAll(events[lo:hi]); err != nil {
					t.Fatal(err)
				}
				naive, err := baseline.BuildNaiveLog(events[:hi], kvstore.NewMemStore())
				if err != nil {
					t.Fatal(err)
				}
				probes := dg.LeafTimes()
				for i := 0; i < 3; i++ {
					probes = append(probes, graph.Time(rng.Int63n(int64(events[hi-1].At)+1)))
				}
				probes = append(probes, events[hi-1].At)
				for _, q := range probes {
					want, err := naive.Snapshot(q, allAttrs)
					if err != nil {
						t.Fatal(err)
					}
					got, err := dg.GetSnapshot(q, allAttrs)
					if err != nil {
						t.Fatal(err)
					}
					if !got.Equal(want) {
						t.Fatalf("after %d events, snapshot at %d: %d nodes %d edges, naive replay has %d and %d",
							hi, q, len(got.Nodes), len(got.Edges), len(want.Nodes), len(want.Edges))
					}
				}
			}
			if st := dg.Stats(); st.Leaves < 8 {
				t.Fatalf("only %d leaves: the trace mostly cancelled out", st.Leaves)
			}
		})
	}
}

// TestDuplicateAddKeepsHistory is ROADMAP direction 1's repro, verbatim.
func TestDuplicateAddKeepsHistory(t *testing.T) {
	dg, err := New(Options{LeafSize: 2, Arity: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range []graph.Event{
		{Type: graph.AddNode, At: 1, Node: 1},
		{Type: graph.AddNode, At: 2, Node: 2},
		{Type: graph.AddNode, At: 3, Node: 3},
		{Type: graph.AddNode, At: 4, Node: 1}, // node 1 is live
	} {
		if err := dg.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if dg.LastTime() != 4 {
		t.Errorf("the duplicate was acknowledged but the clock reads %d", dg.LastTime())
	}
	for q, want := range map[graph.Time]int{1: 1, 2: 2, 3: 3, 4: 3} {
		s, err := dg.GetSnapshot(q, graph.AttrOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Nodes) != want {
			t.Errorf("snapshot@%d has %d nodes, want %d", q, len(s.Nodes), want)
		}
	}
}

// TestWalkMatchesMaps holds every parent the pool walk builds, and every
// delta it writes, to the differential functions on maps (combine_test.go)
// and delta.Compute on whole graphs (refBuilder): on four traces, for every
// function ByName knows, at arities 2 to 4, with an aux index registered — so that events
// are admitted one at a time around its CreateAuxEvents — and with 64 views
// held from the middle of the trace on, so that the children made after
// them sit on bits past 63, in spilled bitmaps. A parent is seen whole while
// it is pending, and through the deltas to its children once it is not.
func TestWalkMatchesMaps(t *testing.T) {
	for _, tr := range []struct {
		name   string
		events graph.EventList
		leaf   int
		parts  int
	}{
		{"makeTrace", makeTrace(43, 2400), 80, 1},
		// Deletes of nodes, edge attributes, re-adds and events that change
		// nothing.
		{"MessyTrace", datagen.MessyTrace(43, 2400), 80, 1},
		// Values on absent ids, deletes that take values with them, and edge
		// ids held between two pairs of nodes at once; partitioned, so that
		// an edge attribute's record goes where its From says.
		{"lenientTrace", lenientTrace(43, 2400), 80, 3},
		{"seed-1 trace", benchTrace(1, 1)[:9000], 600, 1},
	} {
		for _, fn := range []string{"intersection", "union", "empty", "balanced", "skewed:0.3", "mixed:0.7:0.2", "rightskewed:0.5", "leftskewed:0.5"} {
			for _, arity := range []int{2, 3, 4} {
				t.Run(fmt.Sprintf("%s/%s/k%d", tr.name, fn, arity), func(t *testing.T) {
					t.Parallel()
					f, err := delta.ByName(fn)
					if err != nil {
						t.Fatal(err)
					}
					opts := Options{LeafSize: tr.leaf, Arity: arity, Function: f, Partitions: tr.parts, AuxIndexes: []AuxIndex{degreeAux{}}}
					dg, err := New(opts)
					if err != nil {
						t.Fatal(err)
					}
					ref := newRefBuilder(t, opts)
					half := len(tr.events) / 2
					if err := appendBatches(dg, tr.events[:half]); err != nil {
						t.Fatal(err)
					}
					first, last := tr.events[:half].Span()
					var ts []graph.Time
					for i := range 64 {
						ts = append(ts, first+graph.Time(i)*(last-first)/64)
					}
					views, err := dg.RetrieveMany(ts, allAttrs)
					if err != nil {
						t.Fatal(err)
					}
					spilled := 0
					for lo := half; lo < len(tr.events); lo += 500 {
						if err := dg.AppendAll(tr.events[lo:min(lo+500, len(tr.events))]); err != nil {
							t.Fatal(err)
						}
						spilled = max(spilled, dg.Pool().Stats().Spilled)
					}
					ref.appendAll(t, canonical(tr.events))
					ref.compare(t, dg)
					if spilled == 0 {
						t.Fatal("no bitmap spilled: the children never sat past bit 63")
					}
					for _, id := range views {
						if err := dg.Pool().Release(id); err != nil {
							t.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// TestBatchAdmission: a batch is admitted under one hold of the pool's lock,
// let go of around a leaf cut, and means what the events one at a time
// mean. The first batch holds events that change nothing — a duplicate add,
// deletes of absent elements, a same-value set — and crosses a leaf cut;
// the second has an out-of-order event in the middle, and exactly the
// prefix before it lands. Every time reads what naive replay of what landed
// says. (No element is deleted with a value on it: such a delete played
// backward brings the element back bare.)
func TestBatchAdmission(t *testing.T) {
	dg, err := New(Options{LeafSize: 4, Arity: 2})
	if err != nil {
		t.Fatal(err)
	}
	first := graph.EventList{
		{Type: graph.AddNode, At: 1, Node: 1}, {Type: graph.AddNode, At: 2, Node: 2},
		{Type: graph.AddEdge, At: 3, Edge: 1, Node: 1, Node2: 2},
		{Type: graph.SetNodeAttr, At: 4, Node: 1, Attr: "a", New: "x", HasNew: true},
		{Type: graph.AddNode, At: 5, Node: 1},                                        // live: a duplicate
		{Type: graph.DelNode, At: 5, Node: 9},                                        // absent
		{Type: graph.SetNodeAttr, At: 6, Node: 1, Attr: "a", New: "x", HasNew: true}, // the value it has
		{Type: graph.DelEdge, At: 6, Edge: 7},                                        // absent
		{Type: graph.SetEdgeAttr, At: 7, Edge: 1, Node: 1, Attr: "w", New: "1", HasNew: true},
		{Type: graph.AddNode, At: 8, Node: 3},
		{Type: graph.SetEdgeAttr, At: 8, Edge: 1, Node: 1, Attr: "w"},
		{Type: graph.DelEdge, At: 9, Edge: 1}, // the index fills in its endpoints
		{Type: graph.AddEdge, At: 10, Edge: 2, Node: 2, Node2: 3},
		{Type: graph.DelNode, At: 10, Node: 3},
		{Type: graph.AddNode, At: 11, Node: 1}, // live: a duplicate
		{Type: graph.AddNode, At: 11, Node: 3},
	}
	if n, err := dg.AppendAllCounted(first); n != len(first) || err != nil {
		t.Fatalf("the first batch landed %d of %d events (%v)", n, len(first), err)
	}
	if leaves := dg.Stats().Leaves; leaves < 2 {
		t.Fatalf("the first batch cut %d leaves, want it to cross a cut", leaves)
	}
	second := graph.EventList{
		{Type: graph.AddNode, At: 12, Node: 4}, {Type: graph.SetNodeAttr, At: 12, Node: 4, Attr: "a", New: "y", HasNew: true},
		{Type: graph.AddNode, At: 5, Node: 5}, // older than the last event
		{Type: graph.AddNode, At: 13, Node: 6},
	}
	if n, err := dg.AppendAllCounted(second); n != 2 || err == nil {
		t.Fatalf("the second batch landed %d events (%v), want the 2 before the out-of-order one and an error", n, err)
	}
	landed := append(slices.Clone(first), second[:2]...)
	naive, err := baseline.BuildNaiveLog(landed, kvstore.NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	if dg.LastTime() != 12 {
		t.Fatalf("the clock reads %d, want 12", dg.LastTime())
	}
	for at := graph.Time(0); at <= 13; at++ {
		want, err := naive.Snapshot(at, allAttrs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dg.GetSnapshot(at, allAttrs)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("snapshot at %d: nodes %v attrs %v edges %v attrs %v; replay has %v %v %v %v",
				at, got.Nodes, got.NodeAttrs, got.Edges, got.EdgeAttrs, want.Nodes, want.NodeAttrs, want.Edges, want.EdgeAttrs)
		}
	}
}
