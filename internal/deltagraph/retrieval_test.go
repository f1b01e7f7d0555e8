package deltagraph

import (
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"historygraph/internal/datagen"
	"historygraph/internal/delta"
	"historygraph/internal/graph"
	"historygraph/internal/kvstore"
)

// countingStore counts the reads of every key, misses included: a retrieval
// that asks twice for a column that is not there has still asked twice.
type countingStore struct {
	kvstore.Store
	mu    sync.Mutex
	gets  map[string]int
	bytes int64
}

func (c *countingStore) Get(key []byte) ([]byte, error) {
	v, err := c.Store.Get(key)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gets[string(key)]++
	c.bytes += int64(len(v))
	return v, err
}

// reset forgets what was read so far.
func (c *countingStore) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gets, c.bytes = make(map[string]int), 0
}

// read reports the reads since reset: how many, how many of them of a key
// already read, and the bytes they returned.
func (c *countingStore) read() (gets, repeats int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.gets {
		gets += n
		repeats += n - 1
	}
	return gets, repeats, c.bytes
}

// retrievalTrace is the benchmark's kind of trace (a growing co-authorship
// network, then churn) at a size a test can build: 20 000 events, 19 leaves
// of 1024.
func retrievalTrace() graph.EventList {
	base := datagen.Coauthorship(datagen.CoauthorshipConfig{Authors: 1000, Edges: 4000, Years: 20, Seed: 23})
	return datagen.Churn(base, datagen.ChurnConfig{Adds: 2500, Dels: 2500, Seed: 24})
}

const retrievalLeafSize = 1024

func retrievalIndex(t testing.TB) (*DeltaGraph, *countingStore, graph.EventList) {
	t.Helper()
	events := retrievalTrace()
	cs := &countingStore{Store: kvstore.NewMemStore(), gets: make(map[string]int)}
	dg, err := Build(events, Options{LeafSize: retrievalLeafSize, Store: cs})
	if err != nil {
		t.Fatal(err)
	}
	cs.reset()
	return dg, cs, events
}

// TestReadOnce: one call reads no stored payload twice, and a multipoint call
// reads no more bytes than the singlepoint calls it replaces.
func TestReadOnce(t *testing.T) {
	for _, policy := range []string{"", "children"} {
		dg, cs, events := retrievalIndex(t)
		if policy != "" {
			if err := dg.MaterializeLevel(policy); err != nil {
				t.Fatal(err)
			}
		}
		first, last := events.Span()
		leafWidth := float64(last-first) / float64(len(events)/retrievalLeafSize+1)
		for _, spacing := range []float64{0.05, 0.25, 1, 2} {
			ts := make([]graph.Time, 8)
			for i := range ts {
				ts[i] = first + (last-first)/3 + graph.Time(float64(i)*spacing*leafWidth)
			}
			name := fmt.Sprintf("materialized=%q spacing=%.2f", policy, spacing)
			var singleGets int
			var singleBytes int64
			for _, q := range ts {
				cs.reset()
				if _, err := dg.GetSnapshot(q, graph.AttrOptions{}); err != nil {
					t.Fatal(err)
				}
				gets, repeats, bytes := cs.read()
				if repeats != 0 {
					t.Errorf("%s: GetSnapshot(%d) read %d of %d keys again", name, q, repeats, gets)
				}
				singleGets, singleBytes = singleGets+gets, singleBytes+bytes
			}
			cs.reset()
			if _, err := dg.GetSnapshots(ts, graph.AttrOptions{}); err != nil {
				t.Fatal(err)
			}
			gets, repeats, bytes := cs.read()
			t.Logf("%s: GetSnapshots %d gets (%d repeated) %d bytes; 8 GetSnapshot %d gets %d bytes; ratio %.2f",
				name, gets, repeats, bytes, singleGets, singleBytes, float64(bytes)/float64(singleBytes))
			if repeats != 0 {
				t.Errorf("%s: GetSnapshots read %d of %d keys again", name, repeats, gets)
			}
			if bytes > singleBytes {
				t.Errorf("%s: GetSnapshots read %d bytes, the eight GetSnapshot calls %d", name, bytes, singleBytes)
			}

			cs.reset()
			tex := TimeExpression{Times: ts[:3], Expr: And{Var(0), Not{Var(2)}}}
			if _, err := expression(dg, tex, allAttrs); err != nil {
				t.Fatal(err)
			}
			if gets, repeats, _ := cs.read(); repeats != 0 {
				t.Errorf("%s: RetrieveExpression read %d of %d keys again", name, repeats, gets)
			}
		}
	}

	dg, cs, _ := retrievalIndex(t)
	if err := dg.MaterializeLevel("leaves"); err != nil {
		t.Fatal(err)
	}
	if gets, repeats, _ := cs.read(); repeats != 0 {
		t.Errorf(`MaterializeLevel("leaves") read %d of %d keys again`, repeats, gets)
	}
}

// goldenTimes are 64 times spread evenly over the trace, first event to last.
func goldenTimes(events graph.EventList) []graph.Time {
	first, last := events.Span()
	ts := make([]graph.Time, 64)
	for i := range ts {
		ts[i] = first + (last-first)*graph.Time(i)/63
	}
	return ts
}

var goldenAttrs = []string{"", "+node:all+edge:all", "+node:all"}

// goldenRow measures what TestGoldenPlanCosts pins for one time: under each of
// goldenAttrs the planner's cost, then the store reads and bytes of the
// GetSnapshot call.
func goldenRow(t testing.TB, dg *DeltaGraph, cs *countingStore, q graph.Time) (row [9]int64) {
	for i, spec := range goldenAttrs {
		opts := graph.MustParseAttrOptions(spec)
		cost, err := dg.PlanCost(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		cs.reset()
		if _, err := dg.GetSnapshot(q, opts); err != nil {
			t.Fatal(err)
		}
		gets, _, bytes := cs.read()
		row[3*i], row[3*i+1], row[3*i+2] = cost, int64(gets), bytes
	}
	return row
}

// checkRetrievals reads out of in an index (trace, leaf size, arity,
// differential function), a way to build it (by Build or by appends, a
// materialization policy applied part of the way through, so that later cuts
// have no pinned ancestor, and there a checkpoint the index is reopened from or
// not) and a list of times (before the first event, on a
// leaf, in the tail, at the head, past it, anywhere, or the one before again),
// and compares every kind of retrieval at those times, under three attribute
// options, with a replay of the trace. TestMultipointMatchesSinglepoint and
// FuzzRetrieval both end here.
func checkRetrievals(t *testing.T, in []byte) {
	next := func() int {
		if len(in) == 0 {
			return 0
		}
		b := in[0]
		in = in[1:]
		return int(b)
	}
	events := makeTrace(int64(next()), 300+8*next())
	opts := Options{
		LeafSize:   16 + next()%200,
		Arity:      2 + next()%3,
		Function:   []delta.Differential{delta.Intersection{}, delta.Union{}, delta.Empty{}}[next()%3],
		AuxIndexes: []AuxIndex{degreeAux{}},
	}
	policy := []string{"", "root", "children", "grandchildren", "leaves"}[next()%5]
	cut := len(events) * (1 + next()%4) / 4
	var dg *DeltaGraph
	var err error
	if next()%2 == 0 {
		dg, err = Build(events[:cut], opts)
	} else if dg, err = New(opts); err == nil {
		err = dg.AppendAll(events[:cut])
	}
	if err != nil {
		t.Fatal(err)
	}
	if policy != "" && len(dg.LeafTimes()) > 0 {
		if err := dg.MaterializeLevel(policy); err != nil {
			t.Fatal(err)
		}
	}
	if next()%2 == 1 { // checkpoint, and go on from the index reopened on the same store
		if err := dg.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if dg, err = Open(Options{Store: dg.Store(), AuxIndexes: opts.AuxIndexes}); err != nil {
			t.Fatal(err)
		}
	}
	if err := dg.AppendAll(events[cut:]); err != nil {
		t.Fatal(err)
	}

	first, last := events.Span()
	leaves := dg.LeafTimes()
	ts := make([]graph.Time, 1+next()%8)
	for i := range ts {
		switch kind, arg := next()%7, graph.Time(next()); {
		case kind == 0:
			ts[i] = first - 1 - arg
		case kind == 1 && len(leaves) > 0:
			ts[i] = leaves[int(arg)%len(leaves)]
		case kind == 2 && len(leaves) > 0:
			ts[i] = leaves[len(leaves)-1] + (last-leaves[len(leaves)-1])*arg/255
		case kind == 3:
			ts[i] = last
		case kind == 4:
			ts[i] = last + 1 + arg
		case kind == 5 && i > 0:
			ts[i] = ts[i-1]
		default:
			ts[i] = first + (last-first)*arg/255
		}
	}

	for _, spec := range goldenAttrs {
		attrs := graph.MustParseAttrOptions(spec)
		multi, err := dg.GetSnapshots(ts, attrs)
		if err != nil {
			t.Fatalf("GetSnapshots(%v, %q): %v", ts, spec, err)
		}
		for i, q := range ts {
			want := attrs.FilterSnapshot(graph.SnapshotAt(events, q))
			if !multi[i].Equal(want) {
				t.Errorf("GetSnapshots(%v, %q)[%d] differs from replay", ts, spec, i)
			}
			single, err := dg.GetSnapshot(q, attrs)
			if err != nil {
				t.Fatalf("GetSnapshot(%d, %q): %v", q, spec, err)
			}
			if !single.Equal(want) {
				t.Errorf("GetSnapshot(%d, %q) differs from replay", q, spec)
			}
		}
		// The interval the times span, and the one from the beginning of time
		// to the last of them (which the interval loop this test was written
		// against answered from the recent eventlist alone).
		for _, from := range []graph.Time{slices.Min(ts), math.MinInt64} {
			to := slices.Max(ts)
			if from == to {
				continue
			}
			got, err := dg.GetInterval(from, to, attrs)
			if err != nil {
				t.Fatalf("GetInterval(%d, %d, %q): %v", from, to, spec, err)
			}
			want, transients := replayInterval(events, from, to)
			if !got.Graph.Snapshot().Equal(attrs.FilterSnapshot(want)) || len(got.Transients) != transients {
				t.Errorf("GetInterval(%d, %d, %q) differs from replay", from, to, spec)
			}
			if err := dg.pool.Release(got.Graph.ID()); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, q := range ts {
		got, err := dg.GetAuxSnapshot("degree", q)
		if err != nil {
			t.Fatalf("GetAuxSnapshot(%d): %v", q, err)
		}
		if !auxEqual(got, refAux(events, q)) {
			t.Errorf("GetAuxSnapshot(%d) differs from replay", q)
		}
	}
}

// replayInterval is GetInterval by replay: the graph of everything added or
// set during [from, to), and how many transient events fell there. An
// attribute set to the value it already has is no event of the history.
func replayInterval(events graph.EventList, from, to graph.Time) (*graph.Snapshot, int) {
	added, cur := graph.NewSnapshot(), graph.NewSnapshot()
	transients := 0
	for _, ev := range events {
		held, had := cur.NodeAttrs[ev.Node][ev.Attr]
		cur.Apply(ev)
		if ev.At < from || ev.At >= to || (ev.Type == graph.SetNodeAttr && had && held == ev.New) {
			continue
		}
		switch ev.Type {
		case graph.TransientEdge, graph.TransientNode:
			transients++
		case graph.AddNode, graph.AddEdge, graph.SetNodeAttr, graph.SetEdgeAttr:
			added.Apply(ev)
		}
	}
	return added, transients
}

// goldenPlanCosts is goldenRow at goldenTimes on the retrievalIndex, measured
// at the commit before every retrieval became steps over one leaf-level walk
// (by a generator that was not committed): the planner's choices and
// estimates, and what a singlepoint query reads, are what they were. The rows
// up to t=7935, the times inside the first eventlist's interval, were measured
// again when that interval stopped being costed from the beginning of time
// (TestFirstIntervalCost): a query there used to cost the whole list whatever
// its time, and now walks forward from the empty leaf when that is cheaper.
// Every cost and byte count was measured again when stored format 4 gave
// each payload its stream lengths (a few bytes a payload); the reads did not
// move. The rows from t=7539 on were measured again when the provisional
// spine went: a read reaches a pending node through its patch, from the
// current graph or the null graph, where it took the spine's deltas down from
// the root's whole graph (which the store did not count). The rows from
// t=6745 on, the times whose routes may start at a pending node, were
// measured again when the pending nodes became graphs in the pool: a route
// starts from one at the cost of copying it, a record an element (a node or
// an edge, for a read that wants no attribute), where a patch cost its images
// (24 B each for a read with attributes) and, on the current graph, a copy of
// that.
var goldenPlanCosts = [64][9]int64{
	{0, 1, 1632, 0, 3, 7147, 0, 2, 7147},                  // t=0
	{82, 1, 1632, 352, 3, 7147, 352, 2, 7147},             // t=396
	{165, 1, 1632, 705, 3, 7147, 705, 2, 7147},            // t=793
	{248, 1, 1632, 1057, 3, 7147, 1057, 2, 7147},          // t=1190
	{331, 1, 1632, 1410, 3, 7147, 1410, 2, 7147},          // t=1587
	{414, 1, 1632, 1761, 3, 7147, 1761, 2, 7147},          // t=1983
	{497, 1, 1632, 2114, 3, 7147, 2114, 2, 7147},          // t=2380
	{580, 1, 1632, 2466, 3, 7147, 2466, 2, 7147},          // t=2777
	{663, 1, 1632, 2819, 3, 7147, 2819, 2, 7147},          // t=3174
	{745, 1, 1632, 3171, 3, 7147, 3171, 2, 7147},          // t=3571
	{828, 1, 1632, 3523, 3, 7147, 3523, 2, 7147},          // t=3967
	{911, 1, 1632, 3875, 3, 7147, 3875, 2, 7147},          // t=4364
	{994, 1, 1632, 4228, 3, 7147, 4228, 2, 7147},          // t=4761
	{1077, 1, 1632, 4580, 3, 7147, 4580, 2, 7147},         // t=5158
	{1160, 1, 1632, 4933, 3, 7147, 4933, 2, 7147},         // t=5555
	{1243, 1, 1632, 5285, 3, 7147, 5285, 2, 7147},         // t=5951
	{1325, 1, 1632, 5637, 3, 7147, 5637, 2, 7147},         // t=6348
	{1408, 1, 1632, 5580, 15, 7311, 5580, 10, 7311},       // t=6745
	{1491, 1, 1632, 5228, 15, 7311, 5228, 10, 7311},       // t=7142
	{1574, 1, 1632, 4875, 15, 7311, 4875, 10, 7311},       // t=7539
	{1657, 1, 1632, 4524, 15, 7311, 4524, 10, 7311},       // t=7935
	{1818, 5, 1855, 5102, 15, 7413, 5102, 10, 7413},       // t=8332
	{2151, 5, 1855, 6492, 15, 7413, 6492, 10, 7413},       // t=8729
	{2485, 5, 1855, 7883, 15, 7413, 7883, 10, 7413},       // t=9126
	{2819, 5, 1855, 9273, 15, 7413, 9273, 10, 7413},       // t=9523
	{2849, 5, 2822, 10509, 15, 12550, 10509, 10, 12550},   // t=9919
	{2748, 5, 3340, 9956, 15, 12646, 9956, 10, 12646},     // t=10316
	{3266, 5, 3340, 11647, 15, 12646, 11647, 10, 12646},   // t=10713
	{3785, 5, 3340, 13337, 15, 12646, 13337, 10, 12646},   // t=11110
	{4303, 5, 3340, 15028, 15, 12646, 15028, 10, 12646},   // t=11507
	{4031, 5, 4706, 14227, 15, 17185, 14227, 10, 17185},   // t=11903
	{4575, 5, 4409, 16349, 15, 17359, 16349, 10, 17359},   // t=12300
	{5255, 5, 4409, 18957, 15, 17359, 18957, 10, 17359},   // t=12697
	{5165, 5, 5588, 19487, 15, 22758, 19487, 10, 22758},   // t=13094
	{5958, 5, 5733, 22305, 15, 22720, 22305, 10, 22720},   // t=13490
	{6784, 5, 5733, 24104, 15, 25651, 24104, 10, 25651},   // t=13887
	{6818, 5, 6987, 23761, 15, 25686, 23761, 10, 25686},   // t=14284
	{7763, 5, 6987, 27181, 15, 25686, 27181, 10, 25686},   // t=14681
	{7944, 5, 8312, 28547, 15, 31235, 28547, 10, 31235},   // t=15078
	{9031, 5, 8312, 32506, 15, 31235, 32506, 10, 31235},   // t=15474
	{9326, 5, 9526, 33628, 15, 35952, 33628, 10, 35952},   // t=15871
	{10500, 5, 9526, 38073, 15, 35952, 38073, 10, 35952},  // t=16268
	{10954, 5, 10834, 40449, 15, 41409, 40449, 10, 41409}, // t=16665
	{11728, 5, 12108, 39213, 15, 42011, 39213, 10, 42011}, // t=17062
	{12802, 5, 12265, 42868, 15, 42057, 42868, 10, 42057}, // t=17458
	{13403, 5, 13426, 45794, 15, 47595, 45794, 10, 47595}, // t=17855
	{14278, 5, 14649, 49233, 15, 52383, 49233, 10, 52383}, // t=18252
	{15695, 5, 14792, 54350, 15, 52397, 54350, 10, 52397}, // t=18649
	{16569, 5, 16042, 58377, 15, 57916, 58377, 10, 57916}, // t=19046
	{17581, 5, 17575, 60139, 15, 61017, 60139, 10, 61017}, // t=19442
	{18731, 5, 21442, 63855, 15, 66615, 63855, 10, 66615}, // t=19839
	{20692, 5, 22216, 68129, 15, 66615, 68129, 10, 66615}, // t=20236
	{20084, 5, 25093, 66785, 15, 69074, 66785, 10, 69074}, // t=20633
	{22744, 5, 25206, 69445, 15, 69187, 69445, 10, 69187}, // t=21030
	{19803, 5, 25206, 66504, 15, 69187, 66504, 10, 69187}, // t=21426
	{21434, 5, 25223, 65250, 6, 9726, 65250, 4, 9726},     // t=21823
	{22615, 2, 9726, 62295, 6, 9726, 62295, 4, 9726},      // t=22220
	{20826, 2, 9780, 60506, 6, 9780, 60506, 4, 9780},      // t=22617
	{23801, 2, 9780, 63481, 6, 9780, 63481, 4, 9780},      // t=23014
	{21599, 2, 9991, 61279, 6, 9991, 61279, 4, 9991},      // t=23410
	{22281, 2, 9989, 61961, 6, 9989, 61961, 4, 9989},      // t=23807
	{22961, 1, 7608, 62641, 3, 7608, 62641, 2, 7608},      // t=24204
	{9528, 0, 0, 9528, 0, 0, 9528, 0, 0},                  // t=24601
	{0, 0, 0, 0, 0, 0, 0, 0, 0},                           // t=24998
}

func TestGoldenPlanCosts(t *testing.T) {
	dg, cs, events := retrievalIndex(t)
	for i, q := range goldenTimes(events) {
		if got := goldenRow(t, dg, cs, q); got != goldenPlanCosts[i] {
			t.Errorf("t=%d: cost, gets, bytes under %q are\n%v, were\n%v", q, goldenAttrs, got, goldenPlanCosts[i])
		}
	}
}

// TestFirstIntervalCost: eventlist 0 hangs off the anchor leaf, which stands
// at the beginning of time; the share of the list a query needs is reckoned
// from the list's first event all the same.
func TestFirstIntervalCost(t *testing.T) {
	var events graph.EventList
	for i := 1; i <= 400; i++ {
		events = append(events, graph.Event{Type: graph.AddNode, At: graph.Time(10 * i), Node: graph.NodeID(i)})
	}
	store := kvstore.NewMemStore()
	dg, err := Build(events, Options{LeafSize: 100, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if err := dg.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	sel := selectorFor(graph.AttrOptions{}, nil)
	for _, dg := range []*DeltaGraph{dg, reopened} {
		if err := dg.rlockBuilt(); err != nil {
			t.Fatal(err)
		}
		// Forward from the left leaf costs more the further a time is into the
		// interval: nothing before the first event, the whole list at its end.
		var prev int64
		for q := graph.Time(0); q <= 1000; q += 5 {
			walk, err := dg.leafSteps(math.MinInt64, q, sel)
			if err != nil {
				t.Fatal(err)
			}
			if walk.cost() < prev || (q < 10 && walk.cost() != 0) || (q == 500 && walk.cost() == 0) {
				t.Errorf("from the anchor leaf to %d costs %d, to %d cost %d", q, walk.cost(), q-5, prev)
			}
			prev = walk.cost()
		}
		if whole := sel.weight(dg.eventEdge(0)); prev != whole {
			t.Errorf("from the anchor leaf to the next costs %d, the list weighs %d", prev, whole)
		}
		// A span of time costs the same in the first interval as in the second.
		first, _ := dg.leafSteps(100, 900, sel)
		second, _ := dg.leafSteps(1100, 1900, sel)
		if f, s := first.cost(), second.cost(); s == 0 || f < s*95/100 || f > s*105/100 {
			t.Errorf("(100, 900] costs %d, (1100, 1900] costs %d", f, s)
		}
		dg.mu.RUnlock()
		// And a query's cost is not one number all over the interval.
		early, _ := dg.PlanCost(50, graph.AttrOptions{})
		late, _ := dg.PlanCost(500, graph.AttrOptions{})
		if early >= late {
			t.Errorf("PlanCost(50) = %d, PlanCost(500) = %d", early, late)
		}
	}
}

// BenchmarkColdRead is retrieve-embedded's read below the serving layer: a
// GetSnapshot at each of 64 times spread evenly over the repository
// benchmark's seed-1 trace, bulk-built into a FileStore as that workload
// builds it, with nothing cached above the store. ms/read is the mean.
// served is the read a server's cache miss makes, structure only: a Retrieve
// into the pool, timed alone; releasing the graph and the clean pass that
// reclaims it run off the clock.
func BenchmarkColdRead(b *testing.B) {
	events := benchTrace(1, 1)
	fs := openFileStore(b, filepath.Join(b.TempDir(), "index"))
	defer fs.Close()
	dg, err := Build(events, Options{Store: fs})
	if err != nil {
		b.Fatal(err)
	}
	first, last := events.Span()
	ts := make([]graph.Time, 64)
	for i := range ts {
		ts[i] = first + (last-first)*graph.Time(2*i+1)/graph.Time(2*len(ts))
	}
	for _, bc := range []struct {
		name string
		opts graph.AttrOptions
	}{{"struct", graph.AttrOptions{}}, {"attrs", allAttrs}} {
		b.Run(bc.name, func(b *testing.B) {
			if _, err := dg.GetSnapshot(ts[0], bc.opts); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, t := range ts {
					if _, err := dg.GetSnapshot(t, bc.opts); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed())/1e6/float64(b.N*len(ts)), "ms/read")
		})
	}
	b.Run("served", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, t := range ts {
				id, err := dg.Retrieve(t, graph.AttrOptions{})
				b.StopTimer()
				if err == nil {
					err = dg.Pool().Release(id)
				}
				if err != nil {
					b.Fatal(err)
				}
				dg.Pool().CleanNow()
				b.StartTimer()
			}
		}
		b.ReportMetric(float64(b.Elapsed())/1e6/float64(b.N*len(ts)), "ms/read")
	})
}
