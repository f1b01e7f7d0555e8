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
			if _, err := dg.GetExpression(tex, allAttrs); err != nil {
				t.Fatal(err)
			}
			if gets, repeats, _ := cs.read(); repeats != 0 {
				t.Errorf("%s: GetExpression read %d of %d keys again", name, repeats, gets)
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
// differential function), a way to build it (sealed by Build or appended, a
// materialization policy applied part of the way through, so that what follows
// leaves the spine stale) and a list of times (before the first event, on a
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
			if !got.Graph.Equal(attrs.FilterSnapshot(want)) || len(got.Transients) != transients {
				t.Errorf("GetInterval(%d, %d, %q) differs from replay", from, to, spec)
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
var goldenPlanCosts = [64][9]int64{
	{0, 1, 1620, 0, 3, 7124, 0, 2, 7124},                  // t=0
	{82, 1, 1620, 351, 3, 7124, 351, 2, 7124},             // t=396
	{164, 1, 1620, 702, 3, 7124, 702, 2, 7124},            // t=793
	{246, 1, 1620, 1054, 3, 7124, 1054, 2, 7124},          // t=1190
	{329, 1, 1620, 1405, 3, 7124, 1405, 2, 7124},          // t=1587
	{411, 1, 1620, 1756, 3, 7124, 1756, 2, 7124},          // t=1983
	{493, 1, 1620, 2107, 3, 7124, 2107, 2, 7124},          // t=2380
	{576, 1, 1620, 2458, 3, 7124, 2458, 2, 7124},          // t=2777
	{658, 1, 1620, 2810, 3, 7124, 2810, 2, 7124},          // t=3174
	{740, 1, 1620, 3161, 3, 7124, 3161, 2, 7124},          // t=3571
	{822, 1, 1620, 3512, 3, 7124, 3512, 2, 7124},          // t=3967
	{905, 1, 1620, 3863, 3, 7124, 3863, 2, 7124},          // t=4364
	{987, 1, 1620, 4214, 3, 7124, 4214, 2, 7124},          // t=4761
	{1069, 1, 1620, 4566, 3, 7124, 4566, 2, 7124},         // t=5158
	{1152, 1, 1620, 4917, 3, 7124, 4917, 2, 7124},         // t=5555
	{1234, 1, 1620, 5268, 3, 7124, 5268, 2, 7124},         // t=5951
	{1316, 1, 1620, 5619, 3, 7124, 5619, 2, 7124},         // t=6348
	{1398, 1, 1620, 5970, 3, 7124, 5970, 2, 7124},         // t=6745
	{1481, 1, 1620, 6322, 3, 7124, 6322, 2, 7124},         // t=7142
	{1446, 5, 1772, 5971, 15, 7276, 5971, 10, 7276},       // t=7539
	{1364, 5, 1772, 5620, 15, 7276, 5620, 10, 7276},       // t=7935
	{1502, 5, 1831, 6197, 15, 7378, 6197, 10, 7378},       // t=8332
	{1834, 5, 1831, 7583, 15, 7378, 7583, 10, 7378},       // t=8729
	{2165, 5, 1831, 8969, 15, 7378, 8969, 10, 7378},       // t=9126
	{2497, 5, 1831, 10355, 15, 7378, 10355, 10, 7378},     // t=9523
	{2532, 5, 2796, 11597, 15, 12509, 11597, 10, 12509},   // t=9919
	{2431, 5, 3314, 11046, 15, 12605, 11046, 10, 12605},   // t=10316
	{2947, 5, 3314, 12731, 15, 12605, 12731, 10, 12605},   // t=10713
	{3463, 5, 3314, 14416, 15, 12605, 14416, 10, 12605},   // t=11110
	{3978, 5, 3314, 16102, 15, 12605, 16102, 10, 12605},   // t=11507
	{3714, 5, 4679, 15317, 15, 17143, 15317, 10, 17143},   // t=11903
	{4255, 5, 4382, 17431, 15, 17317, 17431, 10, 17317},   // t=12300
	{4930, 5, 4382, 20032, 15, 17317, 20032, 10, 17317},   // t=12697
	{4846, 5, 5559, 20571, 15, 22710, 20571, 10, 22710},   // t=13094
	{5635, 5, 5704, 23380, 15, 22672, 23380, 10, 22672},   // t=13490
	{6456, 5, 5704, 25189, 15, 25609, 25189, 10, 25609},   // t=13887
	{6499, 5, 6960, 24847, 15, 25644, 24847, 10, 25644},   // t=14284
	{7438, 5, 6960, 28256, 15, 25644, 28256, 10, 25644},   // t=14681
	{7624, 5, 8283, 29629, 15, 31187, 29629, 10, 31187},   // t=15078
	{8705, 5, 8283, 33576, 15, 31187, 33576, 10, 31187},   // t=15474
	{9004, 5, 9496, 34708, 15, 35903, 34708, 10, 35903},   // t=15871
	{10172, 5, 9496, 39139, 15, 35903, 39139, 10, 35903},  // t=16268
	{10628, 5, 10802, 41518, 15, 41354, 41518, 10, 41354}, // t=16665
	{11409, 5, 12079, 40299, 15, 41967, 40299, 10, 41967}, // t=17062
	{12476, 5, 12236, 43943, 15, 42013, 43943, 10, 42013}, // t=17458
	{13079, 5, 13395, 46871, 15, 47545, 46871, 10, 47545}, // t=17855
	{13956, 5, 14617, 50313, 15, 52332, 50313, 10, 52332}, // t=18252
	{15365, 5, 14760, 55415, 15, 52346, 55415, 10, 52346}, // t=18649
	{16239, 5, 16008, 59441, 15, 57859, 59441, 10, 57859}, // t=19046
	{17255, 5, 17543, 61212, 15, 60966, 61212, 10, 60966}, // t=19442
	{18406, 5, 21408, 64928, 15, 66558, 64928, 10, 66558}, // t=19839
	{20364, 5, 22182, 69189, 15, 66558, 69189, 10, 66558}, // t=20236
	{19758, 5, 25059, 67858, 15, 69028, 67858, 10, 69028}, // t=20633
	{22414, 5, 25172, 70514, 15, 69141, 70514, 10, 69141}, // t=21030
	{19478, 5, 25172, 67578, 15, 69141, 67578, 10, 69141}, // t=21426
	{21107, 5, 25189, 67836, 6, 9709, 67836, 4, 9709},     // t=21823
	{21381, 2, 9709, 64887, 6, 9709, 64887, 4, 9709},      // t=22220
	{19594, 2, 9763, 63100, 6, 9763, 63100, 4, 9763},      // t=22617
	{22565, 2, 9763, 66071, 6, 9763, 66071, 4, 9763},      // t=23014
	{20366, 2, 9974, 63872, 6, 9974, 63872, 4, 9974},      // t=23410
	{21047, 2, 9972, 64553, 6, 9972, 64553, 4, 9972},      // t=23807
	{22328, 1, 7596, 65834, 3, 7596, 65834, 2, 7596},      // t=24204
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
		if err := dg.rlockSealed(); err != nil {
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
			if _, err := dg.GetSnapshot(ts[0], bc.opts); err != nil { // builds the spine
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
}
