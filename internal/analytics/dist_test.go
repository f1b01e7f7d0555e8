package analytics_test

// The merge-exactness property the distributed analytics plane rests on:
// partition scans over per-partition CSR slices, merged at the
// coordinator, must equal the single-part scan over the whole graph —
// which is itself anchored against whole-graph references (degrees here,
// ConnectedComponents in analytics_test.go), so the sharded path, the
// unsharded path, and the reference implementation all agree.

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"historygraph/internal/analytics"
	"historygraph/internal/csr"
	"historygraph/internal/graph"
	"historygraph/internal/graphpool"
	"historygraph/internal/pregel"
	"historygraph/internal/wire"
)

// degrees returns the degree of every node: the reference the degree scans
// are held against. It calls Neighbors inside ForEachNode, so it is for
// graphs that hold no lock, not for pool views.
func degrees(g pregel.Graph) map[graph.NodeID]int {
	out := make(map[graph.NodeID]int, g.NumNodes())
	g.ForEachNode(func(n graph.NodeID) bool {
		out[n] = len(g.Neighbors(n))
		return true
	})
	return out
}

// averageDegree returns the mean degree.
func averageDegree(g pregel.Graph) float64 {
	if g.NumNodes() == 0 {
		return 0
	}
	total := 0
	for _, d := range degrees(g) {
		total += d
	}
	return float64(total) / float64(g.NumNodes())
}

func TestDegrees(t *testing.T) {
	s := graph.NewSnapshot()
	for i := 1; i <= 4; i++ {
		s.Nodes[graph.NodeID(i)] = struct{}{}
	}
	for i := 1; i < 4; i++ {
		s.Edges[graph.EdgeID(i)] = graph.EdgeInfo{From: graph.NodeID(i), To: graph.NodeID(i + 1)}
	}
	g := analytics.FromSnapshot(s)
	d := degrees(g)
	if d[1] != 1 || d[2] != 2 || d[4] != 1 {
		t.Errorf("degrees = %v", d)
	}
	if avg := averageDegree(g); math.Abs(avg-1.5) > 1e-9 {
		t.Errorf("avg degree = %g, want 1.5", avg)
	}
	if averageDegree(analytics.FromSnapshot(graph.NewSnapshot())) != 0 {
		t.Error("empty avg degree")
	}
}

// fakeSource mirrors the csr package's test source: explicit nodes and
// edges, ghosts and multi-edges legal.
type fakeSource struct {
	at    graph.Time
	nodes []graph.NodeID
	edges []graph.EdgeInfo
}

func (f *fakeSource) At() graph.Time { return f.at }
func (f *fakeSource) NumNodes() int  { return len(f.nodes) }
func (f *fakeSource) NumEdges() int  { return len(f.edges) }
func (f *fakeSource) ForEachNode(fn func(graph.NodeID) bool) {
	for _, n := range f.nodes {
		if !fn(n) {
			return
		}
	}
}
func (f *fakeSource) ForEachEdge(fn func(graph.EdgeID, graph.EdgeInfo) bool) {
	for i, e := range f.edges {
		if !fn(graph.EdgeID(i), e) {
			return
		}
	}
}

// shardedSources splits a trace the way a cluster stores it: every edge
// lives at its From endpoint's partition (both endpoint rows local, the
// far one a ghost), every node at its own.
func shardedSources(full *fakeSource, parts int) []*fakeSource {
	out := make([]*fakeSource, parts)
	for p := range out {
		out[p] = &fakeSource{at: full.at}
	}
	for _, n := range full.nodes {
		p := graph.Partition(n, parts)
		out[p].nodes = append(out[p].nodes, n)
	}
	for _, e := range full.edges {
		p := graph.Partition(e.From, parts)
		out[p].edges = append(out[p].edges, e)
	}
	return out
}

// randomFull builds a deterministic random trace with ghost endpoints.
func randomFull(seed int64, nodes, edges int) *fakeSource {
	rng := rand.New(rand.NewSource(seed))
	full := &fakeSource{at: 11}
	for n := 0; n < nodes; n++ {
		if rng.Intn(5) > 0 {
			full.nodes = append(full.nodes, graph.NodeID(n))
		}
	}
	for i := 0; i < edges; i++ {
		full.edges = append(full.edges, graph.EdgeInfo{
			From: graph.NodeID(rng.Intn(nodes)),
			To:   graph.NodeID(rng.Intn(nodes)),
		})
	}
	return full
}

func TestShardedDegreeMatchesSinglePart(t *testing.T) {
	for _, parts := range []int{2, 3, 5} {
		for seed := int64(0); seed < 4; seed++ {
			full := randomFull(seed, 120, 400)
			g := csr.Build(full)
			want := analytics.MergeDegree(int64(full.at),
				[]*wire.DegreePart{analytics.DegreePartOf(g, full.at, 1, 0)})

			var shardedParts []*wire.DegreePart
			for p, src := range shardedSources(full, parts) {
				shardedParts = append(shardedParts,
					analytics.DegreePartOf(csr.Build(src), full.at, parts, p))
			}
			got := analytics.MergeDegree(int64(full.at), shardedParts)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("parts=%d seed=%d: sharded degree %+v, want %+v", parts, seed, got, want)
			}
		}
	}
}

func TestShardedComponentsMatchSinglePart(t *testing.T) {
	for _, parts := range []int{2, 3, 5} {
		for seed := int64(0); seed < 4; seed++ {
			full := randomFull(seed, 120, 300)
			g := csr.Build(full)
			want := analytics.MergeComponents(int64(full.at),
				[]*wire.ComponentsPart{analytics.ComponentsPartOf(g, full.at, 1, 0)})

			var shardedParts []*wire.ComponentsPart
			for p, src := range shardedSources(full, parts) {
				shardedParts = append(shardedParts,
					analytics.ComponentsPartOf(csr.Build(src), full.at, parts, p))
			}
			got := analytics.MergeComponents(int64(full.at), shardedParts)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("parts=%d seed=%d: sharded components %+v, want %+v", parts, seed, got, want)
			}
		}
	}
}

// TestSinglePartMatchesReference anchors the part-scan semantics to the
// package's whole-graph algorithms over the same CSR.
func TestSinglePartMatchesReference(t *testing.T) {
	full := randomFull(9, 100, 250)
	g := csr.Build(full)

	dd := analytics.MergeDegree(int64(full.at),
		[]*wire.DegreePart{analytics.DegreePartOf(g, full.at, 1, 0)})
	ref := degrees(g)
	if int(dd.NumNodes) != len(ref) {
		t.Fatalf("NumNodes = %d, want %d", dd.NumNodes, len(ref))
	}
	hist := map[int64]int64{}
	var maxDeg, total int64
	for _, d := range ref {
		hist[int64(d)]++
		total += int64(d)
		if int64(d) > maxDeg {
			maxDeg = int64(d)
		}
	}
	if dd.MaxDegree != maxDeg {
		t.Fatalf("MaxDegree = %d, want %d", dd.MaxDegree, maxDeg)
	}
	if want := float64(total) / float64(len(ref)); dd.AvgDegree != want {
		t.Fatalf("AvgDegree = %g, want %g", dd.AvgDegree, want)
	}
	var keys []int64
	for k := range hist {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	counts := make([]int64, len(keys))
	for i, k := range keys {
		counts[i] = hist[k]
	}
	if !reflect.DeepEqual(dd.Degrees, keys) || !reflect.DeepEqual(dd.Counts, counts) {
		t.Fatalf("histogram %v/%v, want %v/%v", dd.Degrees, dd.Counts, keys, counts)
	}

	cc := analytics.MergeComponents(int64(full.at),
		[]*wire.ComponentsPart{analytics.ComponentsPartOf(g, full.at, 1, 0)})
	labels, n := analytics.ConnectedComponents(g)
	if int(cc.NumComponents) != n {
		t.Fatalf("NumComponents = %d, want %d", cc.NumComponents, n)
	}
	sizes := map[graph.NodeID]int64{}
	for _, root := range labels {
		sizes[root]++
	}
	var largest int64
	for _, s := range sizes {
		if s > largest {
			largest = s
		}
	}
	if cc.Largest != largest {
		t.Fatalf("Largest = %d, want %d", cc.Largest, largest)
	}
}

// diffSource wraps fakeSource with the identity-carrying edge walk the
// evolution diff needs.
type diffSource struct {
	nodes map[graph.NodeID]bool
	edges map[graph.EdgeID]graph.EdgeInfo
}

func (d *diffSource) NumNodes() int { return len(d.nodes) }
func (d *diffSource) NumEdges() int { return len(d.edges) }
func (d *diffSource) ForEachNode(fn func(graph.NodeID) bool) {
	for n := range d.nodes {
		if !fn(n) {
			return
		}
	}
}
func (d *diffSource) ForEachEdge(fn func(graph.EdgeID, graph.EdgeInfo) bool) {
	for id, info := range d.edges {
		if !fn(id, info) {
			return
		}
	}
}
func (d *diffSource) HasNode(n graph.NodeID) bool { return d.nodes[n] }
func (d *diffSource) HasEdge(e graph.EdgeID) bool { _, ok := d.edges[e]; return ok }

func TestShardedEvolutionSums(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const parts = 3
	// An edge ID's endpoints are fixed across its history — that is what
	// confines each element to one partition — so endpoints are drawn once
	// per ID and only presence varies between the two snapshots.
	ends := make([]graph.EdgeInfo, 150)
	for i := range ends {
		ends[i] = graph.EdgeInfo{From: graph.NodeID(rng.Intn(60)), To: graph.NodeID(rng.Intn(60))}
	}
	mk := func() *diffSource {
		d := &diffSource{nodes: map[graph.NodeID]bool{}, edges: map[graph.EdgeID]graph.EdgeInfo{}}
		for i := 0; i < 60; i++ {
			if rng.Intn(2) == 0 {
				d.nodes[graph.NodeID(i)] = true
			}
		}
		for i, info := range ends {
			if rng.Intn(2) == 0 {
				d.edges[graph.EdgeID(i)] = info
			}
		}
		return d
	}
	g1, g2 := mk(), mk()
	want := analytics.MergeEvolution([]*wire.EvolutionPart{analytics.EvolutionPartOf(g1, g2, 1, 2)})

	slice := func(d *diffSource, p int) *diffSource {
		out := &diffSource{nodes: map[graph.NodeID]bool{}, edges: map[graph.EdgeID]graph.EdgeInfo{}}
		for n := range d.nodes {
			if graph.Partition(n, parts) == p {
				out.nodes[n] = true
			}
		}
		for id, info := range d.edges {
			if graph.Partition(info.From, parts) == p {
				out.edges[id] = info
			}
		}
		return out
	}
	var shardedParts []*wire.EvolutionPart
	for p := 0; p < parts; p++ {
		shardedParts = append(shardedParts, analytics.EvolutionPartOf(slice(g1, p), slice(g2, p), 1, 2))
	}
	got := analytics.MergeEvolution(shardedParts)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sharded evolution %+v, want %+v", got, want)
	}
}

// queueingWriter is a pool view whose first HasEdge queues a writer on the
// pool (a clean pass) and gives it time to start waiting for the lock.
type queueingWriter struct {
	*graphpool.View
	pool *graphpool.Pool
	once sync.Once
}

func (q *queueingWriter) HasEdge(e graph.EdgeID) bool {
	q.once.Do(func() {
		go q.pool.CleanNow()
		time.Sleep(50 * time.Millisecond)
	})
	return q.View.HasEdge(e)
}

// TestEvolutionDoesNotWedgeThePool: the evolution diff tests one view's
// elements against the other's, and a writer queued on the pool meanwhile
// must not wedge it. A test made inside the other view's walk takes the read
// lock the walk holds, behind the writer, which waits for the walk.
func TestEvolutionDoesNotWedgeThePool(t *testing.T) {
	pool := graphpool.New()
	adm := pool.Admit()
	for i, ev := range []graph.Event{
		{Type: graph.AddNode, Node: 1}, {Type: graph.AddNode, Node: 2}, {Type: graph.AddNode, Node: 3},
		{Type: graph.AddEdge, Edge: 1, Node: 1, Node2: 2}, {Type: graph.AddEdge, Edge: 2, Node: 2, Node2: 3},
	} {
		ev.At = graph.Time(i + 1)
		adm.Apply(ev)
	}
	adm.Pause()
	cur := pool.Current()
	done := make(chan *wire.EvolutionPart, 1)
	go func() { done <- analytics.EvolutionPartOf(&queueingWriter{View: cur, pool: pool}, cur, 1, 2) }()
	select {
	case part := <-done:
		if part.NodesT1 != 3 || part.EdgesT2 != 2 || part.NodesAdded+part.NodesRemoved+part.EdgesAdded+part.EdgesRemoved != 0 {
			t.Errorf("a graph diffed with itself: %+v", part)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("EvolutionPartOf wedged behind a writer queued on the pool")
	}
}
