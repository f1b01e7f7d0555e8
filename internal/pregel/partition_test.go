package pregel_test

// Drives the PartitionPageRank superstep protocol in-process — the same
// call sequence the shard coordinator issues over HTTP — and holds every
// shape to the same bits: the driver at one partition, the protocol at
// parts 1 to 4, and reruns of each. The float power iteration below is the
// reference the fixed-point kernel is held to, within 1e-12 relative.

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"historygraph/internal/analytics"
	"historygraph/internal/csr"
	"historygraph/internal/graph"
	"historygraph/internal/graphpool"
	"historygraph/internal/pregel"
	"historygraph/internal/wire"
)

type fakeSource struct {
	nodes []graph.NodeID
	edges []graph.EdgeInfo
}

func (f *fakeSource) At() graph.Time { return 0 }
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

// randomSource builds a random graph over IDs [0, ids): about five in six
// IDs are nodes, the rest only edge endpoints (ghosts), and multi-edges
// and self-loops are legal.
func randomSource(seed int64, ids, edges int) *fakeSource {
	rng := rand.New(rand.NewSource(seed))
	full := &fakeSource{}
	for i := 0; i < ids; i++ {
		if rng.Intn(6) > 0 {
			full.nodes = append(full.nodes, graph.NodeID(i))
		}
	}
	for i := 0; i < edges; i++ {
		full.edges = append(full.edges, graph.EdgeInfo{
			From: graph.NodeID(rng.Intn(ids)), To: graph.NodeID(rng.Intn(ids)),
		})
	}
	return full
}

// referencePageRank is the float power iteration: every share added into
// a map in map order, so its low bits differ from run to run.
func referencePageRank(g pregel.Graph, damping float64, iterations int) map[graph.NodeID]float64 {
	n := g.NumNodes()
	rank := make(map[graph.NodeID]float64, n)
	g.ForEachNode(func(id graph.NodeID) bool {
		rank[id] = 1 / float64(n)
		return true
	})
	for it := 0; it < iterations; it++ {
		next := make(map[graph.NodeID]float64, n)
		for id := range rank {
			next[id] = (1 - damping) / float64(n)
		}
		for id, r := range rank {
			nbrs := g.Neighbors(id)
			for _, nb := range nbrs {
				if _, ok := next[nb]; ok {
					next[nb] += damping * r / float64(len(nbrs))
				}
			}
		}
		rank = next
	}
	return rank
}

// runDistributed executes the full coordinator protocol over in-process
// partitions: prepare, pair routing, start, iterations+1 supersteps.
func runDistributed(full *fakeSource, parts int, damping float64, iterations, topK int) []wire.RankEntry {
	srcs := make([]*fakeSource, parts)
	for p := range srcs {
		srcs[p] = &fakeSource{}
	}
	for _, n := range full.nodes {
		p := graph.Partition(n, parts)
		srcs[p].nodes = append(srcs[p].nodes, n)
	}
	for _, e := range full.edges {
		p := graph.Partition(e.From, parts)
		srcs[p].edges = append(srcs[p].edges, e)
	}

	prs := make([]*pregel.PartitionPageRank, parts)
	var n int64
	var allPairs []int64
	for p, src := range srcs {
		g := csr.Build(src)
		prs[p] = pregel.NewPartitionPageRank(g, parts, p, damping)
		n += prs[p].NumVertices()
		allPairs = append(allPairs, analytics.BoundaryPairs(g, parts, p)...)
	}
	routed := analytics.RoutePairs(allPairs, parts)
	for p, pr := range prs {
		pr.Start(n, routed[p])
	}

	route := func(outs [][]wire.PRMessage) [][]wire.PRMessage {
		acc := make([]map[int64]int64, parts)
		for p := range acc {
			acc[p] = map[int64]int64{}
		}
		for _, out := range outs {
			for _, m := range out {
				acc[graph.Partition(graph.NodeID(m.Node), parts)][m.Node] += m.Share
			}
		}
		inboxes := make([][]wire.PRMessage, parts)
		for p, byNode := range acc {
			for node, share := range byNode {
				inboxes[p] = append(inboxes[p], wire.PRMessage{Node: node, Share: share})
			}
			sort.Slice(inboxes[p], func(i, j int) bool { return inboxes[p][i].Node < inboxes[p][j].Node })
		}
		return inboxes
	}

	inboxes := make([][]wire.PRMessage, parts)
	for step := 1; step <= iterations; step++ {
		outs := make([][]wire.PRMessage, parts)
		for p, pr := range prs {
			pr.Absorb(inboxes[p])
			if step > 1 {
				pr.Finalize()
			}
			outs[p] = pr.Compute()
		}
		inboxes = route(outs)
	}
	var lists [][]wire.RankEntry
	for p, pr := range prs {
		pr.Absorb(inboxes[p])
		pr.Finalize()
		lists = append(lists, pr.TopK(topK))
	}
	return analytics.MergeRanks(lists, topK)
}

func TestPartitionPageRankMatchesSingleProcess(t *testing.T) {
	full := randomSource(17, 90, 320)
	const damping, iterations, topK = 0.85, 20, 1000
	want := pregel.PageRank(csr.Build(full), damping, iterations, topK)
	if len(want) != len(full.nodes) {
		t.Fatalf("driver ranked %d vertices, want %d", len(want), len(full.nodes))
	}
	for parts := 1; parts <= 4; parts++ {
		if got := runDistributed(full, parts, damping, iterations, topK); !reflect.DeepEqual(got, want) {
			t.Fatalf("parts=%d answers other bits than the driver:\n got %v\nwant %v", parts, got, want)
		}
	}
}

// TestPageRankMatchesSequential holds the fixed-point kernel to the float
// reference within 1e-12 relative, over a random graph and one with a hub.
func TestPageRankMatchesSequential(t *testing.T) {
	for _, src := range []*fakeSource{randomSource(5, 2000, 8000), hubAndChain()} {
		g := csr.Build(src)
		const damping, iterations = 0.85, 50
		want := referencePageRank(g, damping, iterations)
		got := pregel.PageRank(g, damping, iterations, -1)
		if len(got) != len(want) {
			t.Fatalf("%d ranks, want %d", len(got), len(want))
		}
		for _, e := range got {
			w := want[graph.NodeID(e.Node)]
			if diff := math.Abs(e.Score - w); diff > 1e-12*w {
				t.Fatalf("node %d: score %.17g, reference %.17g (relative %g)", e.Node, e.Score, w, diff/w)
			}
		}
	}
}

// twoHalves is a random graph next to an identical copy of itself: node i
// and node i+half are mirror images, so each pair ties exactly and the top
// list orders it by ID — unless a sum's order leaks into its low bits.
func twoHalves(seed int64, half, edges int) *fakeSource {
	rng := rand.New(rand.NewSource(seed))
	full := &fakeSource{}
	for i := 0; i < 2*half; i++ {
		full.nodes = append(full.nodes, graph.NodeID(i))
	}
	for i := 0; i < edges; i++ {
		a, b := graph.NodeID(rng.Intn(half)), graph.NodeID(rng.Intn(half))
		full.edges = append(full.edges,
			graph.EdgeInfo{From: a, To: b},
			graph.EdgeInfo{From: a + graph.NodeID(half), To: b + graph.NodeID(half)})
	}
	return full
}

// TestPageRankBitIdenticalAcrossRunsAndShapes: ten reruns of the driver
// and the protocol at parts 1, 2 and 4 answer the same scores in the same
// order, and every mirror pair ties.
func TestPageRankBitIdenticalAcrossRunsAndShapes(t *testing.T) {
	const half, damping, iterations = 300, 0.85, 20
	full := twoHalves(3, half, 1200)
	want := pregel.PageRank(csr.Build(full), damping, iterations, -1)
	score := map[int64]float64{}
	for _, e := range want {
		score[e.Node] = e.Score
	}
	for i := int64(0); i < half; i++ {
		if score[i] != score[i+half] {
			t.Fatalf("mirror nodes %d and %d: %.17g vs %.17g", i, i+half, score[i], score[i+half])
		}
	}
	for run := 0; run < 10; run++ {
		if got := pregel.PageRank(csr.Build(full), damping, iterations, -1); !reflect.DeepEqual(got, want) {
			t.Fatalf("rerun %d of the driver answers another list", run)
		}
		for _, parts := range []int{1, 2, 4} {
			if got := runDistributed(full, parts, damping, iterations, len(full.nodes)); !reflect.DeepEqual(got, want) {
				t.Fatalf("rerun %d at parts=%d answers another list", run, parts)
			}
		}
	}
}

// hubAndChain: node 1 is a hub over 2, 3 and 4, then a chain 4-5-6-7-8.
func hubAndChain() *fakeSource {
	src := &fakeSource{}
	for i := 1; i <= 8; i++ {
		src.nodes = append(src.nodes, graph.NodeID(i))
	}
	for _, e := range [][2]graph.NodeID{{1, 2}, {1, 3}, {1, 4}, {2, 3}, {4, 5}, {5, 6}, {6, 7}, {7, 8}} {
		src.edges = append(src.edges, graph.EdgeInfo{From: e[0], To: e[1]})
	}
	return src
}

// TestPageRankSumsToOne: rank mass is at most one (shares never exceed the
// damped mass they come from) and, with no dangling vertex, close to it.
func TestPageRankSumsToOne(t *testing.T) {
	sum := 0.0
	for _, e := range pregel.PageRank(csr.Build(hubAndChain()), 0.85, 30, -1) {
		sum += e.Score
	}
	if sum > 1+1e-12 || sum < 0.99 {
		t.Errorf("rank mass = %.17g, want at most 1 and about 1", sum)
	}
}

func TestPageRankHubRanksHighest(t *testing.T) {
	for parts := 1; parts <= 3; parts++ {
		if top := runDistributed(hubAndChain(), parts, 0.85, 25, 1); len(top) != 1 || top[0].Node != 1 {
			t.Errorf("parts=%d: top = %v, want node 1", parts, top)
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	if got := pregel.PageRank(csr.Build(&fakeSource{}), 0.85, 20, -1); len(got) != 0 {
		t.Errorf("empty graph ranked %d vertices", len(got))
	}
}

func TestPartitionPageRankEmpty(t *testing.T) {
	got := runDistributed(&fakeSource{}, 2, 0.85, 3, 10)
	if len(got) != 0 {
		t.Fatalf("empty graph ranked %d vertices", len(got))
	}
}

// queueingWalk is a pool view whose node walk, at its first node, queues a
// writer on the pool (a clean pass) and gives it time to start waiting for
// the lock the walk holds.
type queueingWalk struct {
	*graphpool.View
	pool *graphpool.Pool
}

func (q *queueingWalk) ForEachNode(fn func(graph.NodeID) bool) {
	first := true
	q.View.ForEachNode(func(n graph.NodeID) bool {
		if first {
			first = false
			go q.pool.CleanNow()
			time.Sleep(50 * time.Millisecond)
		}
		return fn(n)
	})
}

// TestPageRankDoesNotWedgeThePool: a job loads a pool view's rows, and a
// writer queued on the pool meanwhile must not wedge it. A Neighbors read
// inside the node walk takes the read lock the walk holds, behind the
// writer, which waits for the walk.
func TestPageRankDoesNotWedgeThePool(t *testing.T) {
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
	done := make(chan []wire.RankEntry, 1)
	go func() { done <- pregel.PageRank(&queueingWalk{View: pool.Current(), pool: pool}, 0.85, 5, -1) }()
	select {
	case top := <-done:
		if len(top) != 3 || top[0].Node != 2 {
			t.Errorf("ranks of a path 1-2-3: %v, want node 2 first of three", top)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("PageRank wedged behind a writer queued on the pool")
	}
}
