package server

import (
	"context"
	"errors"
	"math"
	"testing"

	"historygraph"
	"historygraph/internal/analytics"
	"historygraph/internal/csr"
	"historygraph/internal/wire"
)

// TestAnalyticsDegreeUnsharded checks GET /analytics/degree against a
// histogram computed independently by walking the view (the CSR scan and
// the view walk share no code beyond the view itself).
func TestAnalyticsDegreeUnsharded(t *testing.T) {
	gm := newTestManager(t)
	_, client := newTestServer(t, gm, Config{})
	mid := gm.LastTime() / 2

	h, err := gm.GetHistGraph(mid, "")
	if err != nil {
		t.Fatal(err)
	}
	hist := map[int64]int64{}
	var maxDeg, total, n int64
	for _, node := range h.Nodes() {
		d := int64(len(h.Neighbors(node)))
		hist[d]++
		total += d
		n++
		if d > maxDeg {
			maxDeg = d
		}
	}

	dd, err := client.AnalyticsDegreeCtx(context.Background(), mid, "")
	if err != nil {
		t.Fatal(err)
	}
	if dd.At != int64(mid) || dd.NumNodes != n || dd.MaxDegree != maxDeg {
		t.Fatalf("degree head = at %d nodes %d max %d, want %d/%d/%d",
			dd.At, dd.NumNodes, dd.MaxDegree, int64(mid), n, maxDeg)
	}
	if want := float64(total) / float64(n); dd.AvgDegree != want {
		t.Fatalf("AvgDegree = %g, want %g", dd.AvgDegree, want)
	}
	var sum int64
	for i, d := range dd.Degrees {
		if hist[d] != dd.Counts[i] {
			t.Fatalf("degree %d count = %d, want %d", d, dd.Counts[i], hist[d])
		}
		sum += dd.Counts[i]
	}
	if sum != n || len(dd.Degrees) != len(hist) {
		t.Fatalf("histogram covers %d nodes over %d buckets, want %d over %d",
			sum, len(dd.Degrees), n, len(hist))
	}
}

// TestAnalyticsComponentsUnsharded checks GET /analytics/components
// against an independent union-find over the view.
func TestAnalyticsComponentsUnsharded(t *testing.T) {
	gm := newTestManager(t)
	_, client := newTestServer(t, gm, Config{})
	mid := gm.LastTime() / 2

	h, err := gm.GetHistGraph(mid, "")
	if err != nil {
		t.Fatal(err)
	}
	parent := map[historygraph.NodeID]historygraph.NodeID{}
	var find func(historygraph.NodeID) historygraph.NodeID
	find = func(x historygraph.NodeID) historygraph.NodeID {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, node := range h.Nodes() {
		parent[node] = node
	}
	for _, node := range h.Nodes() {
		for _, nb := range h.Neighbors(node) {
			if _, ok := parent[nb]; !ok {
				continue // neighbor is not a node of the snapshot
			}
			if ra, rb := find(node), find(nb); ra != rb {
				parent[ra] = rb
			}
		}
	}
	sizes := map[historygraph.NodeID]int64{}
	for _, node := range h.Nodes() {
		sizes[find(node)]++
	}
	var largest int64
	for _, s := range sizes {
		if s > largest {
			largest = s
		}
	}

	cc, err := client.AnalyticsComponentsCtx(context.Background(), mid, "")
	if err != nil {
		t.Fatal(err)
	}
	if cc.NumNodes != int64(len(parent)) || cc.NumComponents != int64(len(sizes)) || cc.Largest != largest {
		t.Fatalf("components = nodes %d comps %d largest %d, want %d/%d/%d",
			cc.NumNodes, cc.NumComponents, cc.Largest, len(parent), len(sizes), largest)
	}
	var covered int64
	for i, size := range cc.Sizes {
		covered += size * cc.Counts[i]
	}
	if covered != cc.NumNodes {
		t.Fatalf("size histogram covers %d nodes, want %d", covered, cc.NumNodes)
	}
}

// TestAnalyticsEvolutionUnsharded checks GET /analytics/evolution against
// a direct two-view diff.
func TestAnalyticsEvolutionUnsharded(t *testing.T) {
	gm := newTestManager(t)
	_, client := newTestServer(t, gm, Config{})
	last := gm.LastTime()
	t1, t2 := last/3, last

	h1, err := gm.GetHistGraph(t1, "")
	if err != nil {
		t.Fatal(err)
	}
	h2, err := gm.GetHistGraph(t2, "")
	if err != nil {
		t.Fatal(err)
	}
	want := analytics.EvolutionPartOf(h1, h2, t1, t2)

	ev, err := client.AnalyticsEvolutionCtx(context.Background(), t1, t2, "")
	if err != nil {
		t.Fatal(err)
	}
	if ev.NodesT1 != want.NodesT1 || ev.NodesT2 != want.NodesT2 ||
		ev.EdgesT1 != want.EdgesT1 || ev.EdgesT2 != want.EdgesT2 ||
		ev.NodesAdded != want.NodesAdded || ev.NodesRemoved != want.NodesRemoved ||
		ev.EdgesAdded != want.EdgesAdded || ev.EdgesRemoved != want.EdgesRemoved {
		t.Fatalf("evolution %+v, want %+v", ev, want)
	}
	if want.NodesAdded == 0 && want.EdgesAdded == 0 {
		t.Fatal("trace grew nothing between t1 and t2; the diff test is vacuous")
	}
}

// TestAnalyticsPageRankUnsharded checks the synchronous endpoint's
// plumbing (defaults, top-K ordering) against the library computation.
func TestAnalyticsPageRankUnsharded(t *testing.T) {
	gm := newTestManager(t)
	_, client := newTestServer(t, gm, Config{})
	mid := gm.LastTime() / 2

	h, err := gm.GetHistGraph(mid, "")
	if err != nil {
		t.Fatal(err)
	}
	g := csr.Build(h)
	scores := analytics.PageRank(g, 0.85, 20)

	res, err := client.AnalyticsPageRankCtx(context.Background(), wire.PageRankRequest{T: int64(mid)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Damping != 0.85 || res.Iterations != 20 || res.NumNodes != int64(g.NumNodes()) {
		t.Fatalf("defaults not applied: %+v", res)
	}
	if len(res.Top) != 20 {
		t.Fatalf("top list has %d entries, want 20", len(res.Top))
	}
	for i, e := range res.Top {
		if got, want := e.Score, scores[historygraph.NodeID(e.Node)]; math.Abs(got-want) > 1e-12 {
			t.Fatalf("rank %d node %d: score %g, want %g", i, e.Node, got, want)
		}
		if i > 0 && e.Score > res.Top[i-1].Score {
			t.Fatalf("top list not descending at %d", i)
		}
	}
}

// TestAnalyticsCSRCacheInvalidation: the second scan hits the cached CSR
// (Cached flips on), and an append at an earlier timepoint evicts it.
func TestAnalyticsCSRCacheInvalidation(t *testing.T) {
	gm := newTestManager(t)
	_, client := newTestServer(t, gm, Config{})
	mid := gm.LastTime() / 2
	ctx := context.Background()

	first, err := client.AnalyticsDegreeCtx(ctx, mid, "")
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first scan reported a CSR cache hit")
	}
	second, err := client.AnalyticsDegreeCtx(ctx, mid, "")
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("repeat scan missed the CSR cache")
	}

	// Warm a second CSR at a timepoint past the frontier, then append
	// below it: the frontier CSR must be rebuilt, the historical one kept.
	future := gm.LastTime() + 10
	atFuture, err := client.AnalyticsDegreeCtx(ctx, future, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Append(historygraph.EventList{{
		Type: historygraph.AddNode, At: gm.LastTime() + 1, Node: 1 << 30,
	}}); err != nil {
		t.Fatal(err)
	}
	third, err := client.AnalyticsDegreeCtx(ctx, mid, "")
	if err != nil {
		t.Fatal(err)
	}
	if !third.Cached {
		t.Fatal("append after t must not evict the CSR at t")
	}
	fourth, err := client.AnalyticsDegreeCtx(ctx, future, "")
	if err != nil {
		t.Fatal(err)
	}
	if fourth.Cached {
		t.Fatal("append at or below t must evict the CSR at t")
	}
	if fourth.NumNodes != atFuture.NumNodes+1 {
		t.Fatalf("rebuilt scan has %d nodes, want %d", fourth.NumNodes, atFuture.NumNodes+1)
	}
}

// TestPRJobLegProtocol drives the worker-side PageRank job endpoints the
// way the coordinator does (parts=1, so no cross-partition routing) and
// compares against the synchronous endpoint.
func TestPRJobLegProtocol(t *testing.T) {
	gm := newTestManager(t)
	_, client := newTestServer(t, gm, Config{})
	mid := gm.LastTime() / 2
	ctx := context.Background()
	const iters, topK = 5, 10

	sync, err := client.AnalyticsPageRankCtx(ctx, wire.PageRankRequest{T: int64(mid), Iterations: iters, TopK: topK})
	if err != nil {
		t.Fatal(err)
	}

	prep, err := client.PRPrepareCtx(ctx, wire.PRPrepare{
		Job: "leg-test", T: int64(mid), Parts: 1, Self: 0, Damping: 0.85,
	})
	if err != nil {
		t.Fatal(err)
	}
	if prep.Job != "leg-test" || prep.Nodes != sync.NumNodes || len(prep.Pairs) != 0 {
		t.Fatalf("prepare = %+v, want %d nodes and no pairs at parts=1", prep, sync.NumNodes)
	}
	if _, err := client.PRStartCtx(ctx, wire.PRStart{Job: "leg-test", N: prep.Nodes}); err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= iters; step++ {
		res, err := client.PRStepCtx(ctx, wire.PRStepRequest{
			Job: "leg-test", Finalize: step > 1, Compute: true,
		})
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if len(res.Out) != 0 {
			t.Fatalf("step %d emitted %d remote messages at parts=1", step, len(res.Out))
		}
	}
	final, err := client.PRStepCtx(ctx, wire.PRStepRequest{Job: "leg-test", Finalize: true, TopK: topK})
	if err != nil {
		t.Fatal(err)
	}
	if final.NumNodes != sync.NumNodes || len(final.Top) != len(sync.Top) {
		t.Fatalf("collect = %d nodes / %d top, want %d/%d",
			final.NumNodes, len(final.Top), sync.NumNodes, len(sync.Top))
	}
	for i, e := range final.Top {
		if e.Node != sync.Top[i].Node || math.Abs(e.Score-sync.Top[i].Score) > 1e-9*math.Max(sync.Top[i].Score, 1) {
			t.Fatalf("top[%d] = %+v, want %+v", i, e, sync.Top[i])
		}
	}

	// The collecting step released the job.
	var he *HTTPError
	if _, err := client.PRStepCtx(ctx, wire.PRStepRequest{Job: "leg-test", Finalize: true}); !errors.As(err, &he) || he.Status != 404 {
		t.Fatalf("step after collect: err = %v, want HTTP 404", err)
	}
	if _, err := client.PRStartCtx(ctx, wire.PRStart{Job: "never-prepared", N: 1}); !errors.As(err, &he) || he.Status != 404 {
		t.Fatalf("start of unknown job: err = %v, want HTTP 404", err)
	}
}
