package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"historygraph"
	"historygraph/internal/cache"
	"historygraph/internal/datagen"
	"historygraph/internal/graphpool"
	"historygraph/internal/metrics"
	"historygraph/internal/wire"
)

// testSnapCache builds a view cache outside a server, for driving it
// directly.
func testSnapCache(size int) snapCache {
	return newSnapCache(cache.NewLevels(metrics.NewRegistry()), size)
}

// insert hands h to c and drops the reader pin InsertAcquire returns.
func insert(c snapCache, gm *historygraph.GraphManager, key string, at historygraph.Time, h *historygraph.HistGraph) {
	if _, release := c.InsertAcquire(gm, key, at, h, c.Gen()); release != nil {
		release()
	}
}

// testEvents is a small deterministic co-authorship trace.
func testEvents() historygraph.EventList {
	return datagen.Coauthorship(datagen.CoauthorshipConfig{
		Authors: 200, Edges: 600, Years: 4, AttrsPerNode: 2, Seed: 42,
	})
}

func newTestManager(t testing.TB) *historygraph.GraphManager {
	t.Helper()
	gm, err := historygraph.BuildFrom(testEvents(), historygraph.Options{
		LeafEventlistSize: 128,
		// Long cleaner interval: tests drive cleanup explicitly via
		// ForceClean so assertions are deterministic.
		CleanerInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gm.Close() })
	return gm
}

func newTestServer(t testing.TB, gm *historygraph.GraphManager, cfg Config) (*Server, *Client) {
	t.Helper()
	svc := New(gm, cfg)
	httpSrv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { httpSrv.Close(); svc.Close() })
	return svc, NewClient(httpSrv.URL)
}

// TestEndToEnd appends over the wire, queries remotely, and checks every
// response against the same query answered directly by the library.
func TestEndToEnd(t *testing.T) {
	gm := newTestManager(t)
	_, client := newTestServer(t, gm, Config{})

	last := gm.LastTime()
	mid := last / 2

	// Singlepoint with attributes, full elements.
	snap, err := client.Snapshot(mid, "+node:all", true)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := gm.GetHistSnapshot(mid, "+node:all")
	if err != nil {
		t.Fatal(err)
	}
	if snap.NumNodes != len(direct.Nodes) || snap.NumEdges != len(direct.Edges) {
		t.Fatalf("snapshot counts: got %d/%d, want %d/%d",
			snap.NumNodes, snap.NumEdges, len(direct.Nodes), len(direct.Edges))
	}
	if len(snap.Nodes) != len(direct.Nodes) {
		t.Fatalf("full response has %d nodes, want %d", len(snap.Nodes), len(direct.Nodes))
	}
	for _, n := range snap.Nodes {
		if _, ok := direct.Nodes[historygraph.NodeID(n.ID)]; !ok {
			t.Fatalf("remote node %d not in direct snapshot", n.ID)
		}
		for k, v := range direct.NodeAttrs[historygraph.NodeID(n.ID)] {
			if n.Attrs[k] != v {
				t.Fatalf("node %d attr %s: got %q want %q", n.ID, k, n.Attrs[k], v)
			}
		}
	}

	// Batch retrieval maps onto the multipoint plan.
	ts := []historygraph.Time{last / 4, last / 2, last}
	batch, err := client.Snapshots(ts, "", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(ts) {
		t.Fatalf("batch returned %d snapshots, want %d", len(batch), len(ts))
	}
	for i, want := range ts {
		d, err := gm.GetHistSnapshot(want, "")
		if err != nil {
			t.Fatal(err)
		}
		if batch[i].NumNodes != len(d.Nodes) || batch[i].NumEdges != len(d.Edges) {
			t.Fatalf("batch[%d] t=%d: got %d/%d, want %d/%d",
				i, want, batch[i].NumNodes, batch[i].NumEdges, len(d.Nodes), len(d.Edges))
		}
	}

	// Neighbors against a direct view.
	h, err := gm.GetHistGraph(mid, "")
	if err != nil {
		t.Fatal(err)
	}
	var probe historygraph.NodeID = -1
	for _, n := range h.Nodes() {
		if h.Degree(n) > 0 {
			probe = n
			break
		}
	}
	if probe >= 0 {
		neigh, err := client.Neighbors(mid, probe, "")
		if err != nil {
			t.Fatal(err)
		}
		if want := h.Degree(probe); neigh.Degree != want {
			t.Fatalf("degree of %d: got %d want %d", probe, neigh.Degree, want)
		}
		if want := len(h.Neighbors(probe)); len(neigh.Neighbors) != want {
			t.Fatalf("neighbors of %d: got %d want %d", probe, len(neigh.Neighbors), want)
		}
	}
	gm.Release(h)

	// Interval query. Released and cleaned, an /interval read leaves the
	// pool as it found it: read once to grow what reads grow (a slab's
	// chunks), which a clean pass does not give back, then again.
	divRes, err := gm.GetHistGraphInterval(0, mid, "")
	if err != nil {
		t.Fatal(err)
	}
	wantNodes, wantEdges := divRes.Graph.NumNodes(), divRes.Graph.NumEdges()
	gm.Release(divRes.Graph)
	var st graphpool.Stats
	var held int64
	for pass := 0; pass < 2; pass++ {
		gm.ForceClean()
		st, held = gm.PoolStats(), gm.Pool().ApproxBytes()
		iv, err := client.Interval(0, mid, "+node:all+edge:all", pass == 1)
		if err != nil {
			t.Fatal(err)
		}
		if iv.NumNodes != wantNodes || iv.NumEdges != wantEdges {
			t.Fatalf("interval: got %d/%d, want %d/%d", iv.NumNodes, iv.NumEdges, wantNodes, wantEdges)
		}
	}
	if gm.ForceClean(); gm.PoolStats() != st || gm.Pool().ApproxBytes() != held {
		t.Fatalf("released and cleaned, the pool holds %+v in %d B; before the interval %+v in %d B", gm.PoolStats(), gm.Pool().ApproxBytes(), st, held)
	}

	// TimeExpression: elements at mid still present at last, byte for byte
	// the copy of the graph the direct call retrieves.
	for _, attrs := range []string{"", "+node:all+edge:all"} {
		expr, err := client.Expr(wire.ExprRequest{Times: []int64{int64(mid), int64(last)}, Expr: "0 & 1", Attrs: attrs, Full: true})
		if err != nil {
			t.Fatal(err)
		}
		h, err := gm.GetHistGraphExpr(historygraph.TimeExpression{
			Times: []historygraph.Time{mid, last},
			Expr:  historygraph.And{historygraph.Var(0), historygraph.Var(1)},
		}, attrs)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := wire.JSON{}.Encode(SnapshotToJSON(h.Snapshot(), 0, true))
		gm.Release(h)
		if got, _ := (wire.JSON{}).Encode(expr); len(expr.Edges) == 0 || !bytes.Equal(got, want) {
			t.Fatalf("expr %q with %d edges:\n got %.300s\nwant %.300s", attrs, len(expr.Edges), got, want)
		}
	}

	// Live append over the wire, then re-query: the new node must appear.
	newT := last + 10
	res, err := client.Append(historygraph.EventList{
		{Type: historygraph.AddNode, At: newT, Node: 999999},
		{Type: historygraph.SetNodeAttr, At: newT, Node: 999999, Attr: "name", New: "zed", HasNew: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Appended != 2 || res.LastTime != int64(newT) {
		t.Fatalf("append result %+v", res)
	}
	after, err := client.Snapshot(newT, "+node:name", true)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range after.Nodes {
		if n.ID == 999999 && n.Attrs["name"] == "zed" {
			found = true
		}
	}
	if !found {
		t.Fatal("appended node not visible in remote snapshot")
	}

	// Stats round-trips.
	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Server.Requests == 0 || stats.Index.Leaves == 0 || stats.Pool.ActiveGraphs == 0 {
		t.Fatalf("implausible stats %+v", stats)
	}
}

// TestCoalescing proves N parallel identical queries trigger exactly one
// underlying retrieval: whichever requests overlap the first share its
// flight, and any that arrive after it completes hit the inserted cache
// entry — either way the DeltaGraph executes one plan.
func TestCoalescing(t *testing.T) {
	gm := newTestManager(t)
	svc, client := newTestServer(t, gm, Config{CacheSize: 16})

	target := gm.LastTime() / 2
	before := gm.IndexStats().PlanExecutions

	const N = 32
	var wg sync.WaitGroup
	start := make(chan struct{})
	var failures atomic.Int64
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := client.Snapshot(target, "+node:all", false); err != nil {
				failures.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d requests failed", failures.Load())
	}
	if got := svc.Retrievals(); got != 1 {
		t.Fatalf("N=%d parallel identical queries caused %d retrievals, want 1", N, got)
	}
	if got := gm.IndexStats().PlanExecutions - before; got != 1 {
		t.Fatalf("DeltaGraph executed %d plans, want 1", got)
	}
	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// A late arrival is served by whichever layer catches it first: the
	// encoded-bytes cache (stored body, zero encode), the hot-snapshot
	// cache, or the shared flight.
	if stats.Server.Coalesced+stats.Server.CacheHits+stats.Server.EncodedHits != N-1 {
		t.Fatalf("coalesced (%d) + cache hits (%d) + encoded hits (%d) should cover the other %d requests",
			stats.Server.Coalesced, stats.Server.CacheHits, stats.Server.EncodedHits, N-1)
	}
}

// TestFlightGroup exercises the coalescing primitive directly: callers
// that arrive while a key is in flight share one execution.
func TestFlightGroup(t *testing.T) {
	var g FlightGroup
	var executions atomic.Int64
	gate := make(chan struct{})

	leaderDone := make(chan error, 1)
	go func() {
		v, shared, err := g.Do("k", func() (any, error) {
			executions.Add(1)
			<-gate
			return 7, nil
		})
		if shared || v.(int) != 7 {
			leaderDone <- fmt.Errorf("leader got v=%v shared=%v", v, shared)
			return
		}
		leaderDone <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for g.InFlight() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("leader never entered flight")
		}
		time.Sleep(time.Millisecond)
	}

	const waiters = 8
	var wg sync.WaitGroup
	results := make(chan bool, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, shared, err := g.Do("k", func() (any, error) {
				executions.Add(1)
				return -1, nil
			})
			results <- shared && err == nil && v.(int) == 7
		}()
	}
	time.Sleep(50 * time.Millisecond) // let the waiters block on the flight
	close(gate)
	wg.Wait()
	if err := <-leaderDone; err != nil {
		t.Fatal(err)
	}
	if executions.Load() != 1 {
		t.Fatalf("fn executed %d times, want 1", executions.Load())
	}
	for i := 0; i < waiters; i++ {
		if !<-results {
			t.Fatal("a waiter did not share the leader's result")
		}
	}
	// A fresh call after completion executes again.
	_, shared, _ := g.Do("k", func() (any, error) { executions.Add(1); return 8, nil })
	if shared || executions.Load() != 2 {
		t.Fatal("post-completion call should have executed afresh")
	}
}

// TestCacheEvictionRefcount drives the LRU directly: eviction releases a
// view back to the pool, but a reader's pin defers reclamation until the
// reader finishes.
func TestCacheEvictionRefcount(t *testing.T) {
	gm := newTestManager(t)
	pool := gm.Pool()
	last := gm.LastTime()
	cache := testSnapCache(2)

	get := func(t_ historygraph.Time) *historygraph.HistGraph {
		h, err := gm.GetHistGraph(t_, "")
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	key := func(i int) string { return fmt.Sprintf("k%d", i) }

	baseline := pool.Stats().ActiveGraphs
	h1, h2 := get(last/4), get(last/2)
	insert(cache, gm, key(1), last/4, h1)
	insert(cache, gm, key(2), last/2, h2)
	if got := pool.Stats().ActiveGraphs; got != baseline+2 {
		t.Fatalf("after 2 inserts: %d active graphs, want %d", got, baseline+2)
	}

	// Take a reader pin on h2, as a request in flight would.
	h2r, release2, ok := cache.Acquire(key(2))
	if !ok || h2r.ID() != h2.ID() {
		t.Fatal("acquire of resident entry failed")
	}
	wantNodes := h2r.NumNodes()

	// Inserting a third entry evicts the LRU entry — which is h1, since
	// the Acquire refreshed h2.
	h3 := get(last)
	insert(cache, gm, key(3), last, h3)
	if _, _, ok := cache.Acquire(key(1)); ok {
		t.Fatal("h1 should have been evicted")
	}
	// ForceClean reclaims the released entry (its elements may survive if
	// shared with other graphs, but the graph itself must go).
	gm.ForceClean()
	if got := pool.Stats().ActiveGraphs; got != baseline+2 {
		t.Fatalf("after eviction+clean: %d active graphs, want %d", got, baseline+2)
	}

	// Evict h2 while the reader still holds it: Release happens, but the
	// pin defers reclamation, so the view stays fully readable.
	h4 := get(last / 3)
	insert(cache, gm, key(4), last/3, h4)
	if _, _, ok := cache.Acquire(key(2)); ok {
		t.Fatal("h2 should have been evicted")
	}
	gm.ForceClean()
	if got := pool.Stats().ActiveGraphs; got != baseline+2+1 {
		t.Fatalf("pinned graph was reclaimed: %d active graphs, want %d", got, baseline+3)
	}
	if got := h2r.NumNodes(); got != wantNodes {
		t.Fatalf("pinned view changed under the reader: %d nodes, want %d", got, wantNodes)
	}
	if pool.Pins(h2.ID()) != 1 {
		t.Fatalf("expected exactly the reader's pin, got %d", pool.Pins(h2.ID()))
	}

	// Reader finishes: the next clean pass reclaims the evicted view.
	release2()
	gm.ForceClean()
	if got := pool.Stats().ActiveGraphs; got != baseline+2 {
		t.Fatalf("after reader release+clean: %d active graphs, want %d", got, baseline+2)
	}

	cache.Purge()
	gm.ForceClean()
	if got := pool.Stats().ActiveGraphs; got != baseline {
		t.Fatalf("after purge: %d active graphs, want baseline %d", got, baseline)
	}
	if size, ev := cache.Len(), cache.Stats().Evictions; size != 0 || ev != 2 {
		t.Fatalf("cache size %d evictions %d: want size 0, evictions 2", size, ev)
	}
}

// TestViewCacheEvictsColdest: the view cache is plain LRU, whatever a
// view took to build. An old timepoint (a plan over stored deltas) read
// before the head (an overlay of the current graph, far cheaper) is the
// coldest entry when a third timepoint arrives, so it is the one evicted
// and reading it again retrieves it again.
func TestViewCacheEvictsColdest(t *testing.T) {
	gm := newTestManager(t)
	svc, client := newTestServer(t, gm, Config{CacheSize: 2, EncodedCacheSize: -1})
	last := gm.LastTime()

	for _, tp := range []historygraph.Time{last / 4, last, last / 2, last / 4} {
		if _, err := client.Snapshot(tp, "", false); err != nil {
			t.Fatal(err)
		}
	}
	if got := svc.Retrievals(); got != 4 {
		t.Fatalf("old, head, third, old again ran %d retrievals, want 4 (the old view evicted)", got)
	}
	if _, err := client.Snapshot(last/2, "", false); err != nil {
		t.Fatal(err)
	}
	if got := svc.Retrievals(); got != 4 {
		t.Fatalf("the third timepoint was retrieved again (%d retrievals): it should still be resident", got)
	}
}

// TestCacheHitSkipsPlanExecution proves a repeat query at a hot timepoint
// does not touch the DeltaGraph.
func TestCacheHitSkipsPlanExecution(t *testing.T) {
	gm := newTestManager(t)
	_, client := newTestServer(t, gm, Config{CacheSize: 4})
	target := gm.LastTime() / 2

	if _, err := client.Snapshot(target, "", false); err != nil {
		t.Fatal(err)
	}
	before := gm.IndexStats().PlanExecutions
	for i := 0; i < 5; i++ {
		snap, err := client.Snapshot(target, "", false)
		if err != nil {
			t.Fatal(err)
		}
		if !snap.Cached {
			t.Fatalf("repeat query %d not served from cache", i)
		}
	}
	if got := gm.IndexStats().PlanExecutions - before; got != 0 {
		t.Fatalf("cache hits executed %d plans, want 0", got)
	}
	// A different attribute spec is a different cache key → one new plan.
	if _, err := client.Snapshot(target, "+node:all", false); err != nil {
		t.Fatal(err)
	}
	if got := gm.IndexStats().PlanExecutions - before; got != 1 {
		t.Fatalf("distinct attr spec executed %d plans, want 1", got)
	}
}

// TestAppendInvalidatesCache: appending events at time t evicts cached
// snapshots at or after t (their content changed) but keeps earlier ones.
func TestAppendInvalidatesCache(t *testing.T) {
	gm := newTestManager(t)
	_, client := newTestServer(t, gm, Config{CacheSize: 8})
	last := gm.LastTime()
	early, tail := last/2, last+5

	if _, err := client.Snapshot(early, "", false); err != nil {
		t.Fatal(err)
	}
	// A query beyond the end of history is answered by the current graph
	// and would silently go stale after appends in the gap.
	snapTail, err := client.Snapshot(tail, "", false)
	if err != nil {
		t.Fatal(err)
	}

	res, err := client.Append(historygraph.EventList{
		{Type: historygraph.AddNode, At: last + 1, Node: 888888},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Invalidated != 1 {
		t.Fatalf("append invalidated %d entries, want 1 (the t=%d entry)", res.Invalidated, tail)
	}

	afterEarly, err := client.Snapshot(early, "", false)
	if err != nil {
		t.Fatal(err)
	}
	if !afterEarly.Cached {
		t.Fatal("pre-append timepoint should still be cached")
	}
	afterTail, err := client.Snapshot(tail, "", false)
	if err != nil {
		t.Fatal(err)
	}
	if afterTail.Cached {
		t.Fatal("post-append timepoint should have been invalidated")
	}
	if afterTail.NumNodes != snapTail.NumNodes+1 {
		t.Fatalf("stale tail snapshot: %d nodes, want %d", afterTail.NumNodes, snapTail.NumNodes+1)
	}
}

// TestAppendInvalidatesCurrentDependentView: a snapshot retrieved at the
// end of history is overlaid as exceptions against the current graph, so
// its membership reads the current graph's live bits. An append at ANY
// later time must evict it even though its own timepoint precedes the
// appended events — otherwise the cached view leaks future elements into
// the past.
func TestAppendInvalidatesCurrentDependentView(t *testing.T) {
	gm := newTestManager(t)
	_, client := newTestServer(t, gm, Config{CacheSize: 8})
	last := gm.LastTime()

	// Precondition: a query at the end of history takes the
	// dependent-on-current overlay (zero records to apply).
	probe, err := gm.GetHistGraph(last, "")
	if err != nil {
		t.Fatal(err)
	}
	depCur := probe.DependsOnCurrent()
	gm.Release(probe)
	if !depCur {
		t.Skip("planner did not choose a current-dependent overlay; scenario not reachable")
	}

	snap, err := client.Snapshot(last, "", false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := client.Append(historygraph.EventList{
		{Type: historygraph.AddNode, At: last + 100, Node: 777777},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The at >= last+100 rule alone would keep the t=last entry; the
	// current-dependency rule must evict it.
	if res.Invalidated == 0 {
		t.Fatal("append did not invalidate the current-dependent cached view")
	}
	after, err := client.Snapshot(last, "", true)
	if err != nil {
		t.Fatal(err)
	}
	if after.Cached {
		t.Fatal("stale current-dependent view served from cache after append")
	}
	if after.NumNodes != snap.NumNodes {
		t.Fatalf("snapshot at t=%d changed after a later append: %d nodes, want %d",
			last, after.NumNodes, snap.NumNodes)
	}
	for _, n := range after.Nodes {
		if n.ID == 777777 {
			t.Fatal("future node leaked into a past snapshot")
		}
	}
}

// TestBatchRegistersInCache: a multipoint batch registers its snapshots
// in the GraphPool and the hot-snapshot cache, so a repeat batch — or a
// singlepoint query at any of its timepoints — executes zero plans.
func TestBatchRegistersInCache(t *testing.T) {
	gm := newTestManager(t)
	_, client := newTestServer(t, gm, Config{CacheSize: 16})
	last := gm.LastTime()
	ts := []historygraph.Time{last / 4, last / 2, last * 3 / 4}

	before := gm.IndexStats().PlanExecutions
	first, err := client.Snapshots(ts, "", false)
	if err != nil {
		t.Fatal(err)
	}
	afterFirst := gm.IndexStats().PlanExecutions
	if afterFirst == before {
		t.Fatal("cold batch executed no plans")
	}
	for i := range first {
		if first[i].Cached {
			t.Fatalf("cold batch snapshot %d claims cache hit", i)
		}
	}

	repeat, err := client.Snapshots(ts, "", false)
	if err != nil {
		t.Fatal(err)
	}
	if got := gm.IndexStats().PlanExecutions; got != afterFirst {
		t.Fatalf("repeat batch executed %d plans, want 0", got-afterFirst)
	}
	for i := range repeat {
		if !repeat[i].Cached {
			t.Fatalf("repeat batch snapshot %d missed the cache", i)
		}
		if repeat[i].NumNodes != first[i].NumNodes || repeat[i].NumEdges != first[i].NumEdges {
			t.Fatalf("repeat batch snapshot %d diverged: %d/%d vs %d/%d", i,
				repeat[i].NumNodes, repeat[i].NumEdges, first[i].NumNodes, first[i].NumEdges)
		}
	}

	// The cache is shared across endpoints: a singlepoint query at a
	// batch timepoint is a hit too.
	single, err := client.Snapshot(ts[1], "", false)
	if err != nil {
		t.Fatal(err)
	}
	if !single.Cached {
		t.Fatal("singlepoint query at a batched timepoint missed the cache")
	}
	if got := gm.IndexStats().PlanExecutions; got != afterFirst {
		t.Fatalf("cross-endpoint hit executed %d plans, want 0", got-afterFirst)
	}

	// Duplicate timepoints within one batch resolve to one retrieval and
	// identical answers.
	dup, err := client.Snapshots([]historygraph.Time{last / 8, last / 8, ts[1]}, "", false)
	if err != nil {
		t.Fatal(err)
	}
	if dup[0].NumNodes != dup[1].NumNodes || dup[0].NumEdges != dup[1].NumEdges {
		t.Fatalf("duplicate timepoints diverged: %+v vs %+v", dup[0], dup[1])
	}
	if !dup[2].Cached {
		t.Fatal("cached timepoint inside a mixed batch missed the cache")
	}

	// Appends still invalidate batch-registered entries at or after the
	// appended time; strictly earlier ones survive.
	tail := last + 5
	tb, err := client.Snapshots([]historygraph.Time{ts[0], tail}, "", false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Append(historygraph.EventList{
		{Type: historygraph.AddNode, At: last + 1, Node: 777001},
	}); err != nil {
		t.Fatal(err)
	}
	post, err := client.Snapshots([]historygraph.Time{ts[0], tail}, "", false)
	if err != nil {
		t.Fatal(err)
	}
	if !post[0].Cached {
		t.Fatal("append invalidated a batch entry before the appended time")
	}
	if post[1].Cached {
		t.Fatal("append left a stale batch entry after the appended time")
	}
	if post[1].NumNodes != tb[1].NumNodes+1 {
		t.Fatalf("stale batch snapshot: %d nodes, want %d", post[1].NumNodes, tb[1].NumNodes+1)
	}
}

// TestBatchAdmissionGuard: a batch with at least as many distinct
// timepoints as the LRU holds is served from views the cache does not admit
// instead of flushing the whole hot set through the cache.
func TestBatchAdmissionGuard(t *testing.T) {
	gm := newTestManager(t)
	_, client := newTestServer(t, gm, Config{CacheSize: 4})
	last := gm.LastTime()

	hot, err := client.Snapshot(last/2, "", false)
	if err != nil {
		t.Fatal(err)
	}
	ts := make([]historygraph.Time, 8)
	for i := range ts {
		ts[i] = last * historygraph.Time(i+1) / 17
	}
	if _, err := client.Snapshots(ts, "", false); err != nil {
		t.Fatal(err)
	}
	// The big batch must not have evicted the hot entry...
	again, err := client.Snapshot(last/2, "", false)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.NumNodes != hot.NumNodes {
		t.Fatalf("oversized batch evicted the hot singlepoint entry (cached=%v)", again.Cached)
	}
	// ...and must not have registered its own timepoints either.
	repeat, err := client.Snapshots(ts, "", false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range repeat {
		if repeat[i].Cached {
			t.Fatalf("oversized batch timepoint %d was admitted to the cache", i)
		}
	}
}

// TestBatchWithCacheDisabled: with no view cache a batch is one multipoint
// retrieval of its distinct timepoints, counted like the singlepoint
// retrievals the same server runs.
func TestBatchWithCacheDisabled(t *testing.T) {
	gm := newTestManager(t)
	svc, client := newTestServer(t, gm, Config{CacheSize: -1})
	last := gm.LastTime()
	ts := []historygraph.Time{last / 3, last / 2, last / 3}
	got, err := client.Snapshots(ts, "", true)
	if err != nil {
		t.Fatal(err)
	}
	if r := svc.Retrievals(); r != 2 {
		t.Fatalf("batch of 2 distinct timepoints ran %d retrievals, want 2", r)
	}
	for i, tp := range ts {
		want, err := client.Snapshot(tp, "", true)
		if err != nil {
			t.Fatal(err)
		}
		if got[i].Cached || got[i].At != int64(tp) || got[i].NumNodes != want.NumNodes || len(got[i].Edges) != len(want.Edges) {
			t.Fatalf("timepoint %d: batch answered %d nodes/%d edges cached=%v, singlepoint %d/%d",
				tp, got[i].NumNodes, len(got[i].Edges), got[i].Cached, want.NumNodes, len(want.Edges))
		}
	}
}

// TestBatchServedWithoutAdmission: a batch the view cache does not admit, one
// of at least its capacity or any batch with caching off, is built in the
// pool as every miss is and encoded from the views: each answer, attributes
// and all, is byte for byte what asking its time alone answers, and once the
// views are released and cleaned the pool holds what it held before, to the
// byte.
func TestBatchServedWithoutAdmission(t *testing.T) {
	for _, size := range []int{4, -1} {
		gm := newTestManager(t)
		base := newHTTPServer(t, New(gm, Config{CacheSize: size}))
		get := func(path string) []byte {
			t.Helper()
			resp, err := http.Get(base + path)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s: %d %s (%v)", path, resp.StatusCode, body, err)
			}
			return bytes.TrimSpace(body)
		}
		last := gm.LastTime()
		var ts []string
		for i := int64(1); i <= 6; i++ {
			ts = append(ts, strconv.FormatInt(int64(last)*i/7, 10))
		}
		const attrs = "&full=1&attrs=%2Bnode:all%2Bedge:all"
		// Once to grow what the reads grow (a slab's chunks), which a clean
		// pass does not give back, then again.
		var answers []json.RawMessage
		var st graphpool.Stats
		var held int64
		for pass := 0; pass < 2; pass++ {
			gm.ForceClean()
			st, held = gm.PoolStats(), gm.Pool().ApproxBytes()
			if err := json.Unmarshal(get("/batch?t="+strings.Join(ts, ",")+attrs), &answers); err != nil || len(answers) != len(ts) {
				t.Fatalf("cache %d: %d answers to a batch of %d (%v)", size, len(answers), len(ts), err)
			}
			gm.ForceClean()
		}
		if got := gm.PoolStats(); got != st || gm.Pool().ApproxBytes() != held {
			t.Fatalf("cache %d: released and cleaned, the pool holds %+v in %d B; before the batch %+v in %d B", size, got, gm.Pool().ApproxBytes(), st, held)
		}
		for i, tp := range ts {
			if single := get("/snapshot?t=" + tp + attrs); !bytes.Equal(answers[i], single) {
				t.Fatalf("cache %d: the batch answers t=%s with\n%.300s\nalone it is\n%.300s", size, tp, answers[i], single)
			}
		}
		if !strings.Contains(string(answers[0]), `"attrs"`) {
			t.Fatalf("cache %d: the batch's answers carry no attribute: %.300s", size, answers[0])
		}
	}
}

// TestWholeBodiesStateTheirLength: a whole /snapshot body in either codec
// — a miss, then hits of the encoded level — and a /batch answer each state
// their exact length, so that a client sizes its read before the first
// byte; a live stream states none.
func TestWholeBodiesStateTheirLength(t *testing.T) {
	gm := newTestManager(t)
	base := newHTTPServer(t, New(gm, Config{}))
	get := func(path, accept string) (int64, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, base+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Accept", accept)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %.200s (%v)", path, resp.StatusCode, body, err)
		}
		return resp.ContentLength, body
	}
	last := gm.LastTime()
	const attrs = "&full=1&attrs=%2Bnode:all%2Bedge:all"
	for _, codec := range wire.Codecs() {
		for i := range 3 {
			// Past the 2 kB net/http buffers before it chunks a body of no
			// stated length.
			if n, body := get(fmt.Sprintf("/snapshot?t=%d%s", last, attrs), codec.ContentType()); n != int64(len(body)) || len(body) < 4<<10 {
				t.Fatalf("/snapshot as %s, answer %d: Content-Length %d for %d bytes", codec.Name(), i, n, len(body))
			}
		}
		if n, body := get(fmt.Sprintf("/batch?t=%d,%d%s", last/2, last, attrs), codec.ContentType()); n != int64(len(body)) || len(body) < 4<<10 {
			t.Fatalf("/batch as %s: Content-Length %d for %d bytes", codec.Name(), n, len(body))
		}
	}
	if n, body := get(fmt.Sprintf("/snapshot?t=%d%s", last/2, attrs), wire.ContentTypeBinaryStream); n != -1 {
		t.Fatalf("a live stream of %d bytes states Content-Length %d", len(body), n)
	}
}

// TestInsertRefusedAfterInvalidation: a view retrieved before an
// invalidation pass must not register afterwards — it may predate the
// events the pass declared visible.
func TestInsertRefusedAfterInvalidation(t *testing.T) {
	gm := newTestManager(t)
	cache := testSnapCache(4)
	last := gm.LastTime()

	gen := cache.Gen()
	h, err := gm.GetHistGraph(last/2, "")
	if err != nil {
		t.Fatal(err)
	}
	cache.InvalidateFrom(last) // a concurrent append's pass
	if _, rel := cache.InsertAcquire(gm, "k", last/2, h, gen); rel != nil {
		t.Fatal("stale view registered despite an intervening invalidation")
	}
	gm.Release(h)

	// A retrieval started after the pass registers normally.
	gen = cache.Gen()
	h2, err := gm.GetHistGraph(last/2, "")
	if err != nil {
		t.Fatal(err)
	}
	fh, rel := cache.InsertAcquire(gm, "k", last/2, h2, gen)
	if rel == nil {
		t.Fatal("fresh view refused")
	}
	if fh.NumNodes() != h2.NumNodes() {
		t.Fatal("cached view diverged from inserted view")
	}
	rel()
	cache.Purge()
}

// TestInsertRefusedAfterClose: shutdown is an invalidation pass too. A
// retrieval that started before Close must not register afterwards —
// nothing would ever release the view it pinned in the GraphPool.
func TestInsertRefusedAfterClose(t *testing.T) {
	gm := newTestManager(t)
	pool := gm.Pool()
	svc := New(gm, Config{})
	last := gm.LastTime()
	baseline := pool.Stats().ActiveGraphs

	gen := svc.cache.Gen()
	h, err := gm.GetHistGraph(last/2, "")
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()
	if _, rel := svc.cache.InsertAcquire(gm, "k", last/2, h, gen); rel != nil {
		t.Fatal("view registered after Close")
	}
	if pins := pool.Pins(h.ID()); pins != 0 {
		t.Fatalf("refused view still holds %d pins", pins)
	}
	gm.Release(h)
	gm.ForceClean()
	if got := pool.Stats().ActiveGraphs; got != baseline {
		t.Fatalf("pool holds %d active graphs after Close, want baseline %d", got, baseline)
	}
}

// TestParseTimeExpr covers the expression grammar.
func TestParseTimeExpr(t *testing.T) {
	member := []bool{true, false, true}
	cases := []struct {
		in   string
		want bool
	}{
		{"0", true},
		{"1", false},
		{"!1", true},
		{"0 & 1", false},
		{"0 & !1", true},
		{"0 | 1", true},
		{"(0 | 1) & 2", true},
		{"!(0 & 2)", false},
		{"0&!1&2", true},
	}
	for _, c := range cases {
		e, err := ParseTimeExpr(c.in, len(member))
		if err != nil {
			t.Fatalf("%q: %v", c.in, err)
		}
		if got := e.Eval(member); got != c.want {
			t.Fatalf("%q over %v: got %v want %v", c.in, member, got, c.want)
		}
	}
	for _, bad := range []string{"", "3", "0 &", "(0", "0 # 1", "x", "99999999999999999999"} {
		if _, err := ParseTimeExpr(bad, len(member)); err == nil {
			t.Fatalf("%q: expected parse error", bad)
		}
	}
}

// TestRemoteMatchesDirectUnderConcurrency hammers the server from many
// goroutines with mixed hot and cold timepoints while events append, and
// verifies a final quiescent query against the library.
func TestRemoteMatchesDirectUnderConcurrency(t *testing.T) {
	gm := newTestManager(t)
	_, client := newTestServer(t, gm, Config{CacheSize: 4})
	last := gm.LastTime()

	var wg sync.WaitGroup
	var failures atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				tp := last * historygraph.Time((w*20+i)%7+1) / 8
				if _, err := client.Snapshot(tp, "", false); err != nil {
					failures.Add(1)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d concurrent queries failed", failures.Load())
	}

	probe := last / 8 * 3
	snap, err := client.Snapshot(probe, "", false)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := gm.GetHistSnapshot(probe, "")
	if err != nil {
		t.Fatal(err)
	}
	if snap.NumNodes != len(direct.Nodes) || snap.NumEdges != len(direct.Edges) {
		t.Fatalf("remote %d/%d != direct %d/%d",
			snap.NumNodes, snap.NumEdges, len(direct.Nodes), len(direct.Edges))
	}
}
