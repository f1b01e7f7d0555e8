package shard

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"historygraph"
	"historygraph/internal/datagen"
	"historygraph/internal/graph"
	"historygraph/internal/server"
	"historygraph/internal/wire"
)

// testEvents is a deterministic co-authorship trace with a few transient
// events mixed in so interval merging is exercised.
func testEvents() historygraph.EventList {
	events := datagen.Coauthorship(datagen.CoauthorshipConfig{
		Authors: 200, Edges: 600, Years: 4, AttrsPerNode: 2, Seed: 42,
	})
	_, last := events.Span()
	for i := 0; i < 8; i++ {
		events = append(events, historygraph.Event{
			Type: historygraph.TransientEdge,
			At:   last * historygraph.Time(i+1) / 10,
			Edge: historygraph.EdgeID(1<<40) + historygraph.EdgeID(i),
			Node: historygraph.NodeID(i * 17), Node2: historygraph.NodeID(i*17 + 1),
		})
	}
	events.Sort()
	return events
}

func buildManager(t testing.TB, events historygraph.EventList) *historygraph.GraphManager {
	t.Helper()
	gm, err := historygraph.BuildFrom(events, historygraph.Options{
		LeafEventlistSize: 128,
		CleanerInterval:   time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gm.Close() })
	return gm
}

// cluster is an in-process sharded deployment: n partition workers, each
// an ordinary server.Server over its slice of the trace, plus a
// coordinator in front.
type cluster struct {
	co       *Coordinator
	client   *server.Client
	workers  []*historygraph.GraphManager
	services []*server.Server
	httpSrvs []*httptest.Server
}

func newCluster(t testing.TB, events historygraph.EventList, n int, cfg Config) *cluster {
	t.Helper()
	return newWrappedCluster(t, events, n, cfg, func(h http.Handler) http.Handler { return h })
}

// newWrappedCluster is newCluster with each worker's handler wrapped.
func newWrappedCluster(t testing.TB, events historygraph.EventList, n int, cfg Config, wrap func(http.Handler) http.Handler) *cluster {
	t.Helper()
	c := &cluster{}
	var urls []string
	for _, slice := range PartitionEvents(events, n) {
		gm := buildManager(t, slice)
		svc := server.New(gm, server.Config{CacheSize: 32})
		hs := httptest.NewServer(wrap(svc.Handler()))
		t.Cleanup(func() { hs.Close(); svc.Close() })
		c.workers = append(c.workers, gm)
		c.services = append(c.services, svc)
		c.httpSrvs = append(c.httpSrvs, hs)
		urls = append(urls, hs.URL)
	}
	co, err := New(urls, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.co = co
	front := httptest.NewServer(co.Handler())
	t.Cleanup(front.Close)
	c.client = server.NewClient(front.URL)
	return c
}

// oracle is the unsharded reference deployment over the same trace.
func oracle(t testing.TB, events historygraph.EventList) (*historygraph.GraphManager, *server.Client, string) {
	t.Helper()
	gm := buildManager(t, events)
	svc := server.New(gm, server.Config{CacheSize: 32})
	hs := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { hs.Close(); svc.Close() })
	return gm, server.NewClient(hs.URL), hs.URL
}

func rawGET(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d: %s", url, resp.StatusCode, body)
	}
	return body
}

// TestShardedMatchesUnsharded is the acceptance check: a 4-partition
// cluster must answer /snapshot byte-identically to the unsharded server
// over the same event log, and every other endpoint must merge to the
// oracle's content.
func TestShardedMatchesUnsharded(t *testing.T) {
	events := testEvents()
	gm, oclient, ourl := oracle(t, events)
	c := newCluster(t, events, 4, Config{})
	last := gm.LastTime()

	frontURL := c.client.BaseURL()
	for _, tp := range []historygraph.Time{last / 4, last / 2, last} {
		for _, query := range []string{
			fmt.Sprintf("/snapshot?t=%d&full=1", tp),
			fmt.Sprintf("/snapshot?t=%d&attrs=%%2Bnode:all%%2Bedge:all&full=1", tp),
			fmt.Sprintf("/snapshot?t=%d", tp),
		} {
			want := rawGET(t, ourl+query)
			got := rawGET(t, frontURL+query)
			if string(got) != string(want) {
				t.Fatalf("sharded %s diverges from unsharded:\n got: %.400s\nwant: %.400s", query, got, want)
			}
		}
	}

	// Repeat queries: both deployments serve from their hot caches and
	// still agree byte for byte (cached flag included).
	query := fmt.Sprintf("/snapshot?t=%d&full=1", last/2)
	want := rawGET(t, ourl+query)
	got := rawGET(t, frontURL+query)
	if string(got) != string(want) {
		t.Fatalf("cached sharded response diverges:\n got: %.400s\nwant: %.400s", got, want)
	}

	// Batch merges per timepoint.
	ts := []historygraph.Time{last / 4, last / 2, last * 3 / 4}
	batch, err := c.client.Snapshots(ts, "", false)
	if err != nil {
		t.Fatal(err)
	}
	for i, tp := range ts {
		direct, err := gm.GetHistSnapshot(tp, "")
		if err != nil {
			t.Fatal(err)
		}
		if batch[i].NumNodes != len(direct.Nodes) || batch[i].NumEdges != len(direct.Edges) {
			t.Fatalf("batch[%d] t=%d: got %d/%d, want %d/%d",
				i, tp, batch[i].NumNodes, batch[i].NumEdges, len(direct.Nodes), len(direct.Edges))
		}
	}

	// Neighbors: union of per-partition adjacency equals the oracle's
	// neighborhood, for nodes on every partition.
	h, err := gm.GetHistGraph(last/2, "")
	if err != nil {
		t.Fatal(err)
	}
	probes := map[int]historygraph.NodeID{}
	for _, n := range h.Nodes() {
		p := graph.Partition(n, 4)
		if _, ok := probes[p]; !ok && h.Degree(n) > 0 {
			probes[p] = n
		}
	}
	for _, probe := range probes {
		sharded, err := c.client.Neighbors(last/2, probe, "")
		if err != nil {
			t.Fatal(err)
		}
		if want := h.Degree(probe); sharded.Degree != want {
			t.Fatalf("node %d degree: sharded %d, oracle %d", probe, sharded.Degree, want)
		}
		want := map[int64]struct{}{}
		for _, n := range h.Neighbors(probe) {
			want[int64(n)] = struct{}{}
		}
		if len(sharded.Neighbors) != len(want) {
			t.Fatalf("node %d: sharded %d neighbors, oracle %d", probe, len(sharded.Neighbors), len(want))
		}
		for _, n := range sharded.Neighbors {
			if _, ok := want[n]; !ok {
				t.Fatalf("node %d: sharded neighbor %d not in oracle set", probe, n)
			}
		}
	}
	gm.Release(h)

	// Interval: disjoint adds union, transients interleave by timestamp.
	iv, err := c.client.Interval(0, last/2, "", false)
	if err != nil {
		t.Fatal(err)
	}
	oiv, err := oclient.Interval(0, last/2, "", false)
	if err != nil {
		t.Fatal(err)
	}
	if iv.NumNodes != oiv.NumNodes || iv.NumEdges != oiv.NumEdges || len(iv.Transients) != len(oiv.Transients) {
		t.Fatalf("interval: sharded %d/%d/%d transients %d, oracle %d/%d transients %d",
			iv.NumNodes, iv.NumEdges, len(iv.Transients), len(iv.Transients),
			oiv.NumNodes, oiv.NumEdges, len(oiv.Transients))
	}
	for i := 1; i < len(iv.Transients); i++ {
		if iv.Transients[i-1].At > iv.Transients[i].At {
			t.Fatal("merged transients out of time order")
		}
	}
}

// TestShardedExprMatchesUnsharded: a TimeExpression decides each element
// by itself, so per-partition evaluation merges to the unsharded server's
// /expr byte for byte, counts only, structure and every attribute, on the
// co-authorship trace and on a messy one (re-adds, deletes of absent
// elements, attribute churn).
func TestShardedExprMatchesUnsharded(t *testing.T) {
	for name, events := range map[string]historygraph.EventList{"testEvents": testEvents(), "routableMessy": datagen.RoutableMessyTrace(7, 3000)} {
		gm, oclient, _ := oracle(t, events)
		c := newCluster(t, events, 4, Config{})
		last := gm.LastTime()
		times := []int64{int64(last / 3), int64(2 * last / 3), int64(last)}
		nonEmpty := 0
		for _, expr := range []string{"0 & !1", "0 | 1", "!0 & 1", "0 & 1 & !2", "(0 | 1) & !2"} {
			for _, req := range []wire.ExprRequest{
				{Times: times, Expr: expr},
				{Times: times, Expr: expr, Full: true},
				{Times: times, Expr: expr, Attrs: "+node:all+edge:all", Full: true},
			} {
				got, err := c.client.Expr(req)
				if err != nil {
					t.Fatal(err)
				}
				want, err := oclient.Expr(req)
				if err != nil {
					t.Fatal(err)
				}
				gotBytes, _ := wire.JSON{}.Encode(got)
				wantBytes, _ := wire.JSON{}.Encode(want)
				if !bytes.Equal(gotBytes, wantBytes) {
					t.Fatalf("%s: /expr %+v: sharded diverges from unsharded:\n got: %.400s\nwant: %.400s", name, req, gotBytes, wantBytes)
				}
				if want.NumNodes+want.NumEdges > 0 {
					nonEmpty++
				}
			}
		}
		if nonEmpty == 0 {
			t.Errorf("%s: every expression is empty", name)
		}
	}
}

// TestShardAppendRouting: events appended through the coordinator land
// only on their owning partition, and subsequent queries merge them back.
func TestShardAppendRouting(t *testing.T) {
	events := testEvents()
	gm, _, _ := oracle(t, events)
	c := newCluster(t, events, 4, Config{})
	last := gm.LastTime()

	newT := last + 10
	var appended historygraph.EventList
	for i := 0; i < 8; i++ {
		appended = append(appended, historygraph.Event{
			Type: historygraph.AddNode, At: newT, Node: historygraph.NodeID(1000000 + i),
		})
	}
	res, err := c.client.Append(appended)
	if err != nil {
		t.Fatal(err)
	}
	if res.Appended != len(appended) || res.LastTime != int64(newT) || len(res.Partial) != 0 {
		t.Fatalf("append result %+v", res)
	}
	if err := gm.AppendAll(appended); err != nil {
		t.Fatal(err)
	}

	// Each new node must live on exactly its hash partition.
	for i := range appended {
		node := appended[i].Node
		owner := graph.Partition(node, 4)
		for p, w := range c.workers {
			direct, err := w.GetHistSnapshot(newT, "")
			if err != nil {
				t.Fatal(err)
			}
			_, has := direct.Nodes[node]
			if has != (p == owner) {
				t.Fatalf("node %d on partition %d: has=%v, owner=%d", node, p, has, owner)
			}
		}
	}

	// Merged snapshot equals the oracle after the same appends.
	snap, err := c.client.Snapshot(newT, "", false)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := gm.GetHistSnapshot(newT, "")
	if err != nil {
		t.Fatal(err)
	}
	if snap.NumNodes != len(direct.Nodes) || snap.NumEdges != len(direct.Edges) {
		t.Fatalf("post-append snapshot: sharded %d/%d, oracle %d/%d",
			snap.NumNodes, snap.NumEdges, len(direct.Nodes), len(direct.Edges))
	}
}

// TestShardPartialFailure: with one partition down, queries still answer
// from the live partitions and report the dead one.
func TestShardPartialFailure(t *testing.T) {
	events := testEvents()
	c := newCluster(t, events, 4, Config{})
	gm, _, _ := oracle(t, events)
	last := gm.LastTime()

	// Measure the doomed partition's share first.
	deadShare, err := c.workers[2].GetHistSnapshot(last/2, "")
	if err != nil {
		t.Fatal(err)
	}
	full, err := c.client.Snapshot(last/2, "", false)
	if err != nil {
		t.Fatal(err)
	}
	c.httpSrvs[2].Close()

	// New timepoint so neither coordinator flight nor worker caches mask
	// the fan-out... and t differs from the warm query above.
	snap, err := c.client.Snapshot(last/2+1, "", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Partial) != 1 || snap.Partial[0].Partition != 2 || snap.Partial[0].Error == "" {
		t.Fatalf("partial list %+v, want exactly partition 2", snap.Partial)
	}
	if want := full.NumNodes - len(deadShare.Nodes); snap.NumNodes != want {
		t.Fatalf("partial snapshot has %d nodes, want %d (total %d minus dead partition's %d)",
			snap.NumNodes, want, full.NumNodes, len(deadShare.Nodes))
	}
	if snap.Cached {
		t.Fatal("partial response must not claim cluster-wide cache hit")
	}

	// readyz degrades but still enumerates the failure; healthz stays OK
	// — the coordinator process itself is fine.
	resp, err := http.Get(c.client.BaseURL() + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with a dead partition: HTTP %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(c.client.BaseURL() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz (liveness) with a dead partition: HTTP %d, want 200", resp.StatusCode)
	}

	// Appends routed at the dead partition report partial failure; other
	// partitions' events land.
	var evs historygraph.EventList
	for i := 0; i < 16; i++ {
		evs = append(evs, historygraph.Event{Type: historygraph.AddNode, At: last + 50, Node: historygraph.NodeID(2000000 + i)})
	}
	res, err := c.client.Append(evs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Partial) != 1 || res.Partial[0].Partition != 2 {
		t.Fatalf("append partial %+v, want partition 2", res.Partial)
	}
	if res.Appended >= len(evs) || res.Appended == 0 {
		t.Fatalf("append with a dead partition appended %d of %d", res.Appended, len(evs))
	}
}

// TestShardPartitionTimeout: a hung partition is cut off at the
// per-partition timeout and reported, without stalling the response.
func TestShardPartitionTimeout(t *testing.T) {
	events := testEvents()
	gm, _, _ := oracle(t, events)
	last := gm.LastTime()

	slices := PartitionEvents(events, 2)
	fast := buildManager(t, slices[0])
	svc := server.New(fast, server.Config{CacheSize: 8})
	fastSrv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { fastSrv.Close(); svc.Close() })

	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	slowSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(slowSrv.Close)

	co, err := New([]string{fastSrv.URL, slowSrv.URL}, Config{PartitionTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(co.Handler())
	t.Cleanup(front.Close)
	client := server.NewClient(front.URL)

	start := time.Now()
	snap, err := client.Snapshot(last/2, "", false)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("response took %v; the hung partition stalled the gather", elapsed)
	}
	if len(snap.Partial) != 1 || snap.Partial[0].Partition != 1 {
		t.Fatalf("partial list %+v, want the hung partition 1", snap.Partial)
	}
	fastShare, err := fast.GetHistSnapshot(last/2, "")
	if err != nil {
		t.Fatal(err)
	}
	if snap.NumNodes != len(fastShare.Nodes) {
		t.Fatalf("timed-out response has %d nodes, want the fast partition's %d", snap.NumNodes, len(fastShare.Nodes))
	}
}

// TestShardCoalescing: concurrent identical snapshot queries share one
// scatter-gather at the coordinator AND one plan execution per worker.
// A worker holds a snapshot leg until the other queries wait on the
// coordinator's fan-out (or 2 s have passed): a query that reached the
// coordinator only after the fan-out ended would lead a second one, and
// whether one does would measure the scheduler, not the coalescing.
func TestShardCoalescing(t *testing.T) {
	const N = 24
	events := testEvents()
	var c *cluster
	var ready sync.WaitGroup // c is set
	ready.Add(1)
	gate := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/snapshot" {
				ready.Wait()
				for deadline := time.Now().Add(2 * time.Second); c.co.flights.Hits.Value() < N-1 && time.Now().Before(deadline); {
					time.Sleep(time.Millisecond)
				}
			}
			h.ServeHTTP(w, r)
		})
	}
	c = newWrappedCluster(t, events, 4, Config{}, gate)
	ready.Done()
	var last historygraph.Time
	for _, w := range c.workers {
		if lt := w.LastTime(); lt > last {
			last = lt
		}
	}
	target := last / 2

	var wg sync.WaitGroup
	start := make(chan struct{})
	var failures atomic.Int64
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := c.client.Snapshot(target, "", false); err != nil {
				failures.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d requests failed", failures.Load())
	}
	if got := c.co.Fanouts(); got != 1 {
		t.Fatalf("%d parallel identical queries caused %d fan-outs, want 1", N, got)
	}
	for p, svc := range c.services {
		if got := svc.Retrievals(); got != 1 {
			t.Fatalf("partition %d executed %d retrievals, want 1", p, got)
		}
	}
}

// TestCoordinatorCache: a query asked for a third time is served from the
// coordinator's merged-response LRU — the second admitted it, so no third
// fan-out — and an append at or before that timepoint invalidates it.
func TestCoordinatorCache(t *testing.T) {
	events := testEvents()
	c := newCluster(t, events, 2, Config{})
	var last historygraph.Time
	for _, w := range c.workers {
		if lt := w.LastTime(); lt > last {
			last = lt
		}
	}
	// The appended probe event below must stay chronological (>= last) yet
	// still invalidate the cached timepoint, so the hot timepoint is the
	// history's end.
	target := last

	var first *wire.Snapshot
	for n := int64(1); n <= 2; n++ { // refused, then admitted
		snap, err := c.client.Snapshot(target, "", true)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.co.Fanouts(); got != n {
			t.Fatalf("query %d: %d fan-outs, want %d", n, got, n)
		}
		first = snap
	}
	again, err := c.client.Snapshot(target, "", true)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.co.Fanouts(); got != 2 {
		t.Fatalf("repeat query re-scattered: %d fan-outs, want 2", got)
	}
	if !again.Cached {
		t.Fatal("repeat query not marked cached")
	}
	if again.NumNodes != first.NumNodes || again.NumEdges != first.NumEdges || len(again.Nodes) != len(first.Nodes) {
		t.Fatalf("cached response diverged: %d/%d vs %d/%d", again.NumNodes, again.NumEdges, first.NumNodes, first.NumEdges)
	}

	// Batches are cached whole too.
	ts := []historygraph.Time{last / 4, last / 3}
	for range 2 {
		if _, err := c.client.Snapshots(ts, "", false); err != nil {
			t.Fatal(err)
		}
	}
	batchFanouts := c.co.Fanouts()
	if _, err := c.client.Snapshots(ts, "", false); err != nil {
		t.Fatal(err)
	}
	if got := c.co.Fanouts(); got != batchFanouts {
		t.Fatalf("repeat batch re-scattered: %d fan-outs, want %d", got, batchFanouts)
	}

	// An append at the cached timepoint invalidates every dependent entry.
	res, err := c.client.Append(historygraph.EventList{{
		Type: historygraph.AddNode, At: target, Node: historygraph.NodeID(900001),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Partial) != 0 || res.Appended != 1 {
		t.Fatalf("append result %+v", res)
	}
	fresh, err := c.client.Snapshot(target, "", true)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.co.Fanouts(); got != batchFanouts+1 {
		t.Fatalf("post-append query should re-scatter: %d fan-outs, want %d", got, batchFanouts+1)
	}
	if fresh.NumNodes != first.NumNodes+1 {
		t.Fatalf("post-append snapshot has %d nodes, want %d", fresh.NumNodes, first.NumNodes+1)
	}
}

// TestCoordinatorCacheTTL: with CacheTTL set, a cached merged response
// expires even though no append flowed through the coordinator — the
// safety valve for deployments where a writer can reach a partition
// primary directly, bypassing the coordinator's append invalidation.
func TestCoordinatorCacheTTL(t *testing.T) {
	events := testEvents()
	c := newCluster(t, events, 2, Config{CacheTTL: 300 * time.Millisecond})
	var last historygraph.Time
	for _, w := range c.workers {
		if lt := w.LastTime(); lt > last {
			last = lt
		}
	}
	target := last / 2

	for range 2 { // refused, then admitted
		if _, err := c.client.Snapshot(target, "", false); err != nil {
			t.Fatal(err)
		}
	}
	hit, err := c.client.Snapshot(target, "", false)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached || c.co.Fanouts() != 2 {
		t.Fatalf("pre-TTL repeat should be a cache hit (cached=%v, fanouts=%d)", hit.Cached, c.co.Fanouts())
	}

	time.Sleep(400 * time.Millisecond)
	// The merged Cached flag can still be true after expiry (each worker
	// answers from its own hot cache); the fan-out counter is the proof
	// that the coordinator's entry expired and the query re-scattered.
	if _, err := c.client.Snapshot(target, "", false); err != nil {
		t.Fatal(err)
	}
	if got := c.co.Fanouts(); got != 3 {
		t.Fatalf("expired entry should re-scatter: %d fan-outs, want 3", got)
	}
}

// TestPartitionEvents checks the routing invariants the whole design
// rests on: ownership matches the hash, order is preserved, nothing is
// lost.
func TestPartitionEvents(t *testing.T) {
	events := testEvents()
	slices := PartitionEvents(events, 4)
	total := 0
	for p, slice := range slices {
		total += len(slice)
		if !slice.Sorted() {
			t.Fatalf("partition %d slice lost chronological order", p)
		}
		for _, ev := range slice {
			if got := PartitionOf(ev, 4); got != p {
				t.Fatalf("event %v routed to %d but landed on %d", ev, got, p)
			}
		}
		if len(slice) == 0 {
			t.Fatalf("partition %d got no events; trace too small or hash degenerate", p)
		}
	}
	if total != len(events) {
		t.Fatalf("partitioning lost events: %d in, %d out", len(events), total)
	}
}

// TestAppendRejectsEndpointlessEdgeEvent: an edge delete that does not
// repeat the edge's endpoints cannot be hash-routed, and applying it to
// the wrong partition materializes a phantom edge there while the owner
// keeps the edge alive forever. The coordinator must 422 the batch
// before any slice lands; the same delete with endpoints goes through
// and keeps the cluster byte-identical to the unsharded oracle.
func TestAppendRejectsEndpointlessEdgeEvent(t *testing.T) {
	events := testEvents()
	gm, _, ourl := oracle(t, events)
	c := newCluster(t, events, 4, Config{})
	last := gm.LastTime()

	// Create a fresh edge through the coordinator, endpoints present.
	ne := historygraph.Event{
		Type: historygraph.AddEdge, At: last + 1,
		Edge: 1 << 41, Node: 3, Node2: 4,
	}
	if _, err := c.client.Append(historygraph.EventList{ne}); err != nil {
		t.Fatal(err)
	}
	if err := gm.AppendAll(historygraph.EventList{ne}); err != nil {
		t.Fatal(err)
	}

	// A bare DE (edge ID only) must be rejected atomically with 422 —
	// bundled node event included, nothing may land.
	bad := historygraph.EventList{
		{Type: historygraph.AddNode, At: last + 2, Node: 7777777},
		{Type: historygraph.DelEdge, At: last + 2, Edge: 1 << 41},
	}
	_, err := c.client.Append(bad)
	var he *server.HTTPError
	if !errors.As(err, &he) || he.Status != http.StatusUnprocessableEntity {
		t.Fatalf("bare DE append: err = %v, want HTTP 422", err)
	}
	snap, err := c.client.Snapshot(last+2, "", false)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := gm.GetHistSnapshot(last+2, "")
	if err != nil {
		t.Fatal(err)
	}
	if snap.NumNodes != len(direct.Nodes) || snap.NumEdges != len(direct.Edges) {
		t.Fatalf("after rejected batch: sharded %d/%d, oracle %d/%d",
			snap.NumNodes, snap.NumEdges, len(direct.Nodes), len(direct.Edges))
	}

	// The same delete with endpoints routes to the edge's owner and the
	// merged answer stays byte-identical to the oracle.
	de := historygraph.Event{
		Type: historygraph.DelEdge, At: last + 3,
		Edge: 1 << 41, Node: 3, Node2: 4,
	}
	if _, err := c.client.Append(historygraph.EventList{de}); err != nil {
		t.Fatal(err)
	}
	if err := gm.AppendAll(historygraph.EventList{de}); err != nil {
		t.Fatal(err)
	}
	a := rawGET(t, c.client.BaseURL()+fmt.Sprintf("/snapshot?t=%d&full=1", last+3))
	b := rawGET(t, ourl+fmt.Sprintf("/snapshot?t=%d&full=1", last+3))
	if string(a) != string(b) {
		t.Fatalf("post-delete snapshots differ:\nsharded: %s\noracle:  %s", a, b)
	}
}
