package shard

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"historygraph"
	"historygraph/internal/server"
	"historygraph/internal/wire"
)

// swapWorker is a partition worker behind a fixed URL whose handler can
// be swapped live — the in-process analog of killing the process and
// restarting it on the same address.
type swapWorker struct {
	handler atomic.Value // http.Handler
	live    http.Handler // the real service handler, kept across a kill
}

func (w *swapWorker) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	w.handler.Load().(http.Handler).ServeHTTP(rw, r)
}

// swapCluster is a sharded deployment whose workers can be killed and
// restarted without their URLs changing.
type swapCluster struct {
	co      *Coordinator
	client  *server.Client
	slices  []historygraph.EventList
	workers []*swapWorker
}

func newSwapCluster(t *testing.T, events historygraph.EventList, n int, cfg Config) *swapCluster {
	t.Helper()
	c := &swapCluster{slices: PartitionEvents(events, n)}
	var urls []string
	for _, slice := range c.slices {
		wk := &swapWorker{}
		c.startWorker(t, wk, slice)
		hs := httptest.NewServer(wk)
		t.Cleanup(hs.Close)
		c.workers = append(c.workers, wk)
		urls = append(urls, hs.URL)
	}
	co, err := New(urls, cfg)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(co.Handler())
	t.Cleanup(front.Close)
	c.co, c.client = co, server.NewClient(front.URL)
	return c
}

func (c *swapCluster) startWorker(t *testing.T, wk *swapWorker, slice historygraph.EventList) {
	t.Helper()
	gm := buildManager(t, slice)
	svc := server.New(gm, server.Config{CacheSize: 32})
	t.Cleanup(svc.Close)
	wk.live = svc.Handler()
	wk.handler.Store(wk.live)
}

// kill makes the worker answer every request with 502.
func (c *swapCluster) kill(p int) {
	c.workers[p].handler.Store(http.Handler(http.HandlerFunc(
		func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "worker down", http.StatusBadGateway)
		})))
}

// restart brings partition p back on its original URL with a fresh
// manager over the same event slice — cold caches, same data.
func (c *swapCluster) restart(t *testing.T, p int) {
	t.Helper()
	c.startWorker(t, c.workers[p], c.slices[p])
}

// TestShardedAnalyticsMatchesUnsharded is the analytics oracle check: a
// 4-partition cluster answers the mergeable /analytics endpoints
// byte-identically to the unsharded server over the same trace — fresh,
// from cache, and again after a worker is killed and restarted. PageRank
// is compared to documented float tolerance (1e-9 relative): partition
// shares arrive grouped by source partition, so summation order differs
// from the single-process loop.
func TestShardedAnalyticsMatchesUnsharded(t *testing.T) {
	events := testEvents()
	gm, oclient, ourl := oracle(t, events)
	c := newSwapCluster(t, events, 4, Config{})
	last := gm.LastTime()
	frontURL := c.client.BaseURL()
	ctx := context.Background()

	compare := func(query string) {
		t.Helper()
		want := rawGET(t, ourl+query)
		got := rawGET(t, frontURL+query)
		if string(got) != string(want) {
			t.Fatalf("sharded %s diverges from unsharded:\n got: %s\nwant: %s", query, got, want)
		}
	}
	queries := []string{
		fmt.Sprintf("/analytics/degree?t=%d", last/4),
		fmt.Sprintf("/analytics/degree?t=%d", last/2),
		fmt.Sprintf("/analytics/components?t=%d", last/4),
		fmt.Sprintf("/analytics/components?t=%d", last/2),
		fmt.Sprintf("/analytics/evolution?t1=%d&t2=%d", last/4, last/2),
		fmt.Sprintf("/analytics/evolution?t1=%d&t2=%d", last/2, last),
	}
	// Both deployments start cold and see the identical query sequence,
	// so cache verdicts (the Cached flag) stay in lockstep: the fresh pass
	// and the repeat pass must both match byte for byte.
	for _, q := range queries {
		compare(q)
	}
	for _, q := range queries {
		compare(q)
	}

	// PageRank: every node ranked (TopK beyond the node count), compared
	// by node to relative float tolerance.
	preq := wire.PageRankRequest{T: int64(last / 2), Iterations: 15, TopK: 1 << 20}
	want, err := oclient.AnalyticsPageRankCtx(ctx, preq)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.client.AnalyticsPageRankCtx(ctx, preq)
	if err != nil {
		t.Fatal(err)
	}
	comparePageRank(t, got, want)
	if got.Supersteps != preq.Iterations+1 {
		t.Fatalf("Supersteps = %d, want %d", got.Supersteps, preq.Iterations+1)
	}

	// The same job asynchronously: submit, poll to done, same result.
	job, err := c.client.AnalyticsPageRankJobCtx(ctx, preq)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != "running" || job.ID == "" {
		t.Fatalf("submitted job = %+v, want running with an ID", job)
	}
	st := pollJob(t, c.client, job.ID)
	if st.State != "done" || st.Result == nil {
		t.Fatalf("job ended %q (error %q), want done with a result", st.State, st.Error)
	}
	comparePageRank(t, st.Result, want)

	// Kill one partition: mergeable scans degrade to partial (and are not
	// admitted to the coordinator cache), PageRank refuses to answer.
	c.kill(2)
	dd, err := c.client.AnalyticsDegreeCtx(ctx, last/3, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(dd.Partial) != 1 || dd.Partial[0].Partition != 2 {
		t.Fatalf("degree with partition 2 down: partial = %+v", dd.Partial)
	}
	if _, err := c.client.AnalyticsPageRankCtx(ctx, wire.PageRankRequest{T: int64(last / 3), Iterations: 3}); err == nil {
		t.Fatal("pagerank with a partition down must fail, not answer partially")
	}

	// Restart it on the same URL and wait for routing to recover.
	c.restart(t, 2)
	deadline := time.Now().Add(10 * time.Second)
	for {
		dd, err := c.client.AnalyticsDegreeCtx(ctx, last/3, "")
		if err == nil && len(dd.Partial) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster did not recover after restart: %+v err=%v", dd, err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Post-restart cache states differ between the deployments (the
	// restarted worker is cold, the oracle is not), so compare the steady
	// state: the second response on each side is fully cached and must be
	// byte-identical.
	for _, q := range []string{
		fmt.Sprintf("/analytics/degree?t=%d", last/3),
		fmt.Sprintf("/analytics/components?t=%d", last/3),
		fmt.Sprintf("/analytics/evolution?t1=%d&t2=%d", last/3, last*2/3),
	} {
		rawGET(t, ourl+q)
		rawGET(t, frontURL+q)
		compare(q)
	}
	after, err := c.client.AnalyticsPageRankCtx(ctx, preq)
	if err != nil {
		t.Fatal(err)
	}
	comparePageRank(t, after, want)
}

// TestAnalyticsMidJobWorkerKill: a worker that dies mid-job (supersteps
// failing after prepare and start succeeded) must surface as a prompt
// error on the synchronous path and a "failed" job on the asynchronous
// one — never a hung client.
func TestAnalyticsMidJobWorkerKill(t *testing.T) {
	events := testEvents()
	c := newSwapCluster(t, events, 2, Config{PartitionTimeout: 2 * time.Second})
	last := events[len(events)-1].At

	// Partition 0 answers everything except supersteps: prepare and start
	// succeed, the first /analytics/prstep leg fails.
	wk := c.workers[0]
	live := wk.live
	wk.handler.Store(http.Handler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/analytics/prstep" {
			http.Error(w, "worker crashed mid-superstep", http.StatusBadGateway)
			return
		}
		live.ServeHTTP(w, r)
	})))

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req := wire.PageRankRequest{T: int64(last / 2), Iterations: 5}
	if _, err := c.client.AnalyticsPageRankCtx(ctx, req); err == nil {
		t.Fatal("synchronous pagerank with a mid-job kill must fail")
	}
	if ctx.Err() != nil {
		t.Fatal("synchronous pagerank hung until the client deadline instead of failing fast")
	}

	job, err := c.client.AnalyticsPageRankJobCtx(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	st := pollJob(t, c.client, job.ID)
	if st.State != "failed" || st.Error == "" || st.Result != nil {
		t.Fatalf("job after mid-job kill = %+v, want failed with an error", st)
	}

	// The job machine holds the terminal state for polling clients.
	again, err := c.client.AnalyticsJobCtx(context.Background(), job.ID)
	if err != nil || again.State != "failed" {
		t.Fatalf("re-poll = %+v err=%v, want failed", again, err)
	}
	if _, err := c.client.AnalyticsJobCtx(context.Background(), "no-such-job"); err == nil {
		t.Fatal("unknown job ID must 404")
	}
}

func pollJob(t *testing.T, cl *server.Client, id string) *wire.JobStatus {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		st, err := cl.AnalyticsJobCtx(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != "running" {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still running after 15s", id)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func comparePageRank(t *testing.T, got, want *wire.PageRankResult) {
	t.Helper()
	if got.At != want.At || got.NumNodes != want.NumNodes ||
		got.Damping != want.Damping || got.Iterations != want.Iterations {
		t.Fatalf("pagerank header: got %+v, want %+v", got, want)
	}
	if len(got.Top) != len(want.Top) {
		t.Fatalf("pagerank ranked %d nodes, want %d", len(got.Top), len(want.Top))
	}
	ref := make(map[int64]float64, len(want.Top))
	for _, e := range want.Top {
		ref[e.Node] = e.Score
	}
	for _, e := range got.Top {
		w, ok := ref[e.Node]
		if !ok {
			t.Fatalf("node %d ranked by the cluster, absent from the oracle", e.Node)
		}
		if diff := math.Abs(e.Score - w); diff > 1e-9*math.Max(math.Abs(w), 1) {
			t.Fatalf("node %d: score %.15g, want %.15g (diff %g)", e.Node, e.Score, w, diff)
		}
	}
}
