package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
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
// 4-partition cluster answers every /analytics endpoint byte-identically
// to the unsharded server over the same trace — fresh, from cache, and
// again after a worker is killed and restarted. PageRank's body is
// compared whole, synchronous and as a job's result: its sums are
// order-free, so the partitioning does not reach the bits.
func TestShardedAnalyticsMatchesUnsharded(t *testing.T) {
	events := testEvents()
	gm, _, ourl := oracle(t, events)
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

	// PageRank: every node ranked (TopK beyond the node count), the whole
	// body compared byte for byte.
	preq := wire.PageRankRequest{T: int64(last / 2), Iterations: 15, TopK: 1 << 20}
	want := comparePageRank(t, ourl, frontURL, preq)
	var res wire.PageRankResult
	if err := json.Unmarshal(want, &res); err != nil {
		t.Fatal(err)
	}
	if res.Supersteps != preq.Iterations+1 || len(res.Top) == 0 {
		t.Fatalf("Supersteps = %d over %d ranks, want %d over every node", res.Supersteps, len(res.Top), preq.Iterations+1)
	}

	// The same job asynchronously: submit, poll to done, same result.
	job, err := c.client.AnalyticsPageRankJobCtx(ctx, preq)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != "running" || job.ID == "" {
		t.Fatalf("submitted job = %+v, want running with an ID", job)
	}
	st, result := pollJob(t, frontURL, job.ID)
	if st.State != "done" || st.Result == nil {
		t.Fatalf("job ended %q (error %q), want done with a result", st.State, st.Error)
	}
	if !bytes.Equal(result, bytes.TrimSpace(want)) {
		t.Fatalf("the job's result diverges from the unsharded body:\n got: %s\nwant: %s", result, want)
	}

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
	comparePageRank(t, ourl, frontURL, preq)
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
	front := c.client.BaseURL()
	st, _ := pollJob(t, front, job.ID)
	if st.State != "failed" || st.Error == "" || st.Result != nil {
		t.Fatalf("job after mid-job kill = %+v, want failed with an error", st)
	}

	// The job machine holds the terminal state for polling clients.
	if code, again, _ := getJob(t, front, job.ID); code != http.StatusOK || again.State != "failed" {
		t.Fatalf("re-poll = HTTP %d %+v, want failed", code, again)
	}
	if code, _, _ := getJob(t, front, "no-such-job"); code != http.StatusNotFound {
		t.Fatalf("unknown job ID: HTTP %d, want 404", code)
	}
}

// getJob fetches GET /analytics/jobs/{id}: the HTTP status, the status
// decoded, and the result's JSON as the coordinator wrote it.
func getJob(t *testing.T, base, id string) (int, wire.JobStatus, json.RawMessage) {
	t.Helper()
	resp, err := http.Get(base + "/analytics/jobs/" + url.PathEscape(id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var st wire.JobStatus
	var raw struct {
		Result json.RawMessage `json:"result"`
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(body, &raw); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, st, raw.Result
}

func pollJob(t *testing.T, base, id string) (wire.JobStatus, json.RawMessage) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		code, st, result := getJob(t, base, id)
		if code != http.StatusOK {
			t.Fatalf("poll job %s: HTTP %d", id, code)
		}
		if st.State != "running" {
			return st, result
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still running after 15s", id)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// comparePageRank posts req (synchronous) to the oracle and the cluster
// and requires the same body, byte for byte; it returns the oracle's.
func comparePageRank(t *testing.T, oracleURL, clusterURL string, req wire.PageRankRequest) []byte {
	t.Helper()
	req.Wait = true
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	post := func(base string) []byte {
		resp, err := http.Post(base+"/analytics/pagerank", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s/analytics/pagerank: HTTP %d: %s", base, resp.StatusCode, out)
		}
		return out
	}
	want, got := post(oracleURL), post(clusterURL)
	if !bytes.Equal(got, want) {
		t.Fatalf("sharded pagerank %+v diverges from unsharded:\n got: %s\nwant: %s", req, got, want)
	}
	return want
}

// TestPageRankRequestBoundsSharded: a coordinator refuses the same
// out-of-range PageRank bodies an unsharded server does, before any leg
// runs — iterations at math.MaxInt would otherwise overflow the superstep
// count — and answers loadgen's request and a TopK above the node count
// as the unsharded oracle does.
func TestPageRankRequestBoundsSharded(t *testing.T) {
	events := testEvents()
	gm, _, ourl := oracle(t, events)
	c := newSwapCluster(t, events, 2, Config{})
	mid := int64(gm.LastTime() / 2)
	ctx := context.Background()

	for _, req := range []wire.PageRankRequest{
		{T: mid, Damping: 7},
		{T: mid, Damping: -3},
		{T: mid, Iterations: math.MaxInt},
		{T: mid, Iterations: server.MaxPageRankIterations + 1},
	} {
		_, err := c.client.AnalyticsPageRankCtx(ctx, req)
		var he *server.HTTPError
		if !errors.As(err, &he) || he.Status != http.StatusBadRequest {
			t.Errorf("%+v: got %v, want a 400", req, err)
		}
	}
	for _, req := range []wire.PageRankRequest{
		{T: mid, Iterations: 5, TopK: 10},
		{T: mid, Iterations: 5, TopK: 1 << 62},
	} {
		comparePageRank(t, ourl, c.client.BaseURL(), req)
	}
}
