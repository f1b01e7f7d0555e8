package shard

// End-to-end observability coverage: a real cluster is scraped over HTTP
// and the exposition must both satisfy the strict linter and show the
// series an operator's dashboards are built on actually moving — fan-out
// counts, cache hits per level, per-leg latency histograms, member
// routing gauges. A client abandoning a merged snapshot stream must
// surface as leg cancellations, not leg failures.

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"historygraph/internal/metrics"
	"historygraph/internal/server"
	"historygraph/internal/wire"
)

// scrape GETs url's /metrics, lints the body, and returns the samples.
func scrape(t *testing.T, baseURL string) []metrics.Sample {
	t.Helper()
	body := string(rawGET(t, baseURL+"/metrics"))
	if err := metrics.Lint(body); err != nil {
		t.Fatalf("exposition from %s does not lint: %v", baseURL, err)
	}
	samples, err := metrics.Parse(body)
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

// sampleValue returns the value of the first sample matching name and the
// given label subset, and whether one exists.
func sampleValue(samples []metrics.Sample, name string, labels map[string]string) (float64, bool) {
	for _, s := range samples {
		if s.Name != name {
			continue
		}
		match := true
		for k, v := range labels {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return s.Value, true
		}
	}
	return 0, false
}

// TestClusterMetricsExposition: scrape a live 2-partition cluster and
// assert the tentpole series exist and move — coordinator fan-outs and
// per-leg activity after a query, a refused first request and a
// merged-cache hit after two repeats, and
// worker-side request and view-cache series after the legs land.
func TestClusterMetricsExposition(t *testing.T) {
	events := testEvents()
	c := newCluster(t, events, 2, Config{})
	front := httptest.NewServer(c.co.Handler())
	t.Cleanup(front.Close)
	mid := events[len(events)-1].At / 2

	for range 3 { // refused, admitted, hit
		if _, err := c.client.Snapshot(mid, "+node:all", true); err != nil {
			t.Fatal(err)
		}
	}

	// Analytics traffic: a repeated degree scan (the coordinator's merged
	// level answers the repeat) and one short PageRank job.
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := c.client.AnalyticsDegreeCtx(ctx, mid, ""); err != nil {
			t.Fatal(err)
		}
	}
	const prIters = 3
	if _, err := c.client.AnalyticsPageRankCtx(ctx, wire.PageRankRequest{T: int64(mid), Iterations: prIters}); err != nil {
		t.Fatal(err)
	}

	co := scrape(t, front.URL)
	fanouts, ok := sampleValue(co, "dg_shard_fanouts_total", nil)
	if !ok || fanouts < 1 {
		t.Fatalf("dg_shard_fanouts_total = %v, %v; want >= 1", fanouts, ok)
	}
	mergedHits, ok := sampleValue(co, "dg_cache_hits_total", map[string]string{"cache": "merged"})
	if !ok || mergedHits < 1 {
		t.Fatalf(`dg_cache_hits_total{cache="merged"} = %v, %v; want >= 1 (repeat query missed the merged cache)`, mergedHits, ok)
	}
	if refused, ok := sampleValue(co, "dg_cache_refused_total", map[string]string{"cache": "merged"}); !ok || refused < 1 {
		t.Fatalf(`dg_cache_refused_total{cache="merged"} = %v, %v; want >= 1 (the first query was admitted)`, refused, ok)
	}
	for part := 0; part < 2; part++ {
		p := strconv.Itoa(part)
		if legs, ok := sampleValue(co, "dg_shard_legs_total", map[string]string{"partition": p}); !ok || legs < 1 {
			t.Fatalf("dg_shard_legs_total{partition=%q} = %v, %v; want >= 1", p, legs, ok)
		}
		if n, ok := sampleValue(co, "dg_shard_leg_duration_seconds_count", map[string]string{"partition": p}); !ok || n < 1 {
			t.Fatalf("dg_shard_leg_duration_seconds_count{partition=%q} = %v, %v; want >= 1", p, n, ok)
		}
		if _, ok := sampleValue(co, "dg_shard_member_healthy", map[string]string{"partition": p}); !ok {
			t.Fatalf("dg_shard_member_healthy{partition=%q} missing", p)
		}
		if _, ok := sampleValue(co, "dg_shard_member_latency_seconds", map[string]string{"partition": p}); !ok {
			t.Fatalf("dg_shard_member_latency_seconds{partition=%q} missing", p)
		}
	}
	if n, ok := sampleValue(co, "dg_http_requests_total", map[string]string{"endpoint": "/snapshot", "code": "2xx"}); !ok || n < 2 {
		t.Fatalf(`coordinator dg_http_requests_total{endpoint="/snapshot",code="2xx"} = %v, %v; want >= 2`, n, ok)
	}

	// Analytics plane on the coordinator: per-kind job counters and
	// duration histograms, and one superstep per PageRank round.
	for _, kind := range []string{"degree", "pagerank"} {
		if n, ok := sampleValue(co, "dg_analytics_jobs_total", map[string]string{"kind": kind, "status": "ok"}); !ok || n < 1 {
			t.Fatalf(`dg_analytics_jobs_total{kind=%q,status="ok"} = %v, %v; want >= 1`, kind, n, ok)
		}
		if n, ok := sampleValue(co, "dg_analytics_duration_seconds_count", map[string]string{"kind": kind}); !ok || n < 1 {
			t.Fatalf("dg_analytics_duration_seconds_count{kind=%q} = %v, %v; want >= 1", kind, n, ok)
		}
	}
	if n, ok := sampleValue(co, "dg_analytics_supersteps_total", nil); !ok || n < prIters+1 {
		t.Fatalf("dg_analytics_supersteps_total = %v, %v; want >= %d", n, ok, prIters+1)
	}

	// The workers answered one leg each; their own planes must show it.
	for part, hs := range c.httpSrvs {
		w := scrape(t, hs.URL)
		if n, ok := sampleValue(w, "dg_http_requests_total", map[string]string{"endpoint": "/snapshot", "code": "2xx"}); !ok || n < 1 {
			t.Fatalf(`worker %d dg_http_requests_total{endpoint="/snapshot",code="2xx"} = %v, %v; want >= 1`, part, n, ok)
		}
		if n, ok := sampleValue(w, "dg_http_request_duration_seconds_count", map[string]string{"endpoint": "/snapshot"}); !ok || n < 1 {
			t.Fatalf("worker %d request-duration histogram empty (%v, %v)", part, n, ok)
		}
		misses, ok := sampleValue(w, "dg_cache_misses_total", map[string]string{"cache": "view"})
		if !ok || misses < 1 {
			t.Fatalf(`worker %d dg_cache_misses_total{cache="view"} = %v, %v; want >= 1`, part, misses, ok)
		}
		// A worker has three cache levels and exports no series for any
		// other: scans read through the view level.
		levels := map[string]bool{}
		for _, s := range w {
			if c, ok := s.Labels["cache"]; ok && strings.HasPrefix(s.Name, "dg_cache_") {
				levels[c] = true
			}
		}
		if want := map[string]bool{"view": true, "encoded": true, "flight": true}; !reflect.DeepEqual(levels, want) {
			t.Fatalf("worker %d cache levels %v, want %v", part, levels, want)
		}
		if n, ok := sampleValue(w, "dg_analytics_jobs_total", map[string]string{"kind": "degree", "status": "ok"}); !ok || n < 1 {
			t.Fatalf(`worker %d dg_analytics_jobs_total{kind="degree",status="ok"} = %v, %v; want >= 1`, part, n, ok)
		}
	}
}

// TestRequestIDThreading: a request ID supplied by the client comes back
// on the coordinator's response, and a minted one appears when the client
// sends none.
func TestRequestIDThreading(t *testing.T) {
	events := testEvents()
	c := newCluster(t, events, 2, Config{})
	front := httptest.NewServer(c.co.Handler())
	t.Cleanup(front.Close)
	url := front.URL + "/stats"

	req, _ := http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set(server.RequestIDHeader, "trace-me-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(server.RequestIDHeader); got != "trace-me-42" {
		t.Fatalf("supplied request ID not echoed: got %q", got)
	}

	resp, err = http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(server.RequestIDHeader); got == "" {
		t.Fatal("no request ID minted for a bare request")
	}
}

// slowFlushWriter paces a worker's stream so the merged stream is still
// in flight when the test abandons it.
type slowFlushWriter struct {
	http.ResponseWriter
	delay time.Duration
}

func (sw *slowFlushWriter) Flush() {
	time.Sleep(sw.delay)
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// TestStreamClientCancelPropagates: a client that reads the beginning of
// a merged snapshot stream and walks away must cancel the coordinator's
// worker legs promptly — counted as leg cancellations, with no leg
// failures and no members marked unhealthy.
func TestStreamClientCancelPropagates(t *testing.T) {
	events := testEvents()
	var urls []string
	for _, slice := range PartitionEvents(events, 2) {
		gm := buildManager(t, slice)
		// Tiny runs plus a per-flush delay keep each worker stream alive
		// for seconds — far longer than the client will stay.
		svc := server.New(gm, server.Config{CacheSize: 32, StreamRun: 4})
		inner := svc.Handler()
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if wire.WantsStream(r.Header.Get("Accept")) {
				inner.ServeHTTP(&slowFlushWriter{ResponseWriter: w, delay: 20 * time.Millisecond}, r)
				return
			}
			inner.ServeHTTP(w, r)
		}))
		t.Cleanup(func() { hs.Close(); svc.Close() })
		urls = append(urls, hs.URL)
	}
	co, err := New(urls, Config{StreamRun: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Close)
	front := httptest.NewServer(co.Handler())
	t.Cleanup(front.Close)

	last := events[len(events)-1].At
	req, _ := http.NewRequest(http.MethodGet,
		front.URL+"/snapshot?t="+strconv.FormatInt(int64(last), 10)+"&full=1&attrs=%2Bnode:all", nil)
	req.Header.Set("Accept", wire.ContentTypeBinaryStream)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	// Read a little of the stream, then abandon it mid-delivery.
	if _, err := io.ReadFull(resp.Body, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	deadline := time.Now().Add(10 * time.Second)
	for co.legCancels.Total() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no leg cancellations recorded after client walked away (legs=%d fails=%d)",
				co.legs.Total(), co.legFails.Total())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if fails := co.legFails.Total(); fails != 0 {
		t.Fatalf("client cancellation charged as %d leg failure(s)", fails)
	}
	// The members served correctly and must not be penalized for the
	// client's disappearance.
	for p, rs := range co.rt().sets {
		for _, m := range rs.members {
			if !m.healthy.Load() {
				t.Fatalf("partition %d member %s marked unhealthy by a client cancel", p, m.url)
			}
		}
	}
}
