package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"historygraph"
	"historygraph/internal/server"
	"historygraph/internal/wire"
)

// request runs one HTTP request and returns status and body; a transport
// failure comes back as status 0 with the error as the body, so it is safe
// to call off the test goroutine.
func request(method, url, body string) (int, []byte) {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		return 0, []byte(err.Error())
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, []byte(err.Error())
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, []byte(err.Error())
	}
	return resp.StatusCode, out
}

// slowLog captures the process log, where a coordinator built with a
// 1 ns SlowQueryThreshold writes every request's Annotate values.
type slowLog struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *slowLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

// take returns what was logged since the last take.
func (l *slowLog) take() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.buf.String()
	l.buf.Reset()
	return s
}

// readEndpoint is one coordinator read endpoint as the core test drives
// it: the request for a timepoint, and which of the core's steps apply.
type readEndpoint struct {
	name   string
	method string
	path   func(t historygraph.Time) string
	body   func(t historygraph.Time) string // POST body; nil for GET
	// cached: the endpoint goes through the merged-response cache (and
	// counts its fan-outs); /interval and /expr do neither.
	cached bool
	// coalesced: concurrent identical requests share one fan-out.
	coalesced bool
	// marked: a cache hit answers with "cached":true.
	marked bool
}

var readEndpoints = []readEndpoint{
	{name: "snapshot", cached: true, coalesced: true, marked: true,
		path: func(t historygraph.Time) string { return fmt.Sprintf("/snapshot?t=%d&full=1", t) }},
	{name: "neighbors", cached: true, coalesced: true, marked: true,
		path: func(t historygraph.Time) string { return fmt.Sprintf("/neighbors?t=%d&node=17", t) }},
	{name: "batch", cached: true,
		path: func(t historygraph.Time) string { return fmt.Sprintf("/batch?t=%d,%d", t-1, t) }},
	{name: "degree", cached: true, coalesced: true, marked: true,
		path: func(t historygraph.Time) string { return fmt.Sprintf("/analytics/degree?t=%d", t) }},
	{name: "components", cached: true, coalesced: true, marked: true,
		path: func(t historygraph.Time) string { return fmt.Sprintf("/analytics/components?t=%d", t) }},
	{name: "evolution", cached: true, coalesced: true, marked: true,
		path: func(t historygraph.Time) string { return fmt.Sprintf("/analytics/evolution?t1=%d&t2=%d", t/2, t) }},
	{name: "interval",
		path: func(t historygraph.Time) string { return fmt.Sprintf("/interval?from=%d&to=%d", t/2, t) }},
	{name: "expr", method: http.MethodPost,
		path: func(historygraph.Time) string { return "/expr" },
		body: func(t historygraph.Time) string { return fmt.Sprintf(`{"times":[%d],"expr":"0"}`, t) }},
}

// partialOf returns the response's partial list (a batch's first
// snapshot's).
func partialOf(t *testing.T, body []byte) []json.RawMessage {
	t.Helper()
	if len(body) > 0 && body[0] == '[' {
		var batch []json.RawMessage
		if err := json.Unmarshal(body, &batch); err != nil || len(batch) == 0 {
			t.Fatalf("batch body %.200s: %v", body, err)
		}
		body = batch[0]
	}
	var shape struct {
		Partial []json.RawMessage `json:"partial"`
	}
	if err := json.Unmarshal(body, &shape); err != nil {
		t.Fatalf("body %.200s: %v", body, err)
	}
	return shape.Partial
}

// TestCoordinatorReadCore drives the one coordinator read path through
// every endpoint that is built on it, asserting the same five observable
// steps for each: a miss fans out once; the second request fans out and
// admits, and the third is a merged-response hit with no fan-out and no
// encode; concurrent identical requests coalesce
// onto one fan-out; one dead partition yields a partial answer that is not
// cached; every partition dead yields the all-failed error. /interval and
// /expr share the scatter→merge half only, so the cache steps are asserted
// absent for them.
func TestCoordinatorReadCore(t *testing.T) {
	sink := &slowLog{}
	log.SetOutput(sink)
	defer log.SetOutput(os.Stderr)
	events := testEvents()
	_, last := events.Span()

	for _, ep := range readEndpoints {
		t.Run(ep.name, func(t *testing.T) {
			c := newSwapCluster(t, events, 2, Config{PartitionTimeout: 5 * time.Second, SlowQueryThreshold: time.Nanosecond})
			base := c.client.BaseURL()
			method := ep.method
			if method == "" {
				method = http.MethodGet
			}
			get := func(tp historygraph.Time) (int, []byte) {
				body := ""
				if ep.body != nil {
					body = ep.body(tp)
				}
				return request(method, base+ep.path(tp), body)
			}
			mustGet := func(step string, tp historygraph.Time) []byte {
				t.Helper()
				status, body := get(tp)
				if status != http.StatusOK {
					t.Fatalf("%s: HTTP %d: %s", step, status, body)
				}
				return body
			}
			annotated := func(step, want string) {
				t.Helper()
				got := sink.take()
				if want == "" && strings.Contains(got, "cache=") {
					t.Fatalf("%s: an uncached endpoint annotated a cache verdict: %s", step, got)
				}
				if !strings.Contains(got, want) {
					t.Fatalf("%s: slow-query line lacks %q: %s", step, want, got)
				}
			}
			counted := func(n int64) int64 { // fan-outs an endpoint that counts them would have run
				if ep.cached {
					return n
				}
				return 0
			}
			sink.take()

			// 1. A miss fans out once.
			t1 := last / 2
			first := mustGet("miss", t1)
			if got := c.co.Fanouts(); got != counted(1) {
				t.Fatalf("miss: %d fan-outs, want %d", got, counted(1))
			}
			if len(partialOf(t, first)) != 0 {
				t.Fatalf("miss on a healthy cluster reports partial: %.300s", first)
			}
			if ep.cached {
				annotated("miss", "cache=miss")
			} else {
				annotated("miss", "")
			}

			// 2. The first request is not admitted, so the second fans out
			// again and admits; the third is a merged-response hit: no
			// fan-out, no encode.
			admitted := first
			if ep.cached {
				admitted = mustGet("admit", t1)
				annotated("admit", "cache=miss")
				if got := c.co.Fanouts(); got != 2 {
					t.Fatalf("admit: %d fan-outs, want 2", got)
				}
			}
			encodes := c.co.Encodes()
			again := mustGet("repeat", t1)
			switch {
			case !ep.cached:
				annotated("repeat", "")
				if !bytes.Equal(again, first) {
					t.Fatalf("repeat diverged:\n%.300s\n%.300s", again, first)
				}
			default:
				annotated("repeat", "cache=merged-hit")
				if c.co.Fanouts() != 2 || c.co.Encodes() != encodes {
					t.Fatalf("repeat did work: fan-outs %d (want 2), encodes %d -> %d", c.co.Fanouts(), encodes, c.co.Encodes())
				}
				// An unmarked hit replays the admitted bytes, which carry the
				// workers' view-cache verdicts of the admitting request.
				if ep.marked && !bytes.Contains(again, []byte(`"cached":true`)) {
					t.Fatalf("repeat not marked cached: %.300s", again)
				}
				if !ep.marked && !bytes.Equal(again, admitted) {
					t.Fatalf("unmarked hit is not the admitted bytes:\n%.300s\n%.300s", again, admitted)
				}
			}

			// 3. Concurrent identical requests coalesce onto one fan-out:
			// partition 0 holds its answer until the other fifteen are
			// waiting on the leader's flight.
			before := c.co.Fanouts()
			if ep.coalesced {
				const n = 16
				t2 := last/2 + 1
				release := make(chan struct{})
				wk := c.workers[0]
				wk.handler.Store(http.Handler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					<-release
					wk.live.ServeHTTP(w, r)
				})))
				waiting := c.co.flights.Hits.Value()
				var wg sync.WaitGroup
				failed := make(chan string, n)
				for i := 0; i < n; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if status, body := get(t2); status != http.StatusOK {
							failed <- fmt.Sprintf("HTTP %d: %s", status, body)
						}
					}()
				}
				for deadline := time.Now().Add(4 * time.Second); c.co.flights.Hits.Value()-waiting < n-1; {
					if time.Now().After(deadline) {
						t.Fatalf("only %d of %d requests joined the flight", c.co.flights.Hits.Value()-waiting, n-1)
					}
					time.Sleep(time.Millisecond)
				}
				close(release)
				wg.Wait()
				wk.handler.Store(wk.live)
				close(failed)
				for msg := range failed {
					t.Fatalf("concurrent request failed: %s", msg)
				}
				if got := c.co.Fanouts() - before; got != 1 {
					t.Fatalf("%d concurrent identical requests ran %d fan-outs, want 1", n, got)
				}
				if got := strings.Count(sink.take(), "cache=coalesced"); got != n-1 {
					t.Fatalf("%d requests were annotated coalesced, want %d", got, n-1)
				}
				before++
			}

			// 4. One dead partition: a partial answer, counted, not cached.
			c.kill(1)
			t3 := last/2 + 2
			partial := mustGet("partial", t3)
			if got := partialOf(t, partial); len(got) != 1 || !bytes.Contains(got[0], []byte(`"partition":1`)) {
				t.Fatalf("partial list %s, want exactly partition 1", got)
			}
			if bytes.Contains(partial, []byte(`"cached":true`)) {
				t.Fatalf("partial response claims a cache hit: %.300s", partial)
			}
			if got := c.co.partials.Value(); got != 1 {
				t.Fatalf("partial_responses = %d, want 1", got)
			}
			mustGet("partial repeat", t3)
			if got := c.co.Fanouts() - before; got != counted(2) {
				t.Fatalf("partial answer was retained: %d fan-outs for two requests, want %d", got, counted(2))
			}
			if ep.cached {
				annotated("partial repeat", "cache=miss")
			}

			// 5. Every partition dead: the all-failed error, as a gateway
			// fault, naming the first partition.
			c.kill(0)
			status, body := get(last/2 + 3)
			if status != http.StatusBadGateway || !bytes.Contains(body, []byte("shard: all 2 partitions failed (partition 0:")) {
				t.Fatalf("all dead: HTTP %d %s", status, body)
			}
			if got := c.co.partials.Value(); got != 2 {
				t.Fatalf("partial_responses = %d after a total failure, want 2 (total failures are not partial)", got)
			}
		})
	}
}

// TestOversizedMergedBodyNotRetained: a merged whole-message body over
// wire.MaxCachedBody is served correctly but not admitted into the
// entry-counted merged-response cache — the cap the stream path and the
// workers already applied.
func TestOversizedMergedBodyNotRetained(t *testing.T) {
	const nodes, valueBytes = 36, 256 << 10 // ~9 MiB of attribute values
	var events historygraph.EventList
	for i := 0; i < nodes; i++ {
		events = append(events, historygraph.Event{Type: historygraph.AddNode, At: 1, Node: historygraph.NodeID(i + 1)})
	}
	for i := 0; i < nodes; i++ {
		events = append(events, historygraph.Event{Type: historygraph.SetNodeAttr, At: 2, Node: historygraph.NodeID(i + 1), Attr: "blob",
			New: strings.Repeat(string(rune('a'+i%26)), valueBytes), HasNew: true})
	}
	c := newCluster(t, events, 2, Config{})
	url := c.client.BaseURL() + "/snapshot?t=2&full=1&attrs=%2Bnode:all"

	for round := int64(1); round <= 2; round++ {
		body := rawGET(t, url)
		var snap struct {
			NumNodes int `json:"num_nodes"`
			Nodes    []struct {
				ID    int64             `json:"id"`
				Attrs map[string]string `json:"attrs"`
			} `json:"nodes"`
		}
		if err := json.Unmarshal(body, &snap); err != nil {
			t.Fatal(err)
		}
		if len(body) <= 8<<20 || snap.NumNodes != nodes || len(snap.Nodes) != nodes {
			t.Fatalf("round %d: %d-byte body with %d/%d nodes, want > 8 MiB and %d", round, len(body), snap.NumNodes, len(snap.Nodes), nodes)
		}
		for i, n := range snap.Nodes {
			if n.ID != int64(i+1) || len(n.Attrs["blob"]) != valueBytes {
				t.Fatalf("round %d: node %d came back as id %d with a %d-byte blob", round, i+1, n.ID, len(n.Attrs["blob"]))
			}
		}
		if got := c.co.Fanouts(); got != round {
			t.Fatalf("round %d: %d fan-outs — the oversized body was served from the merged cache", round, got)
		}
		if got := c.co.cache.Len(); got != 0 {
			t.Fatalf("round %d: merged cache retains %d entries", round, got)
		}
	}
}

// TestMergedLevelKeepsTheOnlyCopy: while the coordinator's merged level is
// on, its /snapshot legs, whole-message and streamed, are sent no-store,
// so each leg costs its worker one encode and no worker holds an encoded
// body; the third request for a time is a merged hit with no fan-out. With
// the merged level off the workers' encoded level is the only one on the
// path: it admits on the second request, and the third costs the workers
// no encode.
func TestMergedLevelKeepsTheOnlyCopy(t *testing.T) {
	events := testEvents()
	_, last := events.Span()
	const k = 4
	snapshot := func(c *cluster, tp historygraph.Time, accept string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/snapshot?t=%d&full=1", c.client.BaseURL(), tp), nil)
		req.Header.Set("Accept", accept)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("t=%d %s: HTTP %d: %.200s", tp, accept, resp.StatusCode, body)
		}
	}
	workerEncodes := func(c *cluster) (n int64) {
		for _, s := range c.services {
			n += s.Encodes()
		}
		return n
	}
	workerEntries := func(c *cluster) (n int) {
		for _, hs := range c.httpSrvs {
			st, err := server.NewClient(hs.URL).Stats()
			if err != nil {
				t.Fatal(err)
			}
			n += st.Server.EncodedSize
		}
		return n
	}
	kinds := []string{wire.ContentTypeBinary, wire.ContentTypeBinaryStream}
	at := func(n int) historygraph.Time { return last * historygraph.Time(n) / (2*k + 1) }

	c := newCluster(t, events, 2, Config{})
	for i, accept := range kinds {
		for j := 0; j < k; j++ {
			before := workerEncodes(c)
			snapshot(c, at(i*k+j+1), accept)
			if d := workerEncodes(c) - before; d != int64(len(c.services)) {
				t.Fatalf("%s read %d: workers ran %d encodes for %d legs", accept, j, d, len(c.services))
			}
		}
		if n := workerEntries(c); n != 0 {
			t.Fatalf("%s: workers hold %d encoded bodies behind a merged level", accept, n)
		}
		snapshot(c, at(i*k+1), accept) // the second request admits
		fanouts, encodes := c.co.Fanouts(), workerEncodes(c)
		snapshot(c, at(i*k+1), accept)
		if c.co.Fanouts() != fanouts || workerEncodes(c) != encodes {
			t.Fatalf("%s repeat: fan-outs %d -> %d, worker encodes %d -> %d", accept, fanouts, c.co.Fanouts(), encodes, workerEncodes(c))
		}
	}

	c = newCluster(t, events, 2, Config{CacheSize: -1})
	for _, accept := range kinds {
		snapshot(c, last/2, accept)
		snapshot(c, last/2, accept)
		encodes := workerEncodes(c)
		snapshot(c, last/2, accept)
		if workerEncodes(c) != encodes {
			t.Fatalf("%s repeat with the merged level off: worker encodes %d -> %d", accept, encodes, workerEncodes(c))
		}
	}
	if n := workerEntries(c); n != 2*len(c.services) {
		t.Fatalf("workers hold %d encoded bodies with the merged level off, want %d", n, 2*len(c.services))
	}
}

// TestOneShotReadsHoldNoBodies: a scan that asks each timepoint once — the
// shape of the repository benchmark's serve-mixed warm-up — leaves the
// merged level empty, each read counted as refused, and costs one encode a
// read (no hit form for a body that is not kept). Reading the scan again
// admits it, up to the level's capacity.
func TestOneShotReadsHoldNoBodies(t *testing.T) {
	events := testEvents()
	_, last := events.Span()
	const n, capacity = 8, 4
	c := newCluster(t, events, 2, Config{CacheSize: capacity})
	scan := func() {
		for i := 1; i <= n; i++ {
			rawGET(t, fmt.Sprintf("%s/snapshot?t=%d", c.client.BaseURL(), last*historygraph.Time(i)/(n+1)))
		}
	}
	scan()
	if got := c.co.cache.Len(); got != 0 {
		t.Fatalf("a one-shot scan of %d times left %d merged bodies, want 0", n, got)
	}
	if got := c.co.Encodes(); got != n {
		t.Fatalf("a one-shot scan of %d times ran %d encodes, want %d", n, got, n)
	}
	co := scrape(t, c.client.BaseURL())
	if refused, _ := sampleValue(co, "dg_cache_refused_total", map[string]string{"cache": "merged"}); refused != n {
		t.Fatalf(`dg_cache_refused_total{cache="merged"} = %v, want %d`, refused, n)
	}

	// The level remembers only the last capacity keys that missed, so a
	// second pass over twice that many finds each key forgotten: what it
	// would evict before reuse it does not admit.
	scan()
	if got := c.co.cache.Len(); got != 0 {
		t.Fatalf("a second scan wider than the level admitted %d bodies, want 0", got)
	}
	for i := 0; i < 2; i++ {
		rawGET(t, fmt.Sprintf("%s/snapshot?t=%d", c.client.BaseURL(), last/2))
	}
	if got := c.co.cache.Len(); got != 1 {
		t.Fatalf("a time read twice in a row left %d merged bodies, want 1", got)
	}
}

// TestMalformedAttrsIs400Everywhere: a malformed attribute spec is the
// client's error on every read endpoint of a worker and of a coordinator,
// whatever the retrieval underneath would have made of it.
func TestMalformedAttrsIs400Everywhere(t *testing.T) {
	c := newCluster(t, testEvents(), 2, Config{})
	const bad = "node:all" // no leading sign
	for _, ep := range []struct{ method, path, body string }{
		{http.MethodGet, "/snapshot?t=5&attrs=" + bad, ""},
		{http.MethodGet, "/snapshot?t=5&full=1&attrs=" + bad, ""},
		{http.MethodGet, "/neighbors?t=5&node=1&attrs=" + bad, ""},
		{http.MethodGet, "/batch?t=4,5&attrs=" + bad, ""},
		{http.MethodGet, "/interval?from=1&to=5&attrs=" + bad, ""},
		{http.MethodGet, "/analytics/degree?t=5&attrs=" + bad, ""},
		{http.MethodGet, "/analytics/components?t=5&attrs=" + bad, ""},
		{http.MethodGet, "/analytics/evolution?t1=1&t2=5&attrs=" + bad, ""},
		{http.MethodPost, "/expr", `{"times":[5],"expr":"0","attrs":"` + bad + `"}`},
		{http.MethodPost, "/analytics/pagerank", `{"t":5,"wait":true,"attrs":"` + bad + `"}`},
	} {
		for role, base := range map[string]string{"worker": c.httpSrvs[0].URL, "coordinator": c.client.BaseURL()} {
			status, body := request(ep.method, base+ep.path, ep.body)
			if status != http.StatusBadRequest || !bytes.Contains(body, []byte("attr_options")) {
				t.Errorf("%s %s %s: HTTP %d %s, want 400 naming attr_options", role, ep.method, ep.path, status, body)
			}
		}
	}
	if got := c.co.Fanouts(); got != 0 {
		t.Errorf("a malformed request fanned out %d times", got)
	}
}
