package shard

// Wire-codec coverage at the cluster level: scatter legs are binary and
// must be invisible in the external JSON bytes, a binary client must
// decode the same structs a JSON client does, and a merged-response cache
// hit must serve pre-encoded bytes with zero encode work.

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"historygraph"
	"historygraph/internal/server"
	"historygraph/internal/wire"
)

// TestShardedBinaryLegsMatchUnsharded re-runs the byte-identity oracle
// over the coordinator's binary scatter legs: the workers encode binary,
// the coordinator decodes and merges structs, and the external JSON answer
// must still be byte-identical to the unsharded server's.
func TestShardedBinaryLegsMatchUnsharded(t *testing.T) {
	events := testEvents()
	gm, oclient, ourl := oracle(t, events)
	c := newCluster(t, events, 4, Config{})
	last := gm.LastTime()

	frontURL := c.client.BaseURL()
	for _, tp := range []historygraph.Time{last / 4, last / 2, last} {
		// /snapshot is the byte-identity surface; /neighbors merges to a
		// sorted union, so it is compared as a set below.
		for _, query := range []string{
			fmt.Sprintf("/snapshot?t=%d&full=1", tp),
			fmt.Sprintf("/snapshot?t=%d&attrs=%%2Bnode:all%%2Bedge:all&full=1", tp),
			fmt.Sprintf("/snapshot?t=%d", tp),
		} {
			want := rawGET(t, ourl+query)
			got := rawGET(t, frontURL+query)
			if string(got) != string(want) {
				t.Fatalf("binary-leg cluster %s diverges from unsharded:\n got: %.400s\nwant: %.400s", query, got, want)
			}
		}
		wantN, err := oclient.Neighbors(tp, 7, "")
		if err != nil {
			t.Fatal(err)
		}
		gotN, err := c.client.Neighbors(tp, 7, "")
		if err != nil {
			t.Fatal(err)
		}
		if gotN.Degree != wantN.Degree || len(gotN.Neighbors) != len(wantN.Neighbors) {
			t.Fatalf("t=%d neighbors diverge: got %+v want %+v", tp, gotN, wantN)
		}
		wantSet := make(map[int64]bool, len(wantN.Neighbors))
		for _, n := range wantN.Neighbors {
			wantSet[n] = true
		}
		for _, n := range gotN.Neighbors {
			if !wantSet[n] {
				t.Fatalf("t=%d: merged neighbors contain %d, oracle does not", tp, n)
			}
		}
	}
}

// TestCoordinatorLegsAreBinary: a coordinator built with no options asks
// its workers for binary on every read leg and sends its append legs
// encoded in binary, whatever codec its own client spoke.
func TestCoordinatorLegsAreBinary(t *testing.T) {
	events := testEvents()
	var mu sync.Mutex
	seen := map[string][]string{} // worker path -> "Accept|Content-Type" of each leg
	var urls []string
	for _, slice := range PartitionEvents(events, 2) {
		svc := server.New(buildManager(t, slice), server.Config{})
		h := svc.Handler()
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			seen[r.URL.Path] = append(seen[r.URL.Path], r.Header.Get("Accept")+"|"+r.Header.Get("Content-Type"))
			mu.Unlock()
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(func() { hs.Close(); svc.Close() })
		urls = append(urls, hs.URL)
	}
	co, err := New(urls, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Close)
	front := httptest.NewServer(co.Handler())
	t.Cleanup(front.Close)

	cl := server.NewClient(front.URL) // a JSON client
	_, last := events.Span()
	if _, err := cl.Snapshot(last/2, "", true); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Neighbors(last/2, 7, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Snapshots([]historygraph.Time{last / 4, last / 2}, "", false); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Append(historygraph.EventList{{Type: historygraph.AddNode, At: last + 10, Node: 999999}}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for path, body := range map[string]string{"/snapshot": "", "/neighbors": "", "/batch": "", "/append": wire.ContentTypeBinary} {
		if len(seen[path]) == 0 {
			t.Errorf("no %s leg reached a worker", path)
		}
		for _, leg := range seen[path] {
			if want := wire.ContentTypeBinary + "|" + body; leg != want {
				t.Errorf("%s leg sent Accept|Content-Type %q, want %q", path, leg, want)
			}
		}
	}
}

// TestBinaryClientMatchesJSONClient asks the same coordinator the same
// question over both codecs: the decoded structs must be identical, and
// the binary body must actually be binary (and smaller on full
// responses).
func TestBinaryClientMatchesJSONClient(t *testing.T) {
	events := testEvents()
	c := newCluster(t, events, 4, Config{CacheSize: -1})
	last := c.workers[0].LastTime()
	for _, w := range c.workers {
		if w.LastTime() > last {
			last = w.LastTime()
		}
	}

	jsonClient := c.client
	binClient, err := server.NewClient(c.client.BaseURL()).SetWire("binary")
	if err != nil {
		t.Fatal(err)
	}

	jsnap, err := jsonClient.Snapshot(last/2, "", true)
	if err != nil {
		t.Fatal(err)
	}
	bsnap, err := binClient.Snapshot(last/2, "", true)
	if err != nil {
		t.Fatal(err)
	}
	if jsnap.NumNodes != bsnap.NumNodes || jsnap.NumEdges != bsnap.NumEdges ||
		len(jsnap.Nodes) != len(bsnap.Nodes) || len(jsnap.Edges) != len(bsnap.Edges) {
		t.Fatalf("binary client decoded a different snapshot: %+v vs %+v", bsnap, jsnap)
	}
	for i := range jsnap.Nodes {
		if jsnap.Nodes[i].ID != bsnap.Nodes[i].ID {
			t.Fatalf("node %d: id %d vs %d", i, bsnap.Nodes[i].ID, jsnap.Nodes[i].ID)
		}
		if len(jsnap.Nodes[i].Attrs) != len(bsnap.Nodes[i].Attrs) {
			t.Fatalf("node %d: attr count mismatch", i)
		}
	}

	// The raw binary response: right content type, smaller than JSON.
	req, _ := http.NewRequest(http.MethodGet, c.client.BaseURL()+fmt.Sprintf("/snapshot?t=%d&full=1", last/2), nil)
	req.Header.Set("Accept", wire.ContentTypeBinary)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	braw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != wire.ContentTypeBinary {
		t.Fatalf("binary Accept answered Content-Type %q", ct)
	}
	jraw := rawGET(t, c.client.BaseURL()+fmt.Sprintf("/snapshot?t=%d&full=1", last/2))
	if len(braw) >= len(jraw) {
		t.Errorf("binary body %d bytes, JSON %d bytes: expected smaller", len(braw), len(jraw))
	}

	// Batch and append over binary.
	ts := []historygraph.Time{last / 4, last / 2}
	jbatch, err := jsonClient.Snapshots(ts, "", false)
	if err != nil {
		t.Fatal(err)
	}
	bbatch, err := binClient.Snapshots(ts, "", false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jbatch {
		if jbatch[i].NumNodes != bbatch[i].NumNodes || jbatch[i].NumEdges != bbatch[i].NumEdges {
			t.Fatalf("batch[%d] mismatch: %+v vs %+v", i, bbatch[i], jbatch[i])
		}
	}
	res, err := binClient.Append(historygraph.EventList{
		{Type: historygraph.AddNode, At: last + 10, Node: 999999},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Appended != 1 {
		t.Fatalf("binary append: %+v", res)
	}
}

// TestCoordinatorCacheHitZeroEncode asserts the zero-re-encode guarantee:
// a merged-response cache hit writes stored bytes without running any
// encoder, for both codecs, and the hit bytes match the original answer
// with the cached flag on.
func TestCoordinatorCacheHitZeroEncode(t *testing.T) {
	events := testEvents()
	c := newCluster(t, events, 4, Config{})
	last := historygraph.Time(0)
	for _, w := range c.workers {
		if w.LastTime() > last {
			last = w.LastTime()
		}
	}
	url := c.client.BaseURL() + fmt.Sprintf("/snapshot?t=%d&full=1", last/2)

	rawGET(t, url) // first miss: fan-out + encode, nothing admitted
	if encodes := c.co.Encodes(); encodes != 1 {
		t.Fatalf("first miss ran %d encodes, want 1 (no hit form for a body not admitted)", encodes)
	}
	rawGET(t, url) // second miss: fan-out + encode + hit-form encode + insert
	fanouts, encodes := c.co.Fanouts(), c.co.Encodes()
	if encodes != 3 {
		t.Fatalf("an admitting miss brought encodes to %d, want 3", encodes)
	}
	hit := rawGET(t, url)
	if c.co.Fanouts() != fanouts {
		t.Fatalf("cache hit ran a fan-out (%d -> %d)", fanouts, c.co.Fanouts())
	}
	if c.co.Encodes() != encodes {
		t.Fatalf("cache hit ran an encode (%d -> %d)", encodes, c.co.Encodes())
	}
	var snap wire.Snapshot
	if err := (wire.JSON{}).Decode(hit, &snap); err != nil {
		t.Fatal(err)
	}
	if !snap.Cached {
		t.Fatalf("hit response not flagged cached: %.200s", hit)
	}

	// The binary variant is cached independently under its own key.
	get := func() []byte {
		req, _ := http.NewRequest(http.MethodGet, url, nil)
		req.Header.Set("Accept", wire.ContentTypeBinary)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return body
	}
	get() // binary misses: the second admits
	get()
	fanouts, encodes = c.co.Fanouts(), c.co.Encodes()
	bhit := get()
	if c.co.Fanouts() != fanouts || c.co.Encodes() != encodes {
		t.Fatalf("binary cache hit did work: fanouts %d->%d, encodes %d->%d",
			fanouts, c.co.Fanouts(), encodes, c.co.Encodes())
	}
	var bsnap wire.Snapshot
	if err := (wire.Binary{}).Decode(bhit, &bsnap); err != nil {
		t.Fatal(err)
	}
	if !bsnap.Cached || bsnap.NumNodes != snap.NumNodes {
		t.Fatalf("binary hit decoded wrong: %+v vs %+v", bsnap, snap)
	}
}

// TestEWMARoutesAroundSlowMember is the replica-aware routing check: with
// one member answering ~40ms slower than its peer, reads must
// overwhelmingly prefer the fast member once both EWMAs are established —
// with only the periodic probe ticks still sampling the slow one. Both
// member orders are exercised: the probe path must re-sample the demoted
// member wherever it sits in the rotation.
func TestEWMARoutesAroundSlowMember(t *testing.T) {
	for _, slowFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("slowFirst=%t", slowFirst), func(t *testing.T) {
			var fastN, slowN atomic.Int64
			stub := func(counter *atomic.Int64, delay time.Duration) *httptest.Server {
				hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					counter.Add(1)
					time.Sleep(delay)
					server.WriteJSON(w, http.StatusOK, wire.Snapshot{At: 1, NumNodes: 1})
				}))
				t.Cleanup(hs.Close)
				return hs
			}
			slow := stub(&slowN, 40*time.Millisecond) // above slowFloor, >> 2x fast
			fast := stub(&fastN, 0)
			urls := []string{slow.URL, fast.URL}
			if !slowFirst {
				urls = []string{fast.URL, slow.URL}
			}

			rs := newReplicaSet(urls, http.DefaultClient)
			ctx := t.Context()
			read := func() {
				t.Helper()
				_, err := readFrom(ctx, ctx, rs, func(cl *server.Client) (*wire.Snapshot, error) {
					return cl.SnapshotCtx(ctx, 1, "", false)
				})
				if err != nil {
					t.Fatal(err)
				}
			}

			// Sampling phase: rotation alternates until both members have
			// trusted EWMAs.
			for i := 0; i < 2*minLatencySamples; i++ {
				read()
			}
			slowBefore := slowN.Load()
			const reads = 40
			for i := 0; i < reads; i++ {
				read()
			}
			slowServed := slowN.Load() - slowBefore
			// 40 reads span two or three probe ticks (every 16th); anything
			// beyond a handful on the slow member means the EWMA is not
			// steering.
			if slowServed > reads/4 {
				t.Fatalf("slow member served %d of %d post-warm-up reads; EWMA routing not steering", slowServed, reads)
			}
			if slowServed == 0 {
				t.Fatalf("slow member never probed in %d reads; its EWMA could never recover", reads)
			}
			if fastN.Load() < int64(reads)-slowServed {
				t.Fatalf("fast member served too few reads: %d", fastN.Load())
			}
		})
	}
}
