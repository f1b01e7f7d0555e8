package shard

// Streaming coverage at the cluster level: the merged chunked stream
// must assemble to exactly what the unsharded oracle answers, a worker
// dying MID-stream must surface as a well-formed partial response (never
// a truncated merge), and stream bodies must hit the merged-response
// cache with zero fan-out.

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"historygraph"
	"historygraph/internal/server"
	"historygraph/internal/wire"
)

// TestShardedStreamMatchesUnsharded: a streamed snapshot through the
// 4-partition coordinator assembles to the same full snapshot the
// unsharded oracle serves (JSON whole-message), and to the oracle's own
// streamed answer.
func TestShardedStreamMatchesUnsharded(t *testing.T) {
	events := testEvents()
	gm, oclient, ourl := oracle(t, events)
	c := newCluster(t, events, 4, Config{})
	mid := gm.LastTime() / 2

	want, err := oclient.Snapshot(mid, "+node:all+edge:all", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.client.SetWire("stream"); err != nil {
		t.Fatal(err)
	}
	got, err := c.client.Snapshot(mid, "+node:all+edge:all", true)
	if err != nil {
		t.Fatal(err)
	}
	got.Cached, got.Coalesced = want.Cached, want.Coalesced
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged stream differs from oracle: %d/%d vs %d/%d nodes/edges",
			got.NumNodes, got.NumEdges, want.NumNodes, want.NumEdges)
	}

	// And against the oracle's own streamed answer (byte-level check of
	// the assembled structs; the stream bytes themselves legitimately
	// differ in run boundaries).
	osc := server.NewClient(ourl)
	if _, err := osc.SetWire("stream"); err != nil {
		t.Fatal(err)
	}
	owant, err := osc.Snapshot(mid, "+node:all+edge:all", true)
	if err != nil {
		t.Fatal(err)
	}
	got.Cached, got.Coalesced = owant.Cached, owant.Coalesced
	if !reflect.DeepEqual(got, owant) {
		t.Fatal("merged stream differs from oracle's streamed answer")
	}
}

// TestStreamCoordinatorCacheHit: the merged stream body is not captured on
// its first request and lands in the coordinator cache on its second; a
// third request replays it with no additional fan-out and still assembles
// exactly.
func TestStreamCoordinatorCacheHit(t *testing.T) {
	events := testEvents()
	c := newCluster(t, events, 4, Config{})
	mid := events[len(events)-1].At / 2
	if _, err := c.client.SetWire("stream"); err != nil {
		t.Fatal(err)
	}
	var first *wire.Snapshot
	for n := 1; n <= 2; n++ {
		snap, err := c.client.Snapshot(mid, "", true)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.co.cache.Len(); got != n-1 {
			t.Fatalf("after request %d the merged cache holds %d bodies, want %d", n, got, n-1)
		}
		first = snap
	}
	fanouts := c.co.Fanouts()
	second, err := c.client.Snapshot(mid, "", true)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.co.Fanouts() - fanouts; got != 0 {
		t.Fatalf("stream cache hit ran %d fan-outs, want 0", got)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("replayed stream body differs from the original")
	}
}

// cutWriter aborts the connection once more than limit bytes of a
// streaming response have been written — a worker dying mid-stream, with
// everything before the cut already flushed to the peer.
type cutWriter struct {
	http.ResponseWriter
	n, limit int
}

func (cw *cutWriter) Write(p []byte) (int, error) {
	if cw.n+len(p) > cw.limit {
		if f, ok := cw.ResponseWriter.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler)
	}
	cw.n += len(p)
	return cw.ResponseWriter.Write(p)
}

func (cw *cutWriter) Flush() {
	if f, ok := cw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// TestStreamPartialOnMidStreamWorkerDeath: one worker's stream is cut
// after several runs have been delivered. The coordinator must still
// finish a well-formed merged stream — elements already merged stay, the
// summary frame names the dead partition in partial, and the client sees
// a decodable (not truncated) response.
func TestStreamPartialOnMidStreamWorkerDeath(t *testing.T) {
	const parts = 3
	const deadPart = 1
	events := testEvents()
	var urls []string
	for p, slice := range PartitionEvents(events, parts) {
		gm := buildManager(t, slice)
		// Tiny runs so the victim flushes many frames before the cut.
		svc := server.New(gm, server.Config{CacheSize: 32, StreamRun: 8})
		inner := svc.Handler()
		handler := inner
		if p == deadPart {
			handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if wire.WantsStream(r.Header.Get("Accept")) {
					// Generous enough for the header and a few runs,
					// small enough to die well before the summary.
					inner.ServeHTTP(&cutWriter{ResponseWriter: w, limit: 500}, r)
					return
				}
				inner.ServeHTTP(w, r)
			})
		}
		hs := httptest.NewServer(handler)
		t.Cleanup(func() { hs.Close(); svc.Close() })
		urls = append(urls, hs.URL)
	}
	co, err := New(urls, Config{StreamRun: 8})
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
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !wire.IsStreamContentType(ct) {
		t.Fatalf("content type %s", ct)
	}
	snap, err := wire.DecodeSnapshotStream(resp.Body)
	if err != nil {
		t.Fatalf("merged stream did not decode cleanly (truncated merge?): %v", err)
	}
	if len(snap.Partial) != 1 || snap.Partial[0].Partition != deadPart {
		t.Fatalf("partial = %+v, want exactly partition %d", snap.Partial, deadPart)
	}
	if !strings.Contains(snap.Partial[0].Error, "truncated") {
		t.Fatalf("partial error %q does not identify the truncated leg", snap.Partial[0].Error)
	}
	if snap.NumNodes != len(snap.Nodes) || snap.NumEdges != len(snap.Edges) {
		t.Fatalf("summary counts (%d/%d) disagree with delivered elements (%d/%d)",
			snap.NumNodes, snap.NumEdges, len(snap.Nodes), len(snap.Edges))
	}
	// The cut hit MID-stream: runs the victim flushed before dying were
	// already merged, so some of its elements must be present.
	deadNodes := 0
	for _, n := range snap.Nodes {
		ev := historygraph.Event{Type: historygraph.AddNode, Node: historygraph.NodeID(n.ID)}
		if PartitionOf(ev, parts) == deadPart {
			deadNodes++
		}
	}
	if deadNodes == 0 {
		t.Fatal("no elements from the dead partition arrived — the cut was not mid-stream")
	}
	// And the surviving partitions are complete: every node the oracle
	// holds outside the dead partition is present.
	_, oclient, _ := oracle(t, events)
	want, err := oclient.Snapshot(last, "+node:all", true)
	if err != nil {
		t.Fatal(err)
	}
	wantAlive := 0
	for _, n := range want.Nodes {
		ev := historygraph.Event{Type: historygraph.AddNode, Node: historygraph.NodeID(n.ID)}
		if PartitionOf(ev, parts) != deadPart {
			wantAlive++
		}
	}
	gotAlive := len(snap.Nodes) - deadNodes
	if gotAlive != wantAlive {
		t.Fatalf("surviving partitions delivered %d nodes, oracle holds %d", gotAlive, wantAlive)
	}
}

// TestStreamLegTimeBounds: the partition timeout bounds a streamed leg's
// open, not its body. A member that never sends the stream header is given
// up after the timeout, long before the stream cap; a body paced past the
// timeout still merges complete, with no leg failure.
func TestStreamLegTimeBounds(t *testing.T) {
	const timeout = 200 * time.Millisecond
	events := testEvents()
	last := events[len(events)-1].At
	// launch serves two partitions, each through wrap, and a coordinator
	// whose client reads the merged stream.
	launch := func(t *testing.T, wrap func(part int, inner http.Handler) http.Handler) (*Coordinator, *server.Client) {
		var urls []string
		for p, slice := range PartitionEvents(events, 2) {
			svc := server.New(buildManager(t, slice), server.Config{CacheSize: 32, StreamRun: 8})
			hs := httptest.NewServer(wrap(p, svc.Handler()))
			t.Cleanup(func() { hs.Close(); svc.Close() })
			urls = append(urls, hs.URL)
		}
		co, err := New(urls, Config{PartitionTimeout: timeout, StreamRun: 8})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(co.Close)
		front := httptest.NewServer(co.Handler())
		t.Cleanup(front.Close)
		client, err := server.NewClient(front.URL).SetWire(wire.NameBinaryStream)
		if err != nil {
			t.Fatal(err)
		}
		return co, client
	}

	t.Run("header", func(t *testing.T) {
		const mute = 1
		co, client := launch(t, func(part int, inner http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if part == mute && wire.WantsStream(r.Header.Get("Accept")) {
					<-r.Context().Done() // never sends the header
					return
				}
				inner.ServeHTTP(w, r)
			})
		})
		begin := time.Now()
		snap, err := client.Snapshot(last, "", true)
		took := time.Since(begin)
		if err != nil {
			t.Fatal(err)
		}
		if len(snap.Partial) != 1 || snap.Partial[0].Partition != mute {
			t.Fatalf("partial = %+v, want exactly partition %d", snap.Partial, mute)
		}
		if took < timeout || took > co.streamCap/2 {
			t.Fatalf("answered after %v, want between the partition timeout %v and half the stream cap %v", took, timeout, co.streamCap)
		}
	})

	t.Run("body", func(t *testing.T) {
		co, client := launch(t, func(_ int, inner http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if wire.WantsStream(r.Header.Get("Accept")) {
					inner.ServeHTTP(&slowFlushWriter{ResponseWriter: w, delay: 20 * time.Millisecond}, r)
					return
				}
				inner.ServeHTTP(w, r)
			})
		})
		_, oclient, _ := oracle(t, events)
		want, err := oclient.Snapshot(last, "", true)
		if err != nil {
			t.Fatal(err)
		}
		begin := time.Now()
		got, err := client.Snapshot(last, "", true)
		took := time.Since(begin)
		if err != nil {
			t.Fatal(err)
		}
		got.Cached, got.Coalesced = want.Cached, want.Coalesced
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("paced merged stream differs from the oracle: %d/%d vs %d/%d nodes/edges, partial %v",
				got.NumNodes, got.NumEdges, want.NumNodes, want.NumEdges, got.Partial)
		}
		if fails := co.legFails.Total(); fails != 0 {
			t.Fatalf("%d leg failures on a stream paced past the partition timeout", fails)
		}
		if took < 2*timeout {
			t.Fatalf("the paced stream took %v, not past the partition timeout %v", took, timeout)
		}
	})
}
