package server

// Streaming /snapshot and the encoded-bytes cache: a streamed response
// must assemble to exactly what the whole-message path answers, an
// encoded-bytes hit must do zero encode work, and appends must
// invalidate encoded bodies under the same rules as the pinned views.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"historygraph"
	"historygraph/internal/datagen"
	"historygraph/internal/wire"
)

// streamClient fetches one raw streamed snapshot.
func fetchStream(t *testing.T, base string, at historygraph.Time, attrs string) *wire.Snapshot {
	t.Helper()
	c := NewClient(base)
	if _, err := c.SetWire("stream"); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Snapshot(at, attrs, true)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestStreamMatchesWholeMessage: the streamed full snapshot assembles to
// the same elements, counts, and attributes as the JSON and binary
// whole-message answers, across run sizes that do and do not divide the
// element counts.
func TestStreamMatchesWholeMessage(t *testing.T) {
	for _, runSize := range []int{1, 7, 1 << 20} {
		gm := newTestManager(t)
		svc := New(gm, Config{StreamRun: runSize})
		httpSrv := newHTTPServer(t, svc)
		mid := gm.LastTime() / 2

		want, err := NewClient(httpSrv).Snapshot(mid, "+node:all+edge:all", true)
		if err != nil {
			t.Fatal(err)
		}
		got := fetchStream(t, httpSrv, mid, "+node:all+edge:all")
		// Flags may differ (the whole-message request warmed the caches);
		// compare the data.
		got.Cached, got.Coalesced = want.Cached, want.Coalesced
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run=%d: streamed snapshot differs from whole-message\n got: %d/%d nodes/edges\nwant: %d/%d",
				runSize, got.NumNodes, got.NumEdges, want.NumNodes, want.NumEdges)
		}
		if len(got.Nodes) != got.NumNodes || len(got.Edges) != got.NumEdges {
			t.Fatalf("run=%d: counts disagree with elements", runSize)
		}
	}
}

// newHTTPServer wraps a Server in an httptest listener (newTestServer
// variant that exposes the URL for raw requests).
func newHTTPServer(t testing.TB, svc *Server) string {
	t.Helper()
	h := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { h.Close(); svc.Close() })
	return h.URL
}

// TestStreamContentTypeNegotiation: the stream is opt-in. A plain
// request, a binary request, and a stream request to the same endpoint
// answer with their own content types, and a stream Accept on a
// counts-only query degrades to whole-message binary.
func TestStreamContentTypeNegotiation(t *testing.T) {
	gm := newTestManager(t)
	svc := New(gm, Config{})
	base := newHTTPServer(t, svc)
	mid := gm.LastTime() / 2

	get := func(accept, url string) string {
		req, _ := http.NewRequest(http.MethodGet, url, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", url, resp.StatusCode)
		}
		return resp.Header.Get("Content-Type")
	}
	full := base + "/snapshot?t=" + strconv.FormatInt(int64(mid), 10) + "&full=1"
	counts := base + "/snapshot?t=" + strconv.FormatInt(int64(mid), 10)
	if ct := get("", full); ct != wire.ContentTypeJSON {
		t.Fatalf("default full answer: %s", ct)
	}
	if ct := get(wire.ContentTypeBinary, full); ct != wire.ContentTypeBinary {
		t.Fatalf("binary full answer: %s", ct)
	}
	if ct := get(wire.ContentTypeBinaryStream, full); ct != wire.ContentTypeBinaryStream {
		t.Fatalf("stream full answer: %s", ct)
	}
	// Counts-only has nothing to chunk: the stream Accept value matches
	// the binary substring and the answer is whole-message binary.
	if ct := get(wire.ContentTypeBinaryStream, counts); ct != wire.ContentTypeBinary {
		t.Fatalf("stream counts answer: %s", ct)
	}
}

// TestEncodedCacheHitZeroEncode: the third identical request is served
// from the encoded-bytes cache — no view work, no encode execution, and
// the body says Cached. The first request is not admitted and the second
// is. The worker-side analogue of TestCoordinatorCacheHitZeroEncode.
func TestEncodedCacheHitZeroEncode(t *testing.T) {
	gm := newTestManager(t)
	svc, client := newTestServer(t, gm, Config{})
	mid := gm.LastTime() / 2

	for _, wireName := range []string{"json", "binary", "stream"} {
		if _, err := client.SetWire(wireName); err != nil {
			t.Fatal(err)
		}
		for range 2 {
			if _, err := client.Snapshot(mid, "", true); err != nil {
				t.Fatal(err)
			}
		}
		before := svc.Encodes()
		snap, err := client.Snapshot(mid, "", true)
		if err != nil {
			t.Fatal(err)
		}
		if got := svc.Encodes() - before; got != 0 {
			t.Fatalf("%s: encoded-cache hit executed %d encodes, want 0", wireName, got)
		}
		if wireName != "stream" && !snap.Cached {
			// Whole-message hits replay the Cached=true variant; stream
			// hits replay the body as-is (documented).
			t.Fatalf("%s: encoded-cache hit not marked cached", wireName)
		}
		if snap.NumNodes == 0 {
			t.Fatalf("%s: empty hit body", wireName)
		}
	}
}

// TestNoStoreServedNotAdmitted: a request carrying Cache-Control: no-store,
// as a coordinator leg does, is answered with the bytes an ordinary miss
// answers with, at one encode, with nothing admitted and without touching
// the encoded level: no hit, miss or refusal is counted. It does not count
// as a request of its key, so it takes two plain reads to admit, and a
// third then hits with Encodes flat. A no-store read of an admitted body
// encodes its own.
func TestNoStoreServedNotAdmitted(t *testing.T) {
	gm := newTestManager(t)
	mid := strconv.FormatInt(int64(gm.LastTime()/2), 10)
	get := func(base, accept, cacheControl string) []byte {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, base+"/snapshot?t="+mid+"&full=1", nil)
		req.Header.Set("Accept", accept)
		req.Header.Set("Cache-Control", cacheControl)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET: HTTP %d, %v: %.200s", resp.StatusCode, err, body)
		}
		return body
	}
	for _, accept := range []string{wire.ContentTypeJSON, wire.ContentTypeBinary, wire.ContentTypeBinaryStream} {
		svc := New(gm, Config{})
		base := newHTTPServer(t, svc)
		ref := newHTTPServer(t, New(gm, Config{}))

		before := svc.Encodes()
		got := get(base, accept, "max-age=0, No-Store")
		if want := get(ref, accept, ""); !bytes.Equal(got, want) {
			t.Fatalf("%s: no-store body differs from an ordinary miss:\n got %.200q\nwant %.200q", accept, got, want)
		}
		if n := svc.enc.Len(); n != 0 {
			t.Fatalf("%s: no-store read admitted %d encoded bodies", accept, n)
		}
		if d := svc.Encodes() - before; d != 1 {
			t.Fatalf("%s: no-store miss ran %d encodes, want 1", accept, d)
		}
		st := svc.enc.Stats()
		if refused := svc.Metrics().CounterVec("dg_cache_refused_total", "", "cache").With("encoded").Value(); st.Hits+st.Misses+refused != 0 {
			t.Fatalf("%s: no-store read counted %d hits, %d misses, %d refused in the encoded level", accept, st.Hits, st.Misses, refused)
		}

		get(base, accept, "")
		if n := svc.enc.Len(); n != 0 {
			t.Fatalf("%s: first plain read after no-store admitted %d bodies, want 0", accept, n)
		}
		get(base, accept, "")
		if n := svc.enc.Len(); n != 1 {
			t.Fatalf("%s: second plain read admitted %d bodies, want 1", accept, n)
		}
		steady := svc.Encodes()
		get(base, accept, "")
		if svc.Encodes() != steady {
			t.Fatalf("%s: a read of an admitted body encoded (%d -> %d)", accept, steady, svc.Encodes())
		}
		get(base, accept, "no-store")
		if d := svc.Encodes() - steady; d != 1 {
			t.Fatalf("%s: no-store read of an admitted body ran %d encodes, want 1", accept, d)
		}
	}
}

// TestAdmittedBodyIsExactSize: an encoded body enters the cache at its
// length, whole message or captured stream — the encoder's buffer grew by
// appending, and its slack would be held for as long as the body is. A
// first request admits nothing, the second admits, and a hit serves the
// admitted bytes.
func TestAdmittedBodyIsExactSize(t *testing.T) {
	gm := newTestManager(t)
	at := gm.LastTime() / 2
	for _, accept := range []string{wire.ContentTypeJSON, wire.ContentTypeBinary, wire.ContentTypeBinaryStream} {
		svc := New(gm, Config{})
		base := newHTTPServer(t, svc)
		get := func() []byte {
			t.Helper()
			req, _ := http.NewRequest(http.MethodGet, base+"/snapshot?t="+strconv.FormatInt(int64(at), 10)+"&full=1", nil)
			req.Header.Set("Accept", accept)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: HTTP %d, %v", accept, resp.StatusCode, err)
			}
			return body
		}
		get()
		if n := svc.enc.Len(); n != 0 {
			t.Fatalf("%s: a first request admitted %d bodies", accept, n)
		}
		get()
		name := wire.Negotiate(accept).Name()
		if accept == wire.ContentTypeBinaryStream {
			name = wire.NameBinaryStream
		}
		body, ok := svc.enc.Get(encKey(at, "", true, name))
		if !ok {
			t.Fatalf("%s: a second plain miss admitted nothing", accept)
		}
		if len(body.Bytes) == 0 || cap(body.Bytes) != len(body.Bytes) {
			t.Errorf("%s: admitted body has length %d and capacity %d", accept, len(body.Bytes), cap(body.Bytes))
		}
		if hit := get(); !bytes.Equal(hit, body.Bytes) {
			t.Errorf("%s: a hit served %d bytes, not the %d admitted", accept, len(hit), len(body.Bytes))
		}
	}
}

// TestEncodedCacheInvalidation: an append at time t evicts encoded bodies
// at or after t (and refreshes them on the next miss), while strictly
// earlier bodies keep hitting — the same cut the pinned-view cache makes.
func TestEncodedCacheInvalidation(t *testing.T) {
	gm := newTestManager(t)
	svc, client := newTestServer(t, gm, Config{})
	last := gm.LastTime()
	early, late := last/4, last

	warm := func(at historygraph.Time) *wire.Snapshot {
		t.Helper()
		snap, err := client.Snapshot(at, "", true)
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	warm(early)
	warm(early)
	warm(late)
	warm(late)
	preLate := warm(late)
	steady := svc.Encodes()
	warm(early)
	if svc.Encodes() != steady {
		t.Fatal("warm-up did not reach steady encoded-cache hits")
	}

	// Append strictly after `early`, at the tail of history.
	if _, err := client.Append(historygraph.EventList{
		{Type: historygraph.AddNode, At: last + 1, Node: 999999},
	}); err != nil {
		t.Fatal(err)
	}

	before := svc.Encodes()
	if snap := warm(early); snap.NumNodes == 0 {
		t.Fatal("early snapshot empty")
	}
	if got := svc.Encodes() - before; got != 0 {
		t.Fatalf("append at %d evicted an encoded body at %d (%d encodes)", last+1, early, got)
	}
	afterLate := warm(late)
	if got := svc.Encodes() - before; got == 0 {
		t.Fatal("stale encoded body served after append")
	}
	// The late timepoint itself predates the appended event, so its data
	// is unchanged — but it must have been re-built, not replayed.
	preLate.Cached, afterLate.Cached = false, false
	preLate.Coalesced, afterLate.Coalesced = false, false
	if !reflect.DeepEqual(preLate, afterLate) {
		t.Fatal("re-built late snapshot differs from pre-append answer")
	}
}

// TestStreamReadWhileAppending: streamed reads at the head — a dependent of
// the current graph, whose elements an append can take away between two
// runs of the walk — and behind it, while an appender crosses leaf cuts and
// the pool's cleaner runs every millisecond. The walk holds the pool's read
// lock one run of one element at a time and writes no frame under it, so
// the appender and the cleaner take the write lock between runs. Every
// stream ends in its summary, lists as many elements as it counts, each
// kind in ascending ID order, every edge between the endpoints the trace
// gives its ID (an element lost mid-walk is handed out as it was
// gathered), and a read behind the appends, which no append changes, is
// the reference's to the byte.
func TestStreamReadWhileAppending(t *testing.T) {
	const attrs = "+node:all+edge:all"
	events := datagen.MessyTrace(5, 20000)
	split := len(events) / 2
	gm, err := historygraph.BuildFrom(events[:split], historygraph.Options{LeafEventlistSize: 16, CleanerInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer gm.Close()
	svc := New(gm, Config{StreamRun: 1})
	defer svc.Close()
	handler := svc.Handler()
	behind, head := events[split/2].At, events[len(events)-1].At
	h, err := gm.GetHistGraph(behind, attrs)
	if err != nil {
		t.Fatal(err)
	}
	want := refSnapshotOf(h, behind, true, nil)
	gm.Release(h)
	refs := map[bool][]byte{false: refStream(t, want, 1)} // by the Cached flag
	want.Cached = true
	refs[true] = refStream(t, want, 1)
	ends := map[int64][2]int64{} // in the trace an edge ID always names one pair
	for _, ev := range events {
		if ev.Type == historygraph.AddEdge {
			ends[int64(ev.Edge)] = [2]int64{int64(ev.Node), int64(ev.Node2)}
		}
	}

	stream := func(at historygraph.Time) (*wire.Snapshot, []byte, error) {
		req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/snapshot?t=%d&full=1&attrs=%%2Bnode:all%%2Bedge:all", at), nil)
		req.Header.Set("Accept", wire.ContentTypeBinaryStream)
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return nil, nil, fmt.Errorf("t=%d answered %d: %s", at, rec.Code, rec.Body)
		}
		s, err := wire.DecodeSnapshotStream(bytes.NewReader(rec.Body.Bytes()))
		return s, rec.Body.Bytes(), err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for lo := split; lo < len(events); lo += 10 {
			if _, err := svc.ApplyEvents(events[lo:min(lo+10, len(events))]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for _, at := range []historygraph.Time{head, behind} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for reads := 0; ; reads++ {
				select {
				case <-done:
					if reads > 0 {
						t.Logf("t=%d: %d reads", at, reads)
						return
					}
				default:
				}
				s, body, err := stream(at)
				if err != nil {
					t.Error(err)
					return
				}
				if s.NumNodes != len(s.Nodes) || s.NumEdges != len(s.Edges) ||
					!slices.IsSortedFunc(s.Nodes, func(a, b wire.Node) int { return int(a.ID - b.ID) }) ||
					!slices.IsSortedFunc(s.Edges, func(a, b wire.Edge) int { return int(a.ID - b.ID) }) {
					t.Errorf("t=%d: counts %d/%d over lists of %d/%d, or not in ID order", at, s.NumNodes, s.NumEdges, len(s.Nodes), len(s.Edges))
					return
				}
				for _, e := range s.Edges {
					if ends[e.ID] != [2]int64{e.From, e.To} {
						t.Errorf("t=%d: edge %d from %d to %d, the trace adds it from %d to %d", at, e.ID, e.From, e.To, ends[e.ID][0], ends[e.ID][1])
						return
					}
				}
				if at == behind && (s.Coalesced || !bytes.Equal(body, refs[s.Cached])) {
					t.Errorf("t=%d, read %d: the stream is not the reference's", at, reads)
					return
				}
			}
		}()
	}
	wg.Wait()
}
