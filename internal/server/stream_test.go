package server

// Streaming /snapshot and the encoded-bytes cache: a streamed response
// must assemble to exactly what the whole-message path answers, an
// encoded-bytes hit must do zero encode work, and appends must
// invalidate encoded bodies under the same rules as the pinned views.

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"

	"historygraph"
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

// TestNoStoreServedNotAdmitted: a request carrying Cache-Control: no-store
// is answered with the bytes an ordinary miss answers with, at one encode
// and with nothing admitted; a later plain read misses, admits (the no-store
// read was the key's first request), and then hits with Encodes flat. The
// probe still runs for a no-store request, so a body admitted by a plain
// read serves it too.
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

		get(base, accept, "")
		if n := svc.enc.Len(); n != 1 {
			t.Fatalf("%s: plain read after no-store admitted %d bodies, want 1", accept, n)
		}
		steady := svc.Encodes()
		get(base, accept, "")
		get(base, accept, "no-store")
		if svc.Encodes() != steady {
			t.Fatalf("%s: reads of an admitted body encoded (%d -> %d)", accept, steady, svc.Encodes())
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
