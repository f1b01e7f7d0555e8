package replica_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"

	"historygraph"
	"historygraph/internal/replica"
	"historygraph/internal/server"
	"historygraph/internal/shard"
	"historygraph/internal/wire"
)

// TestUnknownEventTypeIs400Everywhere: an event whose type name is not one
// of the eight is the client's error on every role — a plain worker, a
// WAL-backed node, a coordinator — in every form an append body takes:
// JSON, binary, and a frame of an append stream. Nothing of the batch is
// applied or logged.
func TestUnknownEventTypeIs400Everywhere(t *testing.T) {
	good := historygraph.EventList{
		{Type: historygraph.AddNode, At: 1, Node: 7},
		{Type: historygraph.TransientNode, At: 2, Node: 8},
	}
	// The second event's type name is overwritten in the encoded bytes: no
	// in-memory event can carry an unknown type to encode one from.
	spoil := func(b []byte) []byte { return bytes.Replace(b, []byte("TN"), []byte("ZZ"), 1) }
	js, _ := wire.JSON{}.Encode(good)
	bin, _ := wire.Binary{}.Encode(good)
	var frames bytes.Buffer
	enc := wire.NewAppendStreamEncoder(&frames)
	if err := enc.Events("", good[:1]); err != nil {
		t.Fatal(err)
	}
	mark := frames.Len()
	if err := enc.Events("", good[1:]); err != nil {
		t.Fatal(err)
	}
	if err := enc.End(); err != nil {
		t.Fatal(err)
	}
	stream := append(append([]byte{}, frames.Bytes()[:mark]...), spoil(frames.Bytes()[mark:])...)
	forms := []struct {
		name, path, contentType string
		body                    []byte
	}{
		{"JSON", "/append", wire.ContentTypeJSON, spoil(js)},
		{"binary", "/append", wire.ContentTypeBinary, spoil(bin)},
		{"stream", "/append?stream=1", wire.ContentTypeAppendStream, stream},
	}

	gm, err := historygraph.Open(historygraph.Options{LeafEventlistSize: 128, CleanerInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer gm.Close()
	svc := server.New(gm, server.Config{})
	defer svc.Close()
	worker := httptest.NewServer(svc.Handler())
	defer worker.Close()
	dir := t.TempDir()
	node := launch(t, filepath.Join(dir, "node.wal"), "", replica.Config{Role: replica.RolePrimary})
	parts := []*cnode{
		launch(t, filepath.Join(dir, "p0.wal"), "", replica.Config{Role: replica.RolePrimary}),
		launch(t, filepath.Join(dir, "p1.wal"), "", replica.Config{Role: replica.RolePrimary}),
	}
	co, err := shard.NewReplicated([][]string{{parts[0].url}, {parts[1].url}}, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	front := httptest.NewServer(co.Handler())
	defer front.Close()

	for _, role := range []struct{ name, url string }{
		{"worker", worker.URL}, {"node", node.url}, {"coordinator", front.URL},
	} {
		for _, form := range forms {
			t.Run(role.name+"/"+form.name, func(t *testing.T) {
				resp, err := http.Post(role.url+form.path, form.contentType, bytes.NewReader(form.body))
				if err != nil {
					t.Fatal(err)
				}
				msg, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(msg, []byte(`unknown event type \"ZZ\"`)) {
					t.Fatalf("HTTP %d %s, want 400 naming the type", resp.StatusCode, msg)
				}
			})
		}
	}
	// A whole-message body is refused before anything happens; a stream
	// applies the frames before the bad one, and says so. Neither form
	// lets the bad frame's own events through.
	for _, c := range []struct {
		name string
		n    int
	}{{"worker", gm.CurrentGraph().NumNodes()}, {"node", node.gm.CurrentGraph().NumNodes()},
		{"coordinator", parts[0].gm.CurrentGraph().NumNodes() + parts[1].gm.CurrentGraph().NumNodes()}} {
		if c.n != 1 {
			t.Errorf("%s holds %d nodes after the refused appends, want the stream's first frame only", c.name, c.n)
		}
	}
	if seq := node.log.LastSeq(); seq != 1 {
		t.Errorf("node logged %d records, want the stream's first frame only", seq)
	}
}

// TestAppendFormsAgree: a POST /append batch is an append stream of one
// frame, so on every role — a plain worker, a WAL-backed node, a
// coordinator over two WAL primaries — the same events sent as a JSON
// batch, a binary batch, a one-frame stream or a three-frame stream get
// the same answer, last_time and invalidations included, and leave the
// same head snapshot. An empty batch and an empty stream agree the same
// way: every partition answers, so last_time is the head's, not zero.
func TestAppendFormsAgree(t *testing.T) {
	seed := historygraph.EventList{
		{Type: historygraph.AddNode, At: 1, Node: 1},
		{Type: historygraph.AddNode, At: 1, Node: 2},
		{Type: historygraph.AddNode, At: 2, Node: 3},
	}
	var fresh historygraph.EventList
	for f := 0; f < 3; f++ {
		at := historygraph.Time(3 + f)
		base := historygraph.NodeID(100 + 10*f)
		fresh = append(fresh,
			historygraph.Event{Type: historygraph.AddNode, At: at, Node: base},
			historygraph.Event{Type: historygraph.AddNode, At: at, Node: base + 1},
			historygraph.Event{Type: historygraph.AddEdge, At: at, Edge: historygraph.EdgeID(f + 1), Node: base, Node2: base + 1},
		)
	}
	streamOf := func(frames ...historygraph.EventList) []byte {
		var buf bytes.Buffer
		enc := wire.NewAppendStreamEncoder(&buf)
		for _, f := range frames {
			if err := enc.Events("", f); err != nil {
				t.Fatal(err)
			}
		}
		if err := enc.End(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	js, _ := wire.JSON{}.Encode(fresh)
	bin, _ := wire.Binary{}.Encode(fresh)
	emptyJS, _ := wire.JSON{}.Encode(historygraph.EventList{})
	type form struct {
		name, path, contentType string
		body                    []byte
	}
	groups := []struct {
		head  historygraph.Time
		forms []form
	}{
		{5, []form{
			{"JSON batch", "/append", wire.ContentTypeJSON, js},
			{"binary batch", "/append", wire.ContentTypeBinary, bin},
			{"one-frame stream", "/append?stream=1", wire.ContentTypeAppendStream, streamOf(fresh)},
			{"three-frame stream", "/append?stream=1", wire.ContentTypeAppendStream, streamOf(fresh[:3], fresh[3:6], fresh[6:])},
		}},
		{2, []form{
			{"empty batch", "/append", wire.ContentTypeJSON, emptyJS},
			{"empty stream", "/append?stream=1", wire.ContentTypeAppendStream, streamOf(historygraph.EventList{})},
		}},
	}

	roles := []struct {
		name  string
		start func(t *testing.T) string
	}{
		{"worker", func(t *testing.T) string {
			gm, err := historygraph.Open(historygraph.Options{LeafEventlistSize: 128, CleanerInterval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { gm.Close() })
			svc := server.New(gm, server.Config{CacheSize: 16})
			t.Cleanup(svc.Close)
			hs := httptest.NewServer(svc.Handler())
			t.Cleanup(hs.Close)
			return hs.URL
		}},
		{"node", func(t *testing.T) string {
			return launch(t, filepath.Join(t.TempDir(), "node.wal"), "", replica.Config{Role: replica.RolePrimary}).url
		}},
		{"coordinator", func(t *testing.T) string {
			dir := t.TempDir()
			p0 := launch(t, filepath.Join(dir, "p0.wal"), "", replica.Config{Role: replica.RolePrimary})
			p1 := launch(t, filepath.Join(dir, "p1.wal"), "", replica.Config{Role: replica.RolePrimary})
			co, err := shard.NewReplicated([][]string{{p0.url}, {p1.url}}, shard.Config{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(co.Close)
			front := httptest.NewServer(co.Handler())
			t.Cleanup(front.Close)
			return front.URL
		}},
	}

	post := func(t *testing.T, url, contentType string, body []byte) []byte {
		t.Helper()
		resp, err := http.Post(url, contentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: HTTP %d %s", url, resp.StatusCode, msg)
		}
		return msg
	}
	get := func(t *testing.T, url string) []byte {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d %s", url, resp.StatusCode, body)
		}
		return body
	}
	// send runs one form against a fresh deployment: the seed, a head
	// read (so the append has a cached view to invalidate), the form, and
	// the head snapshot after it.
	send := func(t *testing.T, start func(*testing.T) string, f form, head historygraph.Time) (wire.AppendResult, []byte) {
		url := start(t)
		seedJS, _ := wire.JSON{}.Encode(seed)
		post(t, url+"/append", wire.ContentTypeJSON, seedJS)
		get(t, url+"/snapshot?t=2&full=1")
		var res wire.AppendResult
		if err := json.Unmarshal(post(t, url+f.path, f.contentType, f.body), &res); err != nil {
			t.Fatal(err)
		}
		return res, get(t, url+"/snapshot?full=1&t="+strconv.Itoa(int(head)))
	}

	for _, role := range roles {
		t.Run(role.name, func(t *testing.T) {
			for _, g := range groups {
				want, wantSnap := send(t, role.start, g.forms[0], g.head)
				if want.LastTime != int64(g.head) {
					t.Errorf("%s answered last_time %d, want %d", g.forms[0].name, want.LastTime, g.head)
				}
				for _, f := range g.forms[1:] {
					got, snap := send(t, role.start, f, g.head)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s answered %+v, %s answered %+v", f.name, got, g.forms[0].name, want)
					}
					if !bytes.Equal(snap, wantSnap) {
						t.Errorf("head snapshot after %s:\n%s\nafter %s:\n%s", f.name, snap, g.forms[0].name, wantSnap)
					}
				}
			}
		})
	}
}

// TestBatchErrorAnswers pins a batch's error answers, status and text, on
// every role: 400 for a bad body, 422 for an order violation or an
// unroutable event, 503 when the follower acks do not come. A
// coordinator's partial entry for a batch names no frame; the same events
// streamed name the frame that failed.
func TestBatchErrorAnswers(t *testing.T) {
	gm, err := historygraph.Open(historygraph.Options{LeafEventlistSize: 128, CleanerInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer gm.Close()
	svc := server.New(gm, server.Config{})
	defer svc.Close()
	worker := httptest.NewServer(svc.Handler())
	defer worker.Close()
	dir := t.TempDir()
	node := launch(t, filepath.Join(dir, "node.wal"), "", replica.Config{Role: replica.RolePrimary})
	unacked := launch(t, filepath.Join(dir, "unacked.wal"), "", replica.Config{
		Role: replica.RolePrimary, SyncFollowers: 1, AckTimeout: 50 * time.Millisecond,
	})
	parts := []*cnode{
		launch(t, filepath.Join(dir, "p0.wal"), "", replica.Config{Role: replica.RolePrimary}),
		launch(t, filepath.Join(dir, "p1.wal"), "", replica.Config{Role: replica.RolePrimary}),
	}
	co, err := shard.NewReplicated([][]string{{parts[0].url}, {parts[1].url}}, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	front := httptest.NewServer(co.Handler())
	defer front.Close()

	// nodeOn returns the smallest node ID from 1 the coordinator routes
	// to partition p of two.
	nodeOn := func(p int) historygraph.NodeID {
		for id := historygraph.NodeID(1); ; id++ {
			if shard.PartitionOf(historygraph.Event{Type: historygraph.AddNode, Node: id}, 2) == p {
				return id
			}
		}
	}
	n0, n1 := nodeOn(0), nodeOn(1)
	post := func(t *testing.T, url string, body []byte) (int, []byte) {
		t.Helper()
		resp, err := http.Post(url+"/append", wire.ContentTypeJSON, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, msg
	}
	at := func(t historygraph.Time) []byte {
		b, _ := wire.JSON{}.Encode(historygraph.EventList{
			{Type: historygraph.AddNode, At: t, Node: n0}, {Type: historygraph.AddNode, At: t, Node: n1},
		})
		return b
	}
	for _, url := range []string{worker.URL, node.url, front.URL} {
		if status, msg := post(t, url, at(10)); status != http.StatusOK {
			t.Fatalf("seed %s: HTTP %d %s", url, status, msg)
		}
	}
	unroutable, _ := wire.JSON{}.Encode(historygraph.EventList{{Type: historygraph.DelEdge, At: 11, Edge: 3}})
	fresh, _ := wire.JSON{}.Encode(historygraph.EventList{{Type: historygraph.AddNode, At: 1, Node: 1}})
	var list historygraph.EventList
	badBody := "bad append body: " + wire.JSON{}.Decode([]byte("{"), &list).Error()

	for _, c := range []struct {
		name, url string
		body      []byte
		status    int
		msg       string
	}{
		{"worker/bad body", worker.URL, []byte("{"), 400, badBody},
		{"worker/order", worker.URL, at(1), 422, "deltagraph: event at 1 is older than last event at 10"},
		{"node/bad body", node.url, []byte("{"), 400, badBody},
		{"node/order", node.url, at(1), 422, "replica: event at 1 is older than last event at 10"},
		{"node/ack timeout", unacked.url, fresh, 503, "replica: 1 follower(s) did not confirm seq 1 within 50ms (the events are logged and will replicate; the batch was NOT acked)"},
		{"coordinator/bad body", front.URL, []byte("{"), 400, badBody},
		{"coordinator/unroutable", front.URL, unroutable, 422, "event 0: DE event for edge 3 carries no endpoints; a sharded cluster routes edge events by their From node"},
		{"coordinator/order", front.URL, at(1), 422, "shard: all 2 partitions failed (partition 0: server: replica: event at 1 is older than last event at 10 (HTTP 422))"},
	} {
		t.Run(c.name, func(t *testing.T) {
			status, body := post(t, c.url, c.body)
			var got wire.Error
			if err := json.Unmarshal(body, &got); err != nil {
				t.Fatalf("HTTP %d %s: %v", status, body, err)
			}
			if status != c.status || got.Error != c.msg {
				t.Fatalf("HTTP %d %q, want %d %q", status, got.Error, c.status, c.msg)
			}
		})
	}

	t.Run("coordinator/partial", func(t *testing.T) {
		// Partition 1 runs ahead, so a batch at 11 lands on 0 and is
		// refused by 1.
		if _, err := server.NewClient(parts[1].url).Append(historygraph.EventList{{Type: historygraph.AddNode, At: 20, Node: n1}}); err != nil {
			t.Fatal(err)
		}
		status, body := post(t, front.URL, at(11))
		var got wire.AppendResult
		if err := json.Unmarshal(body, &got); err != nil || status != http.StatusOK {
			t.Fatalf("HTTP %d %s: %v", status, body, err)
		}
		want := []wire.PartitionError{{Partition: 1, Status: 422, Error: "server: replica: event at 11 is older than last event at 20 (HTTP 422)"}}
		if got.Appended != 1 || !reflect.DeepEqual(got.Partial, want) {
			t.Fatalf("batch answered %+v, want 1 appended and partial %+v", got, want)
		}
		cl := server.NewClient(front.URL)
		stream, err := cl.AppendStream()
		if err != nil {
			t.Fatal(err)
		}
		if err := stream.Send(historygraph.EventList{{Type: historygraph.AddNode, At: 12, Node: n0}, {Type: historygraph.AddNode, At: 12, Node: n1}}); err != nil {
			t.Fatal(err)
		}
		res, err := stream.Close()
		if err != nil {
			t.Fatal(err)
		}
		want[0].Error = "frame 0: server: replica: event at 12 is older than last event at 20 (HTTP 422)"
		if !reflect.DeepEqual(res.Partial, want) {
			t.Fatalf("stream answered partial %+v, want %+v", res.Partial, want)
		}
	})
}
