package replica_test

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
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
