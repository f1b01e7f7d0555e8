package replica

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"historygraph"
)

// TestReplicateStreamRoundTrip pins the binary /replicate body: records
// (sequence, batch ID, full event incl. old/new attribute values) must
// decode exactly, empty batches included.
func TestReplicateStreamRoundTrip(t *testing.T) {
	for _, recs := range [][]Record{
		nil,
		{
			{Seq: 1, Event: historygraph.Event{Type: historygraph.AddNode, At: 1, Node: 7}},
			{Seq: 2, Event: historygraph.Event{Type: historygraph.AddEdge, At: 2, Node: 7, Node2: 9, Edge: 3, Directed: true}, Batch: "b1"},
			{Seq: 3, Event: historygraph.Event{Type: historygraph.SetNodeAttr, At: 3, Node: 7, Attr: "name", Old: "x", HadOld: true, HasNew: true}, Batch: "b1"},
		},
	} {
		body := encodeReplicate(replicateResponse{Records: recs, LastSeq: 99}, false)
		got, err := decodeReplicate(body)
		if err != nil {
			t.Fatal(err)
		}
		if got.LastSeq != 99 {
			t.Fatalf("last_seq %d, want 99", got.LastSeq)
		}
		want := recs
		if want == nil {
			want = []Record{}
		}
		if !reflect.DeepEqual(got.Records, want) {
			t.Fatalf("records mismatch:\n got: %#v\nwant: %#v", got.Records, want)
		}
	}

	// Corrupt input errors instead of panicking.
	if _, err := decodeReplicate([]byte("{}")); err == nil {
		t.Fatal("JSON body accepted as binary stream")
	}
	body := encodeReplicate(replicateResponse{Records: []Record{{Seq: 1, Event: historygraph.Event{Type: historygraph.AddNode, At: 1}}}, LastSeq: 1}, false)
	for cut := 0; cut < len(body); cut++ {
		_, _ = decodeReplicate(body[:cut])
	}
}

// TestFetchReplicateRefusesJSON: a follower reads /replicate only in
// binary. A primary that answers a well-formed JSON page instead fails the
// fetch, and the error names the content type it answered in.
func TestFetchReplicateRefusesJSON(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(replicateResponse{
			Records: []Record{{Seq: 1, Event: historygraph.Event{Type: historygraph.AddNode, At: 1, Node: 7}}},
			LastSeq: 1,
		})
	}))
	defer hs.Close()
	n := &Node{hc: hs.Client()}
	page, err := n.fetchReplicate(context.Background(), hs.URL+"/replicate?from=1")
	if err == nil || !strings.Contains(err.Error(), "application/json") {
		t.Fatalf("JSON /replicate page: got %+v, err %v; want an error naming application/json", page, err)
	}
}
