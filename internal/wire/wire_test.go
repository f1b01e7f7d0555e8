package wire

import (
	"bytes"
	"reflect"
	"testing"

	"historygraph/internal/graph"
)

// sampleSnapshots covers the Snapshot shapes the handlers actually emit,
// plus the edge cases the binary format must preserve exactly: nil vs
// empty lists and maps, negative ids, unicode attribute values, partial
// partition errors.
func sampleSnapshots() []Snapshot {
	return []Snapshot{
		{},
		{At: 120, NumNodes: 3, NumEdges: 2},
		{At: -5, NumNodes: 1, Cached: true, Coalesced: true},
		{
			At: 999, NumNodes: 2, NumEdges: 1,
			Nodes: []Node{
				{ID: 1},
				{ID: 7, Attrs: map[string]string{"name": "ada", "rôle": "ingénieur"}},
			},
			Edges: []Edge{
				{ID: 3, From: 1, To: 7, Directed: true, Attrs: map[string]string{"w": "0.5"}},
			},
		},
		{
			At: 1, Nodes: []Node{}, Edges: []Edge{}, // empty but present
		},
		{
			At: 42, NumNodes: 10, NumEdges: 4,
			Partial: []PartitionError{
				{Partition: 2, Error: "connection refused"},
				{Partition: 3, Error: "rejected", Status: 422},
			},
		},
		{
			At: 7, Nodes: []Node{
				{ID: -100, Attrs: map[string]string{}},
				{ID: 0},
				{ID: 1 << 40},
			},
		},
	}
}

func sampleEvents() graph.EventList {
	return graph.EventList{
		{Type: graph.AddNode, At: 1, Node: 23},
		{Type: graph.AddEdge, At: 2, Node: 23, Node2: 24, Edge: 5, Directed: true},
		{Type: graph.SetNodeAttr, At: 3, Node: 23, Attr: "name", New: "ada", HasNew: true},
		{Type: graph.SetNodeAttr, At: 4, Node: 23, Attr: "name", Old: "ada", HadOld: true, HasNew: true},
		{Type: graph.SetEdgeAttr, At: 5, Edge: 5, Attr: "w", Old: "0.5", HadOld: true},
		{Type: graph.TransientEdge, At: 6, Node: 1, Node2: 2, Edge: 1 << 41},
		{Type: graph.DelNode, At: -1, Node: -9},
	}
}

// roundTrip encodes v with the binary codec and decodes into out (a
// pointer), failing the test on error.
func roundTrip(t *testing.T, v any, out any) {
	t.Helper()
	data, err := Binary{}.Encode(v)
	if err != nil {
		t.Fatalf("binary encode %T: %v", v, err)
	}
	if err := (Binary{}).Decode(data, out); err != nil {
		t.Fatalf("binary decode %T: %v", v, err)
	}
}

func TestBinaryRoundTripSnapshot(t *testing.T) {
	for i, s := range sampleSnapshots() {
		var got Snapshot
		roundTrip(t, &s, &got)
		if !reflect.DeepEqual(got, s) {
			t.Errorf("snapshot %d: decode(encode(x)) != x\n got: %#v\nwant: %#v", i, got, s)
		}
	}
	// The whole set as a batch response.
	batch := sampleSnapshots()
	var got []Snapshot
	roundTrip(t, batch, &got)
	if !reflect.DeepEqual(got, batch) {
		t.Errorf("snapshot list roundtrip mismatch")
	}
}

func TestBinaryRoundTripNeighbors(t *testing.T) {
	for i, n := range []Neighbors{
		{},
		{At: 10, Node: 23, Degree: 3, Neighbors: []int64{1, 5, 9}},
		{At: 10, Node: 23, Neighbors: []int64{}, Cached: true},
		{At: -2, Node: -23, Degree: 1, Neighbors: []int64{-5},
			Partial: []PartitionError{{Partition: 0, Error: "x", Status: 502}}},
	} {
		var got Neighbors
		roundTrip(t, &n, &got)
		if !reflect.DeepEqual(got, n) {
			t.Errorf("neighbors %d: mismatch\n got: %#v\nwant: %#v", i, got, n)
		}
	}
}

func TestBinaryRoundTripEvents(t *testing.T) {
	evs := sampleEvents()
	var got graph.EventList
	roundTrip(t, evs, &got)
	if !reflect.DeepEqual(got, evs) {
		t.Errorf("events mismatch\n got: %#v\nwant: %#v", got, evs)
	}
}

func TestBinaryRoundTripInterval(t *testing.T) {
	iv := Interval{
		Start: 100, End: 200, NumNodes: 2, NumEdges: 1,
		Nodes:      []Node{{ID: 4, Attrs: map[string]string{"a": "b"}}, {ID: 9}},
		Edges:      []Edge{{ID: 2, From: 4, To: 9}},
		Transients: sampleEvents(),
	}
	var got Interval
	roundTrip(t, &iv, &got)
	if !reflect.DeepEqual(got, iv) {
		t.Errorf("interval mismatch\n got: %#v\nwant: %#v", got, iv)
	}
}

func TestBinaryRoundTripAppendResult(t *testing.T) {
	ar := AppendResult{
		Appended: 17, LastTime: 12345, Invalidated: 3, Seq: 991, Deduped: true,
		Partial: []PartitionError{{Partition: 1, Error: "late", Status: 503}},
	}
	var got AppendResult
	roundTrip(t, &ar, &got)
	if !reflect.DeepEqual(got, ar) {
		t.Errorf("append result mismatch\n got: %#v\nwant: %#v", got, ar)
	}
}

func TestBinaryRoundTripExpr(t *testing.T) {
	req := ExprRequest{Times: []int64{100, 200, 150}, Expr: "(0 | 1) & !2", Attrs: "+node:all", Full: true}
	var got ExprRequest
	roundTrip(t, &req, &got)
	if !reflect.DeepEqual(got, req) {
		t.Errorf("expr mismatch\n got: %#v\nwant: %#v", got, req)
	}
}

// TestCrossCodecOracle is the codec-equivalence check: for every sample,
// a binary round trip and a JSON round trip must land on the same struct
// — a coordinator decoding a binary worker leg sees exactly what a JSON
// client of that worker would have decoded. Samples here are JSON-normal (no
// empty-but-non-nil lists, which JSON's omitempty cannot represent).
func TestCrossCodecOracle(t *testing.T) {
	samples := []any{
		&Snapshot{At: 999, NumNodes: 2, NumEdges: 1,
			Nodes: []Node{{ID: 1, Attrs: map[string]string{"k": "v"}}, {ID: 2}},
			Edges: []Edge{{ID: 3, From: 1, To: 2, Directed: true}},
		},
		&Snapshot{At: 10, NumNodes: 5, NumEdges: 16, Cached: true},
		&AppendResult{Appended: 4, LastTime: 99, Seq: 12},
	}
	for i, v := range samples {
		jdata, err := (JSON{}).Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		bdata, err := (Binary{}).Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		var jout, bout any
		switch v.(type) {
		case *Snapshot:
			jout, bout = &Snapshot{}, &Snapshot{}
		case *AppendResult:
			jout, bout = &AppendResult{}, &AppendResult{}
		}
		if err := (JSON{}).Decode(jdata, jout); err != nil {
			t.Fatal(err)
		}
		if err := (Binary{}).Decode(bdata, bout); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(jout, bout) {
			t.Errorf("sample %d: binary decode diverges from JSON decode\njson:   %#v\nbinary: %#v", i, jout, bout)
		}
		if len(bdata) >= len(jdata) {
			t.Logf("sample %d: binary (%d bytes) not smaller than JSON (%d bytes)", i, len(bdata), len(jdata))
		}
	}
}

// TestJSONEncodeMatchesEncoder pins the JSON codec to the historical
// json.Encoder output (trailing newline included) — the byte-identity
// oracle tests depend on it.
func TestJSONEncodeMatchesEncoder(t *testing.T) {
	s := Snapshot{At: 7, NumNodes: 1, NumEdges: 0, Cached: true}
	data, err := (JSON{}).Encode(&s)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"at":7,"num_nodes":1,"num_edges":0,"cached":true}` + "\n"
	if string(data) != want {
		t.Fatalf("JSON codec drifted from json.Encoder output:\n got: %q\nwant: %q", data, want)
	}
}

func TestNegotiation(t *testing.T) {
	if c := Negotiate(""); c.Name() != NameJSON {
		t.Errorf("empty Accept negotiated %s", c.Name())
	}
	if c := Negotiate("*/*"); c.Name() != NameJSON {
		t.Errorf("*/* negotiated %s", c.Name())
	}
	if c := Negotiate(ContentTypeBinary); c.Name() != NameBinary {
		t.Errorf("binary Accept negotiated %s", c.Name())
	}
	if c := ForContentType(ContentTypeJSON + "; charset=utf-8"); c.Name() != NameJSON {
		t.Errorf("json content type resolved %s", c.Name())
	}
	if c := ForContentType(ContentTypeBinary); c.Name() != NameBinary {
		t.Errorf("binary content type resolved %s", c.Name())
	}
	for name, want := range map[string]string{
		"": NameJSON, "json": NameJSON, "binary": NameBinary, "bin": NameBinary,
	} {
		c, err := ByName(name)
		if err != nil || c.Name() != want {
			t.Errorf("ByName(%q) = %v, %v; want %s", name, c, err, want)
		}
	}
	if _, err := ByName("msgpack"); err == nil {
		t.Error("ByName accepted an unknown codec")
	}
}

// TestBinaryRejectsCorrupt feeds truncations and bit flips of a valid
// message into the decoder: every one must fail cleanly (error, no
// panic) or decode without touching memory it should not.
func TestBinaryRejectsCorrupt(t *testing.T) {
	s := sampleSnapshots()[3]
	data, err := Binary{}.Encode(&s)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut++ {
		var out Snapshot
		_ = (Binary{}).Decode(data[:cut], &out) // must not panic
	}
	for i := range data {
		mut := bytes.Clone(data)
		mut[i] ^= 0xff
		var out Snapshot
		_ = (Binary{}).Decode(mut, &out) // must not panic
	}
	if err := (Binary{}).Decode(data, &Neighbors{}); err == nil {
		t.Error("kind mismatch not rejected")
	}
	if _, err := (Binary{}).Encode(map[string]int{"no": 1}); err == nil {
		t.Error("unsupported type not rejected")
	}
}

// TestInterning asserts the size win interning is there for: a snapshot
// whose nodes repeat the same attribute keys should not pay per-node for
// the key strings.
func TestInterning(t *testing.T) {
	many := Snapshot{At: 1, NumNodes: 200}
	for i := 0; i < 200; i++ {
		many.Nodes = append(many.Nodes, Node{
			ID:    int64(i),
			Attrs: map[string]string{"affiliation_long_key_name": "x", "department_long_key_name": "y"},
		})
	}
	bdata, err := Binary{}.Encode(&many)
	if err != nil {
		t.Fatal(err)
	}
	jdata, err := JSON{}.Encode(&many)
	if err != nil {
		t.Fatal(err)
	}
	if len(bdata)*3 > len(jdata) {
		t.Errorf("binary %d bytes vs JSON %d bytes: expected at least 3x smaller on repeated keys", len(bdata), len(jdata))
	}
	var got Snapshot
	if err := (Binary{}).Decode(bdata, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, many) {
		t.Error("interned snapshot did not round-trip")
	}
}
