package wire

// The streaming encoding's contract: a stream assembles to exactly the
// struct the whole-message codec would have carried, run boundaries are
// invisible, corruption and truncation fail cleanly (never panic, never
// silently shorten a snapshot), and the decoder survives arbitrary bytes.

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"
)

func streamTestSnapshot() Snapshot {
	s := Snapshot{At: 42, Cached: true}
	for i := 0; i < 1000; i++ {
		n := Node{ID: int64(i * 3)}
		if i%2 == 0 {
			n.Attrs = map[string]string{"name": "n", "kind": "k"}
		}
		s.Nodes = append(s.Nodes, n)
	}
	for i := 0; i < 700; i++ {
		e := Edge{ID: int64(i * 5), From: int64(i), To: int64(i + 1), Directed: i%3 == 0}
		if i%4 == 0 {
			e.Attrs = map[string]string{"weight": "2"}
		}
		s.Edges = append(s.Edges, e)
	}
	s.NumNodes, s.NumEdges = len(s.Nodes), len(s.Edges)
	return s
}

// TestStreamRoundTrip: encode in several run sizes (including ones that
// do not divide the element counts), decode, compare structs exactly.
func TestStreamRoundTrip(t *testing.T) {
	snap := streamTestSnapshot()
	for _, runSize := range []int{1, 7, 256, 100000} {
		var buf bytes.Buffer
		if err := EncodeSnapshotStream(&buf, &snap, runSize); err != nil {
			t.Fatalf("run=%d: encode: %v", runSize, err)
		}
		got, err := DecodeSnapshotStream(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("run=%d: decode: %v", runSize, err)
		}
		if !reflect.DeepEqual(*got, snap) {
			t.Fatalf("run=%d: roundtrip mismatch", runSize)
		}
	}
}

// TestStreamInterningSpansRuns: the same attribute key repeated across
// many runs must be written once — run boundaries cost frame headers,
// not a reset of the intern table.
func TestStreamInterningSpansRuns(t *testing.T) {
	s := Snapshot{}
	for i := 0; i < 512; i++ {
		s.Nodes = append(s.Nodes, Node{ID: int64(i), Attrs: map[string]string{"sharedkey1234567": "v"}})
	}
	s.NumNodes = len(s.Nodes)
	var one, many bytes.Buffer
	if err := EncodeSnapshotStream(&one, &s, len(s.Nodes)); err != nil {
		t.Fatal(err)
	}
	if err := EncodeSnapshotStream(&many, &s, 8); err != nil {
		t.Fatal(err)
	}
	// 64 frames instead of 1 cost at most a few bytes each; a reset
	// intern table would re-write the 16-byte key 511 times.
	if delta := many.Len() - one.Len(); delta > 64*4 {
		t.Fatalf("chunked stream %d bytes vs whole %d: run boundaries are not cheap (interning reset?)", many.Len(), one.Len())
	}
	got, err := DecodeSnapshotStream(&many)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*got, s) {
		t.Fatal("chunked roundtrip mismatch")
	}
}

// TestStreamEmpty: a snapshot with no elements is just a summary frame.
func TestStreamEmpty(t *testing.T) {
	s := Snapshot{At: 7, NumNodes: 0, NumEdges: 0}
	var buf bytes.Buffer
	if err := EncodeSnapshotStream(&buf, &s, 0); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshotStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*got, s) {
		t.Fatalf("got %#v want %#v", *got, s)
	}
}

// TestStreamTruncation: cutting the stream anywhere before the summary
// frame must produce an error — the summary is the integrity marker a
// consumer uses to tell a complete stream from a dead producer.
func TestStreamTruncation(t *testing.T) {
	snap := streamTestSnapshot()
	var buf bytes.Buffer
	if err := EncodeSnapshotStream(&buf, &snap, 64); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{0, 1, 2, 3, 10, len(full) / 2, len(full) - 1} {
		if _, err := DecodeSnapshotStream(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d decoded successfully", cut, len(full))
		}
	}
	if _, err := DecodeSnapshotStream(bytes.NewReader(full)); err != nil {
		t.Fatalf("untruncated stream failed: %v", err)
	}
}

// TestStreamCorruption: flipping bytes must fail decode cleanly (error,
// not panic, not a giant allocation) or — when the flip hits element
// payload bytes — still decode to *some* snapshot without crashing.
func TestStreamCorruption(t *testing.T) {
	snap := streamTestSnapshot()
	snap.Nodes, snap.Edges = snap.Nodes[:120], snap.Edges[:80] // keep the flip sweep fast
	snap.NumNodes, snap.NumEdges = 120, 80
	var buf bytes.Buffer
	if err := EncodeSnapshotStream(&buf, &snap, 64); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for pos := 0; pos < len(full); pos += 13 {
		mut := append([]byte(nil), full...)
		mut[pos] ^= 0xff
		_, _ = DecodeSnapshotStream(bytes.NewReader(mut)) // must not panic
	}
	// A frame-length prefix rewritten to a huge value must be rejected,
	// not allocated.
	mut := append([]byte(nil), full[:3]...)
	mut = append(mut, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)
	if _, err := DecodeSnapshotStream(bytes.NewReader(mut)); err == nil {
		t.Fatal("2^63-byte frame length accepted")
	}
}

// TestStreamTrailingGarbageFrame: bytes after the summary frame are
// never read (the stream ended), and a frame with an unknown type fails.
func TestStreamUnknownFrameType(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{binaryMagic, binaryVersion, kindSnapshotStream})
	buf.Write([]byte{2, 0x7e, 0x00}) // 2-byte frame, unknown type 0x7e
	if _, err := DecodeSnapshotStream(&buf); err == nil || !strings.Contains(err.Error(), "unknown stream frame") {
		t.Fatalf("unknown frame type error missing, got %v", err)
	}
}

// TestStreamNotAStream: the decoder rejects whole-message binary bodies
// and arbitrary prefixes at the header, so callers can fall back.
func TestStreamNotAStream(t *testing.T) {
	whole, err := Binary{}.Encode(&Snapshot{At: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewStreamDecoder(bytes.NewReader(whole)); err == nil {
		t.Fatal("whole-message body accepted as stream")
	}
	if _, err := NewStreamDecoder(bytes.NewReader([]byte("{\"at\":1}"))); err == nil {
		t.Fatal("JSON body accepted as stream")
	}
}

// TestStreamNextAfterSummary: Next reports io.EOF after the summary.
func TestStreamNextAfterSummary(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeSnapshotStream(&buf, &Snapshot{At: 1}, 0); err != nil {
		t.Fatal(err)
	}
	sd, err := NewStreamDecoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := sd.Next()
	if err != nil || frame.Summary == nil {
		t.Fatalf("want summary frame, got %#v, %v", frame, err)
	}
	if _, err := sd.Next(); err != io.EOF {
		t.Fatalf("want io.EOF after summary, got %v", err)
	}
}

// TestStreamWriteAfterSummary: the encoder refuses frames after Summary.
func TestStreamWriteAfterSummary(t *testing.T) {
	var buf bytes.Buffer
	se := NewStreamEncoder(&buf, 0)
	if err := se.Summary(&Snapshot{}); err != nil {
		t.Fatal(err)
	}
	if err := se.Node(Node{ID: 1}); err == nil {
		t.Fatal("node accepted after summary")
	}
}
