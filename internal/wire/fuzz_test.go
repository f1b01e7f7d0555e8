package wire

// FuzzWireRoundTrip: derive a response struct from the fuzz input, assert
// binary decode(encode(x)) == x exactly, hold the one-pass list decoders to
// the element-by-element ones on the raw input, and throw the raw input at
// the decoder for every message type to shake out panics and allocation
// bombs. FuzzStreamFrames (end of file) does the same for the frame layer
// of both stream kinds. Run with:
//
//	go test ./internal/wire -fuzz FuzzWireRoundTrip

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"

	"historygraph/internal/graph"
)

// structGen deterministically consumes fuzz bytes to build wire structs.
type structGen struct {
	data []byte
	pos  int
}

func (g *structGen) byte() byte {
	if g.pos >= len(g.data) {
		return 0
	}
	b := g.data[g.pos]
	g.pos++
	return b
}

func (g *structGen) i64() int64 {
	v := int64(0)
	for i := 0; i < 8; i++ {
		v = v<<8 | int64(g.byte())
	}
	return v
}

func (g *structGen) n(max int) int { return int(g.byte()) % max }

func (g *structGen) str() string {
	n := g.n(12)
	if g.pos+n > len(g.data) {
		n = len(g.data) - g.pos
	}
	s := string(g.data[g.pos : g.pos+n])
	g.pos += n
	return s
}

func (g *structGen) attrs() map[string]string {
	switch g.byte() % 3 {
	case 0:
		return nil
	case 1:
		return map[string]string{}
	default:
		m := make(map[string]string)
		for i, k := 0, g.n(4); i < k; i++ {
			m[g.str()] = g.str()
		}
		return m
	}
}

func (g *structGen) nodes() []Node {
	if g.byte()%4 == 0 {
		return nil
	}
	out := make([]Node, 0, 4)
	for i, k := 0, g.n(5); i < k; i++ {
		out = append(out, Node{ID: g.i64(), Attrs: g.attrs()})
	}
	return out
}

func (g *structGen) edges() []Edge {
	if g.byte()%4 == 0 {
		return nil
	}
	out := make([]Edge, 0, 4)
	for i, k := 0, g.n(5); i < k; i++ {
		out = append(out, Edge{
			ID: g.i64(), From: g.i64(), To: g.i64(),
			Directed: g.byte()%2 == 1, Attrs: g.attrs(),
		})
	}
	return out
}

func (g *structGen) partial() []PartitionError {
	if g.byte()%3 == 0 {
		return nil
	}
	out := make([]PartitionError, 0, 3)
	for i, k := 0, g.n(4); i < k; i++ {
		out = append(out, PartitionError{Partition: g.n(16), Status: g.n(600), Error: g.str()})
	}
	return out
}

func (g *structGen) events() graph.EventList {
	if g.byte()%4 == 0 {
		return nil
	}
	out := make(graph.EventList, 0, 4)
	for i, k := 0, g.n(5); i < k; i++ {
		ev := graph.Event{
			Type: graph.AddNode + graph.EventType(g.n(8)), At: graph.Time(g.i64()),
			Node: graph.NodeID(g.i64()), Node2: graph.NodeID(g.i64()),
			Edge: graph.EdgeID(g.i64()), Directed: g.byte()%2 == 1, Attr: g.str(),
		}
		if g.byte()%2 == 1 {
			ev.Old, ev.HadOld = g.str(), true
		}
		if g.byte()%2 == 1 {
			ev.New, ev.HasNew = g.str(), true
		}
		out = append(out, ev)
	}
	return out
}

func (g *structGen) snapshot() Snapshot {
	return Snapshot{
		At: g.i64(), NumNodes: g.n(1 << 16), NumEdges: g.n(1 << 16),
		Cached: g.byte()%2 == 1, Coalesced: g.byte()%2 == 1,
		Nodes: g.nodes(), Edges: g.edges(), Partial: g.partial(),
	}
}

func FuzzWireRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("deltagraph"))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 250, 251, 252, 253, 254, 255})
	seed, _ := Binary{}.Encode(&Snapshot{At: 3, NumNodes: 1, Nodes: []Node{{ID: 1}}})
	f.Add(seed)
	// Element lists for the one-pass decoders (checkListDecoders reads the
	// first byte as a count and the rest as a node list, then as an edge
	// list): a varint running past the end, a direction byte of 2, a node
	// with attributes after bare ones, and a list cut mid-element.
	f.Add([]byte{1, 0x80})
	f.Add([]byte{1, 0x02, 0x02, 0x04, 0x02, 0x00})
	f.Add([]byte{3, 0x02, 0x00, 0x02, 0x00, 0x02, 0x01, 0x01, 0x00, 0x01, 'a', 0x01, 'b'})
	f.Add([]byte{2, 0x02, 0x02, 0x04, 0x00, 0x00, 0x02, 0x02})

	f.Fuzz(func(t *testing.T, data []byte) {
		g := &structGen{data: data}
		var in, out any
		switch g.byte() % 6 {
		case 0:
			s := g.snapshot()
			in, out = &s, &Snapshot{}
		case 1:
			batch := make([]Snapshot, 0, 3)
			for i, k := 0, g.n(4); i < k; i++ {
				batch = append(batch, g.snapshot())
			}
			in, out = batch, &[]Snapshot{}
		case 2:
			nb := Neighbors{At: g.i64(), Node: g.i64(), Degree: g.n(1 << 16), Cached: g.byte()%2 == 1, Partial: g.partial()}
			if g.byte()%4 != 0 {
				nb.Neighbors = make([]int64, 0, 4)
				for i, k := 0, g.n(6); i < k; i++ {
					nb.Neighbors = append(nb.Neighbors, g.i64())
				}
			}
			in, out = &nb, &Neighbors{}
		case 3:
			iv := Interval{
				Start: g.i64(), End: g.i64(), NumNodes: g.n(1 << 16), NumEdges: g.n(1 << 16),
				Nodes: g.nodes(), Edges: g.edges(), Transients: g.events(), Partial: g.partial(),
			}
			in, out = &iv, &Interval{}
		case 4:
			ar := AppendResult{
				Appended: g.n(1 << 16), LastTime: g.i64(), Invalidated: g.n(1 << 16),
				Seq: uint64(g.i64()), Deduped: g.byte()%2 == 1, Partial: g.partial(),
			}
			in, out = &ar, &AppendResult{}
		default:
			evs := g.events()
			in, out = evs, &graph.EventList{}
		}
		enc, err := Binary{}.Encode(in)
		if err != nil {
			t.Fatalf("encode %T: %v", in, err)
		}
		if err := (Binary{}).Decode(enc, out); err != nil {
			t.Fatalf("decode %T: %v (input %#v)", out, err, in)
		}
		// Compare pointee to pointee ([]T inputs are passed by value).
		want := in
		if rv := reflect.ValueOf(in); rv.Kind() == reflect.Ptr {
			want = rv.Elem().Interface()
		}
		got := reflect.ValueOf(out).Elem().Interface()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("roundtrip mismatch\n got: %#v\nwant: %#v", got, want)
		}

		// Snapshots additionally round-trip through the chunked stream
		// encoding, at a fuzz-chosen run size — boundaries must be
		// invisible and the assembled struct exact.
		if snap, ok := want.(Snapshot); ok {
			runSize := int(g.byte())%97 + 1
			var buf bytes.Buffer
			if err := EncodeSnapshotStream(&buf, &snap, runSize); err != nil {
				t.Fatalf("stream encode (run=%d): %v", runSize, err)
			}
			streamed, err := DecodeSnapshotStream(&buf)
			if err != nil {
				t.Fatalf("stream decode (run=%d): %v (input %#v)", runSize, err, snap)
			}
			// The stream form spells empty element lists as nil (zero run
			// frames either way); JSON output is identical for both.
			if len(snap.Nodes) == 0 {
				snap.Nodes = nil
			}
			if len(snap.Edges) == 0 {
				snap.Edges = nil
			}
			if !reflect.DeepEqual(*streamed, snap) {
				t.Fatalf("stream roundtrip mismatch (run=%d)\n got: %#v\nwant: %#v", runSize, *streamed, snap)
			}
		}

		checkListDecoders(t, data)

		// The decoder must survive arbitrary bytes for every target type.
		_ = (Binary{}).Decode(data, &Snapshot{})
		_ = (Binary{}).Decode(data, &[]Snapshot{})
		_ = (Binary{}).Decode(data, &Neighbors{})
		_ = (Binary{}).Decode(data, &Interval{})
		_ = (Binary{}).Decode(data, &AppendResult{})
		_ = (Binary{}).Decode(data, &graph.EventList{})
		_ = (Binary{}).Decode(data, &ExprRequest{})

		// So must the stream decoder — raw bytes, and raw bytes behind a
		// valid stream header (so corruption reaches the frame layer).
		if s, err := DecodeSnapshotStream(bytes.NewReader(data)); err == nil && s == nil {
			t.Fatal("stream decode returned nil snapshot without error")
		}
		framed := append([]byte{binaryMagic, binaryVersion, kindSnapshotStream}, data...)
		_, _ = DecodeSnapshotStream(bytes.NewReader(framed))
	})
}

// checkListDecoders reads data's first byte as an element count and the
// rest as a list of that many nodes, then edges, with the one-pass decoders
// and with decodeNode and decodeEdge element by element, the checked reads
// they stand in for: the same elements, the same delta state, the same error
// and the same position after.
func checkListDecoders(t *testing.T, data []byte) {
	t.Helper()
	if len(data) == 0 {
		return
	}
	n := int(data[0])
	type run struct {
		d    *Decoder
		prev int64
		out  any
	}
	for _, nodes := range []bool{true, false} {
		fast, ref := run{d: NewDecoder(data)}, run{d: NewDecoder(data)}
		fast.d.pos, ref.d.pos = 1, 1
		if nodes {
			fast.out = appendNodes(fast.d, nil, n, &fast.prev)
			var out []Node
			for i := 0; i < n && ref.d.Err() == nil; i++ {
				out = append(out, decodeNode(ref.d, &ref.prev))
			}
			ref.out = out
		} else {
			fast.out = appendEdges(fast.d, nil, n, &fast.prev)
			var out []Edge
			for i := 0; i < n && ref.d.Err() == nil; i++ {
				out = append(out, decodeEdge(ref.d, &ref.prev))
			}
			ref.out = out
		}
		if !reflect.DeepEqual(fast.out, ref.out) || fast.prev != ref.prev || fast.d.pos != ref.d.pos ||
			fmt.Sprint(fast.d.Err()) != fmt.Sprint(ref.d.Err()) || !reflect.DeepEqual(fast.d.keys, ref.d.keys) {
			t.Fatalf("nodes %t over %x: one pass %#v (prev %d, at %d, %v), element by element %#v (prev %d, at %d, %v)",
				nodes, data, fast.out, fast.prev, fast.d.pos, fast.d.Err(), ref.out, ref.prev, ref.d.pos, ref.d.Err())
		}
	}
}

// drainSnapshotStream and drainAppendStream decode a whole stream of their
// kind and report whether it ran to its terminating frame, plus the frame
// buffer capacity the decoder ended up holding.
func drainSnapshotStream(data []byte) (complete bool, bufCap int, err error) {
	sd, err := NewStreamDecoder(bytes.NewReader(data))
	if err != nil {
		return false, 0, err
	}
	for {
		frame, err := sd.Next()
		if err != nil {
			return false, cap(sd.fr.buf), err
		}
		if frame.Summary != nil {
			return true, cap(sd.fr.buf), nil
		}
	}
}

func drainAppendStream(data []byte) (complete bool, bufCap int, err error) {
	d, err := NewAppendStreamDecoder(bytes.NewReader(data))
	if err != nil {
		return false, 0, err
	}
	for {
		if _, err := d.Next(); err == io.EOF {
			return true, cap(d.fr.buf), nil
		} else if err != nil {
			return false, cap(d.fr.buf), err
		}
	}
}

// FuzzStreamFrames throws arbitrary bytes at both stream decoders — raw,
// and behind a valid header so corruption reaches the frame layer — and
// cuts a valid stream of each kind, built from the same input, at every
// length: no panic, no frame buffer past maxStreamFrame, and a truncated
// stream always errors instead of answering short. Run with:
//
//	go test ./internal/wire -fuzz FuzzStreamFrames
func FuzzStreamFrames(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("deltagraph"))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 250, 251, 252, 253, 254, 255})
	// A length prefix one past the bound, and a huge one: both must fail
	// before any frame buffer is allocated.
	f.Add(binary.AppendUvarint(nil, maxStreamFrame+1))
	f.Add(binary.AppendUvarint(nil, 1<<62))
	// A plausible length with no body behind it.
	f.Add(append(binary.AppendUvarint(nil, 4096), frameNodes))

	kinds := []struct {
		kind  byte
		drain func([]byte) (bool, int, error)
	}{
		{kindSnapshotStream, drainSnapshotStream},
		{kindAppendStream, drainAppendStream},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &structGen{data: data}
		snap := g.snapshot()
		var valid [2]bytes.Buffer
		if err := EncodeSnapshotStream(&valid[0], &snap, int(g.byte())%7+1); err != nil {
			t.Fatalf("snapshot stream encode: %v", err)
		}
		enc := NewAppendStreamEncoder(&valid[1])
		for i, k := 0, g.n(4); i < k; i++ {
			if err := enc.Events(g.str(), g.events()); err != nil {
				t.Fatalf("append stream encode: %v", err)
			}
		}
		if err := enc.End(); err != nil {
			t.Fatalf("append stream end: %v", err)
		}

		for i, k := range kinds {
			for _, in := range [][]byte{data, append([]byte{binaryMagic, binaryVersion, k.kind}, data...)} {
				if _, bufCap, _ := k.drain(in); bufCap > maxStreamFrame {
					t.Fatalf("kind 0x%02x: frame buffer grew to %d bytes (max %d)", k.kind, bufCap, maxStreamFrame)
				}
			}
			full := valid[i].Bytes()
			if complete, _, err := k.drain(full); !complete {
				t.Fatalf("kind 0x%02x: valid stream failed: %v", k.kind, err)
			}
			for cut := 0; cut < len(full); cut++ {
				complete, _, err := k.drain(full[:cut])
				if complete || err == nil {
					t.Fatalf("kind 0x%02x: cut at %d/%d decoded as a complete stream", k.kind, cut, len(full))
				}
				// Past the 3-byte header every cut is a frame-layer
				// truncation and must say so.
				if cut >= 3 && !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("kind 0x%02x: cut at %d/%d: %v does not wrap io.ErrUnexpectedEOF", k.kind, cut, len(full), err)
				}
			}
		}
	})
}
