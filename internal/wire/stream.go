package wire

// The streaming form of the binary snapshot encoding: element-run
// chunking. A whole-message binary snapshot ('D' ver kindSnapshot body)
// must be materialized fully — all nodes, all edges, one contiguous
// buffer — before the first byte is written. The stream form cuts the
// same body into a sequence of bounded *element runs* so a server can
// write (and a client consume) a snapshot of any size with memory
// proportional to one run:
//
//	stream  := 'D' version kindSnapshotStream frame*
//	frame   := uvarint(len) body           ; len counts the body bytes
//	body    := frameNodes | frameEdges | frameSummary
//
//	frameNodes   := 0x01 uvarint(count) node*   ; delta/intern state
//	frameEdges   := 0x02 uvarint(count) edge*   ;   carries across frames
//	frameSummary := 0x0F at num_nodes num_edges cached coalesced partial
//
// Node and edge elements use the exact encoding of the whole-message
// codec. ID delta-coding and the attribute-key intern table do NOT reset
// between frames — a run boundary costs only the frame header, so the
// stream body is within a few bytes per run of the whole-message body.
// Frames arrive in phase order: every node run precedes every edge run,
// and the summary frame terminates the stream. A reader that hits EOF
// before the summary frame has seen a truncated stream (for example a
// worker that died mid-response) and must treat the data as incomplete —
// the summary frame doubles as the integrity marker.
//
// The summary carries the element counts and response flags at the END
// of the stream (not the start) so a producer can stream a merge whose
// membership it only learns as upstream runs arrive — the shard
// coordinator merges N worker streams this way.

import (
	"fmt"
	"io"
	"strings"
)

// kindSnapshotStream frames a chunked snapshot stream (see package
// overview; whole-message kinds stop at kindExprRequest).
const kindSnapshotStream = 0x08

// Stream frame type bytes.
const (
	frameNodes   = 0x01
	frameEdges   = 0x02
	frameSummary = 0x0F
)

// ContentTypeBinaryStream is the MIME type of a chunked snapshot stream,
// and the Accept value that requests one. It extends ContentTypeBinary
// textually, so a pre-streaming server that substring-matches the binary
// type in Accept answers whole-message binary — a streaming client
// degrades gracefully against any older server.
const ContentTypeBinaryStream = ContentTypeBinary + "-stream"

// NameBinaryStream is the short name of the streaming encoding ("stream")
// — what cache keys, flags, and stats use. It is not a Codec: a stream is
// produced and consumed incrementally, not through Encode/Decode.
const NameBinaryStream = "stream"

// DefaultRunSize is how many elements one stream frame carries when the
// producer does not choose otherwise. Peak encode memory is proportional
// to this, so it trades per-frame overhead (a few bytes) against the
// memory bound.
const DefaultRunSize = 2048

// MaxCachedBody bounds the size of one response body an encoded-bytes
// cache (worker or coordinator) will capture off a stream. Without a
// cap, teeing a pathologically large stream into a cache buffer would
// re-materialize in memory exactly what streaming exists to avoid.
const MaxCachedBody = 8 << 20

// CappedBuffer tees stream bytes into memory for an encoded-bytes cache,
// giving up (and freeing what it held) once the body exceeds Max. Write
// never fails: a capture problem must not break the live response the
// buffer is teed off.
type CappedBuffer struct {
	Max      int
	buf      []byte
	overflow bool
}

// Write implements io.Writer.
func (b *CappedBuffer) Write(p []byte) (int, error) {
	if !b.overflow {
		if len(b.buf)+len(p) > b.Max {
			b.overflow = true
			b.buf = nil
		} else {
			b.buf = append(b.buf, p...)
		}
	}
	return len(p), nil
}

// Bytes returns the captured body and whether it is complete (false once
// the cap was exceeded — the partial capture is already discarded).
func (b *CappedBuffer) Bytes() ([]byte, bool) {
	if b.overflow {
		return nil, false
	}
	return b.buf, true
}

// WantsStream reports whether an Accept header asks for the chunked
// snapshot stream. Only the full /snapshot data plane honors it;
// endpoints without a streamable shape fall back to Negotiate's answer.
func WantsStream(accept string) bool {
	return strings.Contains(accept, ContentTypeBinaryStream)
}

// IsStreamContentType reports whether a response body is a chunked
// snapshot stream. Check it before ForContentType: the stream MIME type
// extends the binary one, so prefix-matching the binary type alone would
// misroute stream bodies into the whole-message decoder.
func IsStreamContentType(ct string) bool {
	return strings.Contains(ct, ContentTypeBinaryStream)
}

// StreamEncoder writes one chunked snapshot stream. Not safe for
// concurrent use; allocate one per response. The frame buffer is reused
// across runs, so encoding an arbitrarily large snapshot allocates
// proportionally to the largest single run.
type StreamEncoder struct {
	frameWriter
	prevNode int64 // node ID delta state, carried across frames
	prevEdge int64 // edge ID delta state, carried across frames
}

// NewStreamEncoder returns a stream encoder over w. Nothing is written
// until the first frame (so a handler can still fail cleanly before
// committing to a response).
func NewStreamEncoder(w io.Writer) *StreamEncoder {
	return &StreamEncoder{frameWriter: newFrameWriter(w, kindSnapshotStream)}
}

// Nodes writes one run of nodes. Runs must be globally sorted by ID
// across the whole stream (each run continues the previous run's delta
// coding), and every node run must precede the first edge run.
func (se *StreamEncoder) Nodes(run []Node) error {
	se.enc.Byte(frameNodes)
	se.enc.Uvarint(uint64(len(run)))
	for i := range run {
		se.enc.Varint(run[i].ID - se.prevNode)
		se.prevNode = run[i].ID
		encodeAttrs(se.enc, run[i].Attrs)
	}
	return se.writeFrame()
}

// Edges writes one run of edges, globally sorted by ID across the stream.
func (se *StreamEncoder) Edges(run []Edge) error {
	se.enc.Byte(frameEdges)
	se.enc.Uvarint(uint64(len(run)))
	for i := range run {
		ed := &run[i]
		se.enc.Varint(ed.ID - se.prevEdge)
		se.prevEdge = ed.ID
		se.enc.Varint(ed.From)
		se.enc.Varint(ed.To)
		se.enc.Bool(ed.Directed)
		encodeAttrs(se.enc, ed.Attrs)
	}
	return se.writeFrame()
}

// Summary terminates the stream with the response metadata: s's At,
// counts, flags and Partial list (its Nodes/Edges are ignored — they were
// the runs). No frame may follow it.
func (se *StreamEncoder) Summary(s *Snapshot) error {
	se.enc.Byte(frameSummary)
	se.enc.Varint(s.At)
	se.enc.Varint(int64(s.NumNodes))
	se.enc.Varint(int64(s.NumEdges))
	se.enc.Bool(s.Cached)
	se.enc.Bool(s.Coalesced)
	encodePartial(se.enc, s.Partial)
	return se.writeLast()
}

// EncodeSnapshotStream writes s as a chunked stream in runs of runSize
// elements (0 picks DefaultRunSize) — the whole-struct convenience
// producer, used where the snapshot already exists in memory (tests, the
// synthetic client fallback). Handlers that want the memory bound stream
// runs directly off their data source instead.
//
// One representational loss vs the whole-message codec: an empty element
// list and a nil one both produce zero run frames, so assembly yields nil
// for both. JSON output is unaffected (omitempty drops both spellings).
func EncodeSnapshotStream(w io.Writer, s *Snapshot, runSize int) error {
	if runSize <= 0 {
		runSize = DefaultRunSize
	}
	se := NewStreamEncoder(w)
	for lo := 0; lo < len(s.Nodes); lo += runSize {
		hi := min(lo+runSize, len(s.Nodes))
		if err := se.Nodes(s.Nodes[lo:hi]); err != nil {
			return err
		}
	}
	for lo := 0; lo < len(s.Edges); lo += runSize {
		hi := min(lo+runSize, len(s.Edges))
		if err := se.Edges(s.Edges[lo:hi]); err != nil {
			return err
		}
	}
	return se.Summary(s)
}

// StreamFrame is one decoded frame: a node run, an edge run, or the
// terminating summary (exactly one field is populated).
type StreamFrame struct {
	Nodes   []Node
	Edges   []Edge
	Summary *Snapshot
}

// StreamDecoder reads a chunked snapshot stream frame by frame. Not safe
// for concurrent use.
type StreamDecoder struct {
	fr       frameReader
	prevNode int64
	prevEdge int64
	nodesBuf []Node // element scratch, reused per frame
	edgesBuf []Edge
}

// NewStreamDecoder wraps r and consumes the stream header. A reader whose
// first bytes are not a snapshot-stream header fails here, so a caller
// can still fall back to the whole-message decoder on the buffered bytes.
func NewStreamDecoder(r io.Reader) (*StreamDecoder, error) {
	fr, err := newFrameReader(r, kindSnapshotStream, "snapshot stream")
	if err != nil {
		return nil, err
	}
	return &StreamDecoder{fr: fr}, nil
}

// Next returns the next frame. After the summary frame has been returned,
// Next reports io.EOF. EOF from the underlying reader before the summary
// means the producer died mid-stream: Next returns an error (wrapping
// io.ErrUnexpectedEOF), never a silent short result.
//
// The returned frame's element slices are scratch reused by the next
// Next call — consume (or copy) a frame before pulling the next one.
// Appending the elements elsewhere copies them; only holding the slices
// themselves across calls aliases.
func (sd *StreamDecoder) Next() (*StreamFrame, error) {
	typ, d, err := sd.fr.next()
	if err != nil {
		return nil, err
	}
	out := &StreamFrame{}
	switch typ {
	case frameNodes:
		n := d.Len()
		if cap(sd.nodesBuf) < n {
			sd.nodesBuf = make([]Node, 0, n)
		}
		nodes := sd.nodesBuf[:0]
		for i := 0; i < n && d.Err() == nil; i++ {
			sd.prevNode += d.Varint()
			nodes = append(nodes, Node{ID: sd.prevNode, Attrs: decodeAttrs(d)})
		}
		sd.nodesBuf, out.Nodes = nodes, nodes
	case frameEdges:
		n := d.Len()
		if cap(sd.edgesBuf) < n {
			sd.edgesBuf = make([]Edge, 0, n)
		}
		edges := sd.edgesBuf[:0]
		for i := 0; i < n && d.Err() == nil; i++ {
			sd.prevEdge += d.Varint()
			edges = append(edges, Edge{
				ID: sd.prevEdge, From: d.Varint(), To: d.Varint(),
				Directed: d.Bool(), Attrs: decodeAttrs(d),
			})
		}
		sd.edgesBuf, out.Edges = edges, edges
	case frameSummary:
		out.Summary = &Snapshot{
			At:       d.Varint(),
			NumNodes: int(d.Varint()),
			NumEdges: int(d.Varint()),
			Cached:   d.Bool(), Coalesced: d.Bool(),
			Partial: decodePartial(d),
		}
	default:
		return nil, sd.fr.fail(fmt.Errorf("wire: unknown stream frame type 0x%02x", typ))
	}
	if err := sd.fr.end(typ, out.Summary != nil); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeSnapshotStream consumes a whole stream from r and assembles the
// full Snapshot — the client-side convenience consumer. Incremental
// consumers (the shard coordinator's merge) drive StreamDecoder.Next
// themselves and never hold more than a run.
func DecodeSnapshotStream(r io.Reader) (*Snapshot, error) {
	sd, err := NewStreamDecoder(r)
	if err != nil {
		return nil, err
	}
	return sd.Collect()
}

// Collect drains the remaining frames into one assembled Snapshot: the
// summary frame's metadata with the concatenated node and edge runs.
func (sd *StreamDecoder) Collect() (*Snapshot, error) {
	var nodes []Node
	var edges []Edge
	for {
		frame, err := sd.Next()
		if err != nil {
			return nil, err
		}
		switch {
		case frame.Summary != nil:
			out := *frame.Summary
			out.Nodes, out.Edges = nodes, edges
			return &out, nil
		case frame.Nodes != nil:
			nodes = append(nodes, frame.Nodes...)
		case frame.Edges != nil:
			edges = append(edges, frame.Edges...)
		}
	}
}
