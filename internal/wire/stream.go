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
	"encoding/binary"
	"fmt"
	"io"
	"strings"

	"historygraph/internal/graph"
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
// cache (worker or coordinator) will keep, whole-message or captured off a
// stream. Without a cap, teeing a pathologically large stream into a
// cache buffer would re-materialize in memory exactly what streaming
// exists to avoid.
const MaxCachedBody = 8 << 20

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

// StreamEncoder writes one chunked snapshot stream, element by element:
// it cuts the elements into runs of at most runSize and writes each run as
// one frame, so no producer keeps a run buffer or a chunking loop of its
// own. A full run is written when the next element arrives, or when the
// producer ends it (EndRun, Summary): an ordered walk of the pool ends each
// of its runs with the pool's lock let go of, so no write or flush happens
// under it. Not safe for concurrent use; allocate one per response.
// Elements are encoded straight into the frame buffer, which is reused
// across runs, so encoding an arbitrarily large snapshot allocates
// proportionally to the largest single run. It is a graphpool.Sink.
type StreamEncoder struct {
	frameWriter
	// AfterRun, when set, runs after every element-run frame reaches the
	// writer (an HTTP handler flushes there, so a slow client reads data
	// while the walk continues). The summary frame does not trigger it.
	AfterRun func()
	runSize  int
	kind     byte  // frame type of the open run
	count    int   // elements encoded into the open run so far
	prevNode int64 // node ID delta state, carried across frames
	prevEdge int64 // edge ID delta state, carried across frames
}

// NewStreamEncoder returns a stream encoder over w cutting runs of runSize
// elements (0 picks DefaultRunSize). Nothing is written until the first
// frame (so a handler can still fail cleanly before committing to a
// response).
func NewStreamEncoder(w io.Writer, runSize int) *StreamEncoder {
	if runSize <= 0 {
		runSize = DefaultRunSize
	}
	return &StreamEncoder{frameWriter: newFrameWriter(w, kindSnapshotStream), runSize: runSize}
}

// RunSize returns how many elements a run holds at most.
func (se *StreamEncoder) RunSize() int { return se.runSize }

// Node adds one node. Nodes must arrive globally sorted by ID (each
// continues the previous one's delta coding), and every node must precede
// the first edge.
func (se *StreamEncoder) Node(n Node) error {
	if err := se.begin(frameNodes); err != nil {
		return err
	}
	encodeNode(se.enc, &se.prevNode, &n)
	return nil
}

// Edge adds one edge; edges arrive globally sorted by ID.
func (se *StreamEncoder) Edge(ed Edge) error {
	if err := se.begin(frameEdges); err != nil {
		return err
	}
	encodeEdge(se.enc, &se.prevEdge, &ed)
	return nil
}

// PutNode is Node for a node given as its ID and its values' pairs in
// ascending name order (graphpool.Sink).
func (se *StreamEncoder) PutNode(id graph.NodeID, attrs []graph.Attr) error {
	if err := se.begin(frameNodes); err != nil {
		return err
	}
	writeNodeID(se.enc, &se.prevNode, int64(id))
	writePairs(se.enc, attrs)
	return nil
}

// PutEdge is Edge for an edge given as its ID, endpoints and pairs.
func (se *StreamEncoder) PutEdge(id graph.EdgeID, info graph.EdgeInfo, attrs []graph.Attr) error {
	if err := se.begin(frameEdges); err != nil {
		return err
	}
	writeEdgeHead(se.enc, &se.prevEdge, int64(id), info)
	writePairs(se.enc, attrs)
	return nil
}

// begin counts one more element of kind into the open run, writing out an
// open run of the other type, or a full one, first.
func (se *StreamEncoder) begin(kind byte) error {
	if se.done {
		return errFrameAfterLast
	}
	if se.kind != kind || se.count == se.runSize {
		if err := se.EndRun(); err != nil {
			return err
		}
		se.kind = kind
	}
	se.count++
	return nil
}

// EndRun writes the open run, if it holds anything, as one frame, and then
// runs AfterRun. The frame leads with the run's type and element count,
// known only now.
func (se *StreamEncoder) EndRun() error {
	if se.count == 0 {
		return nil
	}
	var head [1 + binary.MaxVarintLen64]byte
	head[0] = se.kind
	n := 1 + binary.PutUvarint(head[1:], uint64(se.count))
	se.count = 0
	if err := se.writeFrame(head[:n]); err != nil {
		return err
	}
	if se.AfterRun != nil {
		se.AfterRun()
	}
	return nil
}

// Summary writes out the open run and terminates the stream with the
// response metadata: s's At, counts, flags and Partial list (its
// Nodes/Edges are ignored — they were the runs). Nothing may follow it.
func (se *StreamEncoder) Summary(s *Snapshot) error {
	if err := se.EndRun(); err != nil {
		return err
	}
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
// elements directly off their data source instead.
//
// One representational loss vs the whole-message codec: an empty element
// list and a nil one both produce zero run frames, so assembly yields nil
// for both. JSON output is unaffected (omitempty drops both spellings).
func EncodeSnapshotStream(w io.Writer, s *Snapshot, runSize int) error {
	se := NewStreamEncoder(w, runSize)
	for _, n := range s.Nodes {
		if err := se.Node(n); err != nil {
			return err
		}
	}
	for _, ed := range s.Edges {
		if err := se.Edge(ed); err != nil {
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
		nodes := appendNodes(d, sd.nodesBuf[:0], n, &sd.prevNode)
		sd.nodesBuf, out.Nodes = nodes, nodes
	case frameEdges:
		n := d.Len()
		if cap(sd.edgesBuf) < n {
			sd.edgesBuf = make([]Edge, 0, n)
		}
		edges := appendEdges(d, sd.edgesBuf[:0], n, &sd.prevEdge)
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
