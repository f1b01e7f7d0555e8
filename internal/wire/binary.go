package wire

// The binary codec: a compact length-prefixed format for the data-plane
// bodies where JSON encode/decode dominates large-response latency.
//
// Message layout:
//
//	magic 'D' | version 0x01 | kind byte | body
//
// Body primitives (all integers are encoding/binary varints):
//
//	varint    zig-zag signed integer
//	uvarint   unsigned integer
//	bool      one byte, 0 or 1
//	string    uvarint length + raw bytes
//	key       interned string: uvarint ref; 0 = new key (string follows,
//	          appended to the message's key table), n = table[n-1]
//	list      presence byte (0 = nil — JSON's omitted field), else
//	          1 + uvarint count + elements
//	map       presence byte, uvarint count, (key, string) pairs in
//	          ascending key order (deterministic bytes)
//
// Element IDs are delta-coded against the previous element in the list
// (responses sort by ID, so deltas are small); attribute keys and event
// type/attr names are interned once per message. No field names are
// written at all — the kind byte plus position determines meaning.

import (
	"encoding/binary"
	"fmt"
	"sort"

	"historygraph/internal/graph"
)

// binaryMagic and binaryVersion frame every binary message.
const (
	binaryMagic   = 'D'
	binaryVersion = 0x01
)

// Message kind bytes.
const (
	kindSnapshot     = 0x01
	kindSnapshotList = 0x02
	kindNeighbors    = 0x03
	kindInterval     = 0x04
	kindAppendResult = 0x05
	kindEventList    = 0x06
	kindExprRequest  = 0x07
)

// Binary is the compact codec. The zero value is ready to use.
type Binary struct{}

// Name implements Codec.
func (Binary) Name() string { return NameBinary }

// ContentType implements Codec.
func (Binary) ContentType() string { return ContentTypeBinary }

// Encode implements Codec.
func (Binary) Encode(v any) ([]byte, error) {
	e := NewEncoder()
	switch t := v.(type) {
	case *Snapshot:
		e.header(kindSnapshot)
		encodeSnapshot(e, t)
	case Snapshot:
		e.header(kindSnapshot)
		encodeSnapshot(e, &t)
	case []Snapshot:
		e.header(kindSnapshotList)
		e.Uvarint(uint64(len(t)))
		for i := range t {
			encodeSnapshot(e, &t[i])
		}
	case *Neighbors:
		e.header(kindNeighbors)
		encodeNeighbors(e, t)
	case Neighbors:
		e.header(kindNeighbors)
		encodeNeighbors(e, &t)
	case *Interval:
		e.header(kindInterval)
		encodeInterval(e, t)
	case Interval:
		e.header(kindInterval)
		encodeInterval(e, &t)
	case *AppendResult:
		e.header(kindAppendResult)
		encodeAppendResult(e, t)
	case AppendResult:
		e.header(kindAppendResult)
		encodeAppendResult(e, &t)
	case graph.EventList:
		e.header(kindEventList)
		encodeList(e, len(t), t == nil, func(i int) { EncodeEventTo(e, t[i]) })
	case *ExprRequest:
		e.header(kindExprRequest)
		encodeExpr(e, t)
	case ExprRequest:
		e.header(kindExprRequest)
		encodeExpr(e, &t)
	case *PRPrepare:
		e.header(kindPRPrepare)
		encodePRPrepare(e, t)
	case PRPrepare:
		e.header(kindPRPrepare)
		encodePRPrepare(e, &t)
	case *PRPrepared:
		e.header(kindPRPrepared)
		encodePRPrepared(e, t)
	case PRPrepared:
		e.header(kindPRPrepared)
		encodePRPrepared(e, &t)
	case *PRStart:
		e.header(kindPRStart)
		encodePRStart(e, t)
	case PRStart:
		e.header(kindPRStart)
		encodePRStart(e, &t)
	case *PRStepRequest:
		e.header(kindPRStep)
		encodePRStep(e, t)
	case PRStepRequest:
		e.header(kindPRStep)
		encodePRStep(e, &t)
	case *PRStepResult:
		e.header(kindPRStepResult)
		encodePRStepResult(e, t)
	case PRStepResult:
		e.header(kindPRStepResult)
		encodePRStepResult(e, &t)
	default:
		return nil, fmt.Errorf("%w: %T (binary)", ErrUnsupported, v)
	}
	return e.Bytes(), nil
}

// Decode implements Codec.
func (Binary) Decode(data []byte, v any) error {
	d := NewDecoder(data)
	kind, err := d.Header()
	if err != nil {
		return err
	}
	switch t := v.(type) {
	case *Snapshot:
		d.expectKind(kind, kindSnapshot)
		*t = decodeSnapshot(d)
	case *[]Snapshot:
		d.expectKind(kind, kindSnapshotList)
		n := d.Len()
		out := make([]Snapshot, 0, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			out = append(out, decodeSnapshot(d))
		}
		*t = out
	case *Neighbors:
		d.expectKind(kind, kindNeighbors)
		*t = decodeNeighbors(d)
	case *Interval:
		d.expectKind(kind, kindInterval)
		*t = decodeInterval(d)
	case *AppendResult:
		d.expectKind(kind, kindAppendResult)
		*t = decodeAppendResult(d)
	case *graph.EventList:
		d.expectKind(kind, kindEventList)
		*t = decodeEvents(d)
	case *ExprRequest:
		d.expectKind(kind, kindExprRequest)
		*t = decodeExpr(d)
	case *PRPrepare:
		d.expectKind(kind, kindPRPrepare)
		*t = decodePRPrepare(d)
	case *PRPrepared:
		d.expectKind(kind, kindPRPrepared)
		*t = decodePRPrepared(d)
	case *PRStart:
		d.expectKind(kind, kindPRStart)
		*t = decodePRStart(d)
	case *PRStepRequest:
		d.expectKind(kind, kindPRStep)
		*t = decodePRStep(d)
	case *PRStepResult:
		d.expectKind(kind, kindPRStepResult)
		*t = decodePRStepResult(d)
	default:
		return fmt.Errorf("%w: %T (binary)", ErrUnsupported, v)
	}
	return d.Err()
}

// --- encoder ----------------------------------------------------------

// Encoder builds one binary message. It is not safe for concurrent use;
// allocate one per message (internal/replica shares one across the
// records of a /replicate batch so attribute keys intern batch-wide).
type Encoder struct {
	buf  []byte
	keys map[string]int
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder {
	return &Encoder{}
}

// header writes the standard message frame.
func (e *Encoder) header(kind byte) {
	e.buf = append(e.buf, binaryMagic, binaryVersion, kind)
}

// Header writes the standard message frame (magic, version, kind).
// Kinds up to 0x1f are reserved by this package; packages building their
// own messages on the primitives (internal/replica's replication stream)
// use 0x20 and above.
func (e *Encoder) Header(kind byte) { e.header(kind) }

// Byte appends one raw byte.
func (e *Encoder) Byte(b byte) { e.buf = append(e.buf, b) }

// Raw appends raw bytes verbatim.
func (e *Encoder) Raw(b []byte) { e.buf = append(e.buf, b...) }

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

// Varint appends a zig-zag signed varint.
func (e *Encoder) Varint(v int64) {
	e.buf = binary.AppendVarint(e.buf, v)
}

// Bool appends a boolean byte.
func (e *Encoder) Bool(b bool) {
	if b {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Key appends an interned string: repeat occurrences cost one varint.
func (e *Encoder) Key(s string) {
	if idx, ok := e.keys[s]; ok {
		e.Uvarint(uint64(idx + 1))
		return
	}
	if e.keys == nil {
		e.keys = make(map[string]int)
	}
	e.Uvarint(0)
	e.String(s)
	e.keys[s] = len(e.keys)
}

// Reset clears the encoder for reuse: the buffer empties and the key
// intern table forgets everything, so the next message decodes
// self-contained. Callers that hand Bytes to a consumer that retains the
// slice must not Reset until the consumer is done with it.
func (e *Encoder) Reset() {
	e.buf = e.buf[:0]
	clear(e.keys)
}

// Len returns the bytes written so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Bytes returns the encoded message.
func (e *Encoder) Bytes() []byte { return e.buf }

// --- decoder ----------------------------------------------------------

// Decoder reads one binary message. Errors are sticky: after the first
// malformed read every accessor returns the zero value and Err() reports
// the failure, so call sites stay linear.
type Decoder struct {
	data []byte
	pos  int
	keys []string
	err  error
}

// NewDecoder wraps data for decoding.
func NewDecoder(data []byte) *Decoder {
	return &Decoder{data: data}
}

// Header consumes and validates the standard message frame, returning the
// kind byte.
func (d *Decoder) Header() (byte, error) {
	if len(d.data) < 3 || d.data[0] != binaryMagic || d.data[1] != binaryVersion {
		return 0, fmt.Errorf("wire: not a binary message (magic/version mismatch in %d bytes)", len(d.data))
	}
	d.pos = 3
	return d.data[2], nil
}

func (d *Decoder) expectKind(got, want byte) {
	if got != want {
		d.fail(fmt.Errorf("wire: message kind 0x%02x, want 0x%02x", got, want))
	}
}

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Err returns the first decode failure, nil when the message was well
// formed so far.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the unread byte count.
func (d *Decoder) Remaining() int { return len(d.data) - d.pos }

// Byte reads one raw byte.
func (d *Decoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.pos >= len(d.data) {
		d.fail(fmt.Errorf("wire: truncated message (byte at %d)", d.pos))
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return b
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		d.fail(fmt.Errorf("wire: bad uvarint at %d", d.pos))
		return 0
	}
	d.pos += n
	return v
}

// Varint reads a zig-zag signed varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data[d.pos:])
	if n <= 0 {
		d.fail(fmt.Errorf("wire: bad varint at %d", d.pos))
		return 0
	}
	d.pos += n
	return v
}

// Bool reads a boolean byte.
func (d *Decoder) Bool() bool {
	switch d.Byte() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail(fmt.Errorf("wire: bad bool at %d", d.pos-1))
		return false
	}
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(d.Remaining()) {
		d.fail(fmt.Errorf("wire: string of %d bytes with %d remaining", n, d.Remaining()))
		return ""
	}
	s := string(d.data[d.pos : d.pos+int(n)])
	d.pos += int(n)
	return s
}

// Key reads an interned string.
func (d *Decoder) Key() string {
	ref := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if ref == 0 {
		s := d.String()
		d.keys = append(d.keys, s)
		return s
	}
	if ref > uint64(len(d.keys)) {
		d.fail(fmt.Errorf("wire: key ref %d with %d keys interned", ref, len(d.keys)))
		return ""
	}
	return d.keys[ref-1]
}

// Len reads a list count, bounding it by the remaining bytes (every
// element costs at least one byte) so corrupt input cannot force a huge
// allocation.
func (d *Decoder) Len() int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(d.Remaining()) {
		d.fail(fmt.Errorf("wire: list of %d elements with %d bytes remaining", n, d.Remaining()))
		return 0
	}
	return int(n)
}

// --- shared shapes ----------------------------------------------------

// encodeList writes the list frame: nil-ness, count, elements. A nil
// slice and an empty one encode differently so decode(encode(x)) == x
// exactly (JSON's omitempty drops both, so this is strictly more
// faithful).
func encodeList(e *Encoder, n int, isNil bool, elem func(i int)) {
	if isNil {
		e.Byte(0)
		return
	}
	e.Byte(1)
	e.Uvarint(uint64(n))
	for i := 0; i < n; i++ {
		elem(i)
	}
}

// decodeList reads the list frame and returns the element count and
// whether the list was present (non-nil).
func decodeList(d *Decoder) (n int, present bool) {
	if d.Byte() == 0 {
		return 0, false
	}
	return d.Len(), true
}

// encodeAttrs writes a map of attribute values as writePairs writes its
// pairs: keys in ascending order, so identical maps encode to identical
// bytes. One or two entries — the overwhelmingly common attribute count —
// need no sort scratch.
func encodeAttrs(e *Encoder, m map[string]string) {
	if m == nil {
		e.Byte(0)
		return
	}
	e.Byte(1)
	e.Uvarint(uint64(len(m)))
	switch len(m) {
	case 0:
	case 1:
		for k, v := range m {
			writePair(e, k, v)
		}
	case 2:
		var k1, k2 string
		first := true
		for k := range m {
			if first {
				k1, first = k, false
			} else if k < k1 {
				k2, k1 = k1, k
			} else {
				k2 = k
			}
		}
		writePair(e, k1, m[k1])
		writePair(e, k2, m[k2])
	default:
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			writePair(e, k, m[k])
		}
	}
}

// writePairs writes an element's attribute values given as pairs in
// ascending name order — the bytes encodeAttrs writes for the map of them,
// a nil list standing for a nil map.
func writePairs(e *Encoder, attrs []graph.Attr) {
	if attrs == nil {
		e.Byte(0)
		return
	}
	e.Byte(1)
	e.Uvarint(uint64(len(attrs)))
	for _, a := range attrs {
		writePair(e, a.Name, a.Value)
	}
}

// writePair writes one attribute value: its interned name, then the value.
func writePair(e *Encoder, name, value string) {
	e.Key(name)
	e.String(value)
}

func decodeAttrs(d *Decoder) map[string]string {
	if d.Byte() == 0 {
		return nil
	}
	n := d.Len()
	m := make(map[string]string, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		k := d.Key()
		m[k] = d.String()
	}
	return m
}

// writeNodeID and writeEdgeHead write what comes before an element's
// attribute values: its ID as the delta from *prev (which they advance) and
// an edge's endpoints and direction. Whole-message lists and stream runs,
// from structs (encodeNode, encodeEdge) or from an ordered walk's pairs
// (PutNode, PutEdge), share these element writers, so no two forms can
// drift.
func writeNodeID(e *Encoder, prev *int64, id int64) {
	e.Varint(id - *prev)
	*prev = id
}

func writeEdgeHead(e *Encoder, prev *int64, id int64, info graph.EdgeInfo) {
	e.Varint(id - *prev)
	*prev = id
	e.Varint(int64(info.From))
	e.Varint(int64(info.To))
	e.Bool(info.Directed)
}

func encodeNode(e *Encoder, prev *int64, n *Node) {
	writeNodeID(e, prev, n.ID)
	encodeAttrs(e, n.Attrs)
}

func decodeNode(d *Decoder, prev *int64) Node {
	*prev += d.Varint()
	return Node{ID: *prev, Attrs: decodeAttrs(d)}
}

func encodeEdge(e *Encoder, prev *int64, ed *Edge) {
	writeEdgeHead(e, prev, ed.ID, graph.EdgeInfo{From: graph.NodeID(ed.From), To: graph.NodeID(ed.To), Directed: ed.Directed})
	encodeAttrs(e, ed.Attrs)
}

func decodeEdge(d *Decoder, prev *int64) Edge {
	*prev += d.Varint()
	return Edge{ID: *prev, From: d.Varint(), To: d.Varint(), Directed: d.Bool(), Attrs: decodeAttrs(d)}
}

// varintAt reads the zig-zag varint at b[i:] as binary.Varint does and
// returns the index past it, or -1 where binary.Varint fails. The one- and
// two-byte varints of ID deltas and endpoints are read inline.
func varintAt(b []byte, i int) (int64, int) {
	var u uint64
	switch {
	case i < len(b) && b[i] < 0x80:
		u, i = uint64(b[i]), i+1
	case i+1 < len(b) && b[i+1] < 0x80:
		u, i = uint64(b[i]&0x7f)|uint64(b[i+1])<<7, i+2
	default:
		var n int
		if u, n = binary.Uvarint(b[i:]); n <= 0 {
			return 0, -1
		}
		i += n
	}
	x := int64(u >> 1)
	if u&1 != 0 {
		x = ^x
	}
	return x, i
}

// appendNodes decodes n nodes onto out in one pass over d.data. A node with
// a varint that fits and no attribute values is read there; the first field
// it cannot read so is left to the checked reads of decodeNode, from where
// it stands, so every input decodes to the same values, or fails at the
// same place, as node after node of decodeNode.
func appendNodes(d *Decoder, out []Node, n int, prev *int64) []Node {
	data := d.data
	for i := 0; i < n && d.err == nil; i++ {
		delta, next := varintAt(data, d.pos)
		if next < 0 {
			out = append(out, decodeNode(d, prev))
			continue
		}
		*prev += delta
		var attrs map[string]string
		if d.pos = next; next < len(data) && data[next] == 0 {
			d.pos++
		} else {
			attrs = decodeAttrs(d)
		}
		out = append(out, Node{ID: *prev, Attrs: attrs})
	}
	return out
}

// appendEdges is appendNodes for edges: an ID delta and endpoints whose
// varints fit, a direction byte of 0 or 1 and no attribute values are read
// in the one pass.
func appendEdges(d *Decoder, out []Edge, n int, prev *int64) []Edge {
	data := d.data
	for i := 0; i < n && d.err == nil; i++ {
		at := d.pos
		delta, p1 := varintAt(data, at)
		from, p2 := varintAt(data, max(p1, 0))
		to, p3 := varintAt(data, max(p2, 0))
		if p1 < 0 || p2 < 0 || p3 < 0 || p3 >= len(data) || data[p3] > 1 {
			out = append(out, decodeEdge(d, prev))
			continue
		}
		*prev += delta
		ed := Edge{ID: *prev, From: from, To: to, Directed: data[p3] == 1}
		if d.pos = p3 + 1; d.pos < len(data) && data[d.pos] == 0 {
			d.pos++
		} else {
			ed.Attrs = decodeAttrs(d)
		}
		out = append(out, ed)
	}
	return out
}

func encodeNodes(e *Encoder, nodes []Node) {
	prev := int64(0)
	encodeList(e, len(nodes), nodes == nil, func(i int) { encodeNode(e, &prev, &nodes[i]) })
}

func decodeNodes(d *Decoder) []Node {
	n, present := decodeList(d)
	if !present {
		return nil
	}
	prev := int64(0)
	return appendNodes(d, make([]Node, 0, n), n, &prev)
}

func encodeEdges(e *Encoder, edges []Edge) {
	prev := int64(0)
	encodeList(e, len(edges), edges == nil, func(i int) { encodeEdge(e, &prev, &edges[i]) })
}

func decodeEdges(d *Decoder) []Edge {
	n, present := decodeList(d)
	if !present {
		return nil
	}
	prev := int64(0)
	return appendEdges(d, make([]Edge, 0, n), n, &prev)
}

func encodePartial(e *Encoder, errs []PartitionError) {
	encodeList(e, len(errs), errs == nil, func(i int) {
		e.Varint(int64(errs[i].Partition))
		e.Varint(int64(errs[i].Status))
		e.String(errs[i].Error)
	})
}

func decodePartial(d *Decoder) []PartitionError {
	n, present := decodeList(d)
	if !present {
		return nil
	}
	out := make([]PartitionError, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		out = append(out, PartitionError{
			Partition: int(d.Varint()), Status: int(d.Varint()), Error: d.String(),
		})
	}
	return out
}

// --- message bodies ---------------------------------------------------

func encodeSnapshot(e *Encoder, s *Snapshot) {
	writeSnapshotHead(e, s)
	encodeNodes(e, s.Nodes)
	encodeEdges(e, s.Edges)
	encodePartial(e, s.Partial)
}

// writeSnapshotHead writes a snapshot's fields before its element lists
// and returns the offset of its Cached flag.
func writeSnapshotHead(e *Encoder, s *Snapshot) (cached int) {
	e.Varint(s.At)
	e.Varint(int64(s.NumNodes))
	e.Varint(int64(s.NumEdges))
	cached = len(e.buf)
	e.Bool(s.Cached)
	e.Bool(s.Coalesced)
	return cached
}

// SnapshotWriter writes one whole-message binary snapshot straight from an
// ordered walk of a graph (it is a graphpool.Sink): the bytes Binary.Encode
// makes of the Snapshot with the same fields and elements, written into one
// presized buffer with no []Node, []Edge or attribute map built. The
// element lists' counts are the head's NumNodes and NumEdges, so the walk
// must hand out exactly that many of each.
type SnapshotWriter struct {
	e                  *Encoder
	head               *Snapshot
	full, edges        bool // lists written; the edge list opened
	prevNode, prevEdge int64
	cached             int
}

// NewSnapshotWriter starts the message for head (its At, counts, flags and
// Partial; its Nodes and Edges are ignored), with element lists when full
// and none otherwise. Its buffer is sized for the lists of a graph with no
// attribute values.
func NewSnapshotWriter(head *Snapshot, full bool) *SnapshotWriter {
	size := 32
	if full {
		size += 4*head.NumNodes + 12*head.NumEdges
	}
	w := &SnapshotWriter{e: &Encoder{buf: make([]byte, 0, size)}, head: head, full: full}
	w.e.header(kindSnapshot)
	w.cached = writeSnapshotHead(w.e, head)
	if full {
		w.e.Byte(1)
		w.e.Uvarint(uint64(head.NumNodes))
	} else {
		w.e.Byte(0)
	}
	return w
}

// PutNode writes the next node.
func (w *SnapshotWriter) PutNode(id graph.NodeID, attrs []graph.Attr) error {
	writeNodeID(w.e, &w.prevNode, int64(id))
	writePairs(w.e, attrs)
	return nil
}

// PutEdge writes the next edge, opening the edge list at the first.
func (w *SnapshotWriter) PutEdge(id graph.EdgeID, info graph.EdgeInfo, attrs []graph.Attr) error {
	w.openEdges()
	writeEdgeHead(w.e, &w.prevEdge, int64(id), info)
	writePairs(w.e, attrs)
	return nil
}

// EndRun does nothing: the message leaves whole.
func (w *SnapshotWriter) EndRun() error { return nil }

func (w *SnapshotWriter) openEdges() {
	if w.full && !w.edges {
		w.edges = true
		w.e.Byte(1)
		w.e.Uvarint(uint64(w.head.NumEdges))
	}
}

// Bytes ends the message and returns it.
func (w *SnapshotWriter) Bytes() []byte {
	w.openEdges()
	if !w.full {
		w.e.Byte(0)
	}
	encodePartial(w.e, w.head.Partial)
	return w.e.Bytes()
}

// MarkCached sets the Cached flag of the message Bytes returned, in place:
// the form a later hit answers with.
func (w *SnapshotWriter) MarkCached() []byte {
	w.e.buf[w.cached] = 1
	return w.e.buf
}

func decodeSnapshot(d *Decoder) Snapshot {
	return Snapshot{
		At:       d.Varint(),
		NumNodes: int(d.Varint()),
		NumEdges: int(d.Varint()),
		Cached:   d.Bool(), Coalesced: d.Bool(),
		Nodes: decodeNodes(d), Edges: decodeEdges(d),
		Partial: decodePartial(d),
	}
}

func encodeNeighbors(e *Encoder, n *Neighbors) {
	e.Varint(n.At)
	e.Varint(n.Node)
	e.Varint(int64(n.Degree))
	e.Bool(n.Cached)
	prev := int64(0)
	encodeList(e, len(n.Neighbors), n.Neighbors == nil, func(i int) {
		e.Varint(n.Neighbors[i] - prev)
		prev = n.Neighbors[i]
	})
	encodePartial(e, n.Partial)
}

func decodeNeighbors(d *Decoder) Neighbors {
	out := Neighbors{
		At: d.Varint(), Node: d.Varint(),
		Degree: int(d.Varint()), Cached: d.Bool(),
	}
	if n, present := decodeList(d); present {
		out.Neighbors = make([]int64, 0, n)
		prev := int64(0)
		for i := 0; i < n && d.Err() == nil; i++ {
			prev += d.Varint()
			out.Neighbors = append(out.Neighbors, prev)
		}
	}
	out.Partial = decodePartial(d)
	return out
}

// Event flag bits.
const (
	evDirected = 1 << 0
	evHadOld   = 1 << 1
	evHasNew   = 1 << 2
)

// EncodeEventTo appends one event to e. Exported (with DecodeEventFrom)
// so internal/replica's WAL records and /replicate stream reuse the exact
// event encoding, sharing e's intern table across a whole batch.
func EncodeEventTo(e *Encoder, ev graph.Event) {
	e.Key(ev.Type.String())
	e.Varint(int64(ev.At))
	e.Varint(int64(ev.Node))
	e.Varint(int64(ev.Node2))
	e.Varint(int64(ev.Edge))
	var flags byte
	if ev.Directed {
		flags |= evDirected
	}
	if ev.HadOld {
		flags |= evHadOld
	}
	if ev.HasNew {
		flags |= evHasNew
	}
	e.Byte(flags)
	e.Key(ev.Attr)
	if ev.HadOld {
		e.String(ev.Old)
	}
	if ev.HasNew {
		e.String(ev.New)
	}
}

// DecodeEventFrom reads one event written by EncodeEventTo. A type name
// graph.ParseEventType does not know fails the decoder, so no caller ever
// holds an event of a type that does not exist.
func DecodeEventFrom(d *Decoder) graph.Event {
	name := d.Key()
	ev := graph.Event{
		At:   graph.Time(d.Varint()),
		Node: graph.NodeID(d.Varint()), Node2: graph.NodeID(d.Varint()), Edge: graph.EdgeID(d.Varint()),
	}
	flags := d.Byte()
	ev.Directed = flags&evDirected != 0
	ev.Attr = d.Key()
	if ev.HadOld = flags&evHadOld != 0; ev.HadOld {
		ev.Old = d.String()
	}
	if ev.HasNew = flags&evHasNew != 0; ev.HasNew {
		ev.New = d.String()
	}
	var err error
	if ev.Type, err = graph.ParseEventType(name); err != nil {
		d.fail(fmt.Errorf("wire: %w", err)) // after a truncated read, the first failure stands
	}
	return ev
}

// decodeEvents reads a list of events: nil when the list was absent.
func decodeEvents(d *Decoder) graph.EventList {
	n, present := decodeList(d)
	if !present {
		return nil
	}
	out := make(graph.EventList, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		out = append(out, DecodeEventFrom(d))
	}
	return out
}

func encodeInterval(e *Encoder, iv *Interval) {
	e.Varint(iv.Start)
	e.Varint(iv.End)
	e.Varint(int64(iv.NumNodes))
	e.Varint(int64(iv.NumEdges))
	encodeNodes(e, iv.Nodes)
	encodeEdges(e, iv.Edges)
	encodeList(e, len(iv.Transients), iv.Transients == nil, func(i int) {
		EncodeEventTo(e, iv.Transients[i])
	})
	encodePartial(e, iv.Partial)
}

func decodeInterval(d *Decoder) Interval {
	return Interval{
		Start: d.Varint(), End: d.Varint(),
		NumNodes: int(d.Varint()), NumEdges: int(d.Varint()),
		Nodes: decodeNodes(d), Edges: decodeEdges(d),
		Transients: decodeEvents(d), Partial: decodePartial(d),
	}
}

func encodeAppendResult(e *Encoder, a *AppendResult) {
	e.Varint(int64(a.Appended))
	e.Varint(a.LastTime)
	e.Varint(int64(a.Invalidated))
	e.Uvarint(a.Seq)
	e.Bool(a.Deduped)
	encodePartial(e, a.Partial)
}

func decodeAppendResult(d *Decoder) AppendResult {
	return AppendResult{
		Appended: int(d.Varint()), LastTime: d.Varint(),
		Invalidated: int(d.Varint()), Seq: d.Uvarint(),
		Deduped: d.Bool(), Partial: decodePartial(d),
	}
}

func encodeExpr(e *Encoder, req *ExprRequest) {
	prev := int64(0)
	encodeList(e, len(req.Times), req.Times == nil, func(i int) {
		e.Varint(req.Times[i] - prev)
		prev = req.Times[i]
	})
	e.String(req.Expr)
	e.String(req.Attrs)
	e.Bool(req.Full)
}

func decodeExpr(d *Decoder) ExprRequest {
	out := ExprRequest{}
	if n, present := decodeList(d); present {
		out.Times = make([]int64, 0, n)
		prev := int64(0)
		for i := 0; i < n && d.Err() == nil; i++ {
			prev += d.Varint()
			out.Times = append(out.Times, prev)
		}
	}
	out.Expr = d.String()
	out.Attrs = d.String()
	out.Full = d.Bool()
	return out
}
