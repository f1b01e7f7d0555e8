package delta

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"historygraph/internal/graph"
)

// This file is the codec of every payload the key-value store holds: the
// three delta columns, eventlists, and (through Writer and Reader) the aux
// kinds of internal/deltagraph. It writes stored format 4;
// docs/ARCHITECTURE.md has the grammar byte by byte. Four things make it
// small:
//
//   - ids and timestamps are gaps from the record before. Columns arrive
//     sorted (Delta.SortStable) and eventlists in time order, so a gap is a
//     byte or two; it is taken modulo 2^64, so any order still round-trips.
//   - a string (attribute name, attribute value, aux key) is spelled out
//     once a payload and referred to by number afterwards, so decoding
//     allocates one string per distinct string, not one per record.
//   - an event carries the fields its type uses and no others.
//   - each field of a record goes to a stream of its own: the body is the
//     lengths of every stream but the last, then the streams. A compressor
//     then sees node gaps beside node gaps and attribute numbers beside
//     attribute numbers, not each record's fields in turn.
//
// A payload starts with a tag byte naming its kind. Format 3 wrote the four
// kinds 0x10 below their format-4 tags, in one stream that holds every field
// in record order; it is read as a payload whose streams are all that one.
// The aux kinds are one stream in both. Format 2 used other tags; a payload
// that carries one is refused with ErrOldFormat, not decoded.

const (
	tagStructCol   byte = 0x41
	tagNodeAttrCol byte = 0x42
	tagEdgeAttrCol byte = 0x43
	tagEvents      byte = 0x44
	// TagAuxDelta and TagAuxEvents mark the aux payloads of
	// internal/deltagraph, which owns their layout.
	TagAuxDelta  byte = 0x35
	TagAuxEvents byte = 0x36

	// format3 is how far below its format-4 tag format 3 tagged a kind.
	format3 = 0x10

	// maxStreams is the most streams a payload has: an eventlist's.
	maxStreams = 8

	// maxTable is how many strings a payload's table holds: its first
	// maxTable distinct ones, so that a reference is never longer than two
	// bytes and the table stays small beside a payload whose strings never
	// repeat.
	maxTable = 1 << 13
)

// ErrCorrupt is returned when a payload cannot be decoded.
var ErrCorrupt = errors.New("delta: corrupt payload")

// ErrOldFormat is returned for a payload an earlier build wrote. There is no
// reader for it: the index, checkpoint or trace file that holds it has to be
// written again.
var ErrOldFormat = errors.New("delta: payload is in stored format 2 and this build reads formats 3 and 4 only: rebuild the index or trace that holds it")

// Writer writes one stream of a payload.
type Writer struct {
	buf []byte
	p   *payloadWriter
}

// payloadWriter is a payload being written: its streams, and the string
// table they share.
type payloadWriter struct {
	tag  byte
	n    int
	ws   [maxStreams]Writer
	strs map[string]uint64
}

// NewWriter starts a payload of the given kind in one stream; size is a
// capacity hint.
func NewWriter(tag byte, size int) *Writer { return &newPayload(tag, size).ws[0] }

// newPayload starts a payload of one stream for each capacity hint in sizes.
// A payload of one stream has no lengths: it is its tag and the stream,
// which every stream(i) writes to.
func newPayload(tag byte, sizes ...int) *payloadWriter {
	p := &payloadWriter{tag: tag, n: len(sizes)}
	for i, size := range sizes {
		p.ws[i] = Writer{buf: make([]byte, 0, size), p: p}
	}
	if p.n == 1 {
		p.ws[0].buf = append(p.ws[0].buf, tag)
	}
	return p
}

// stream returns the writer of stream i.
func (p *payloadWriter) stream(i int) *Writer { return &p.ws[min(i, p.n-1)] }

// Bytes returns the payload written so far.
func (w *Writer) Bytes() []byte {
	p := w.p
	if p.n == 1 {
		return p.ws[0].buf
	}
	size := 1 + binary.MaxVarintLen64*(p.n-1)
	for i := range p.n {
		size += len(p.ws[i].buf)
	}
	out := append(make([]byte, 0, size), p.tag)
	for i := range p.n - 1 {
		out = binary.AppendUvarint(out, uint64(len(p.ws[i].buf)))
	}
	for i := range p.n {
		out = append(out, p.ws[i].buf...)
	}
	return out
}

// Byte writes one byte.
func (w *Writer) Byte(b byte) { w.buf = append(w.buf, b) }

// Uvarint writes x in base-128 varint form, as encoding/binary does.
func (w *Writer) Uvarint(x uint64) { w.buf = binary.AppendUvarint(w.buf, x) }

// Varint writes x zig-zag coded: small magnitudes of either sign are short.
func (w *Writer) Varint(x int64) { w.buf = binary.AppendVarint(w.buf, x) }

// Str writes s through the payload's string table: the number of an earlier
// string of the payload that equals it, with the low bit set, or else its
// length, doubled, and its bytes — which gives it the next number, while the
// table has room. A string no other repeats costs what a length prefix would.
// Strings are numbered in the order they are written, whatever their stream.
func (w *Writer) Str(s string) {
	p := w.p
	if ref, seen := p.strs[s]; seen {
		w.Uvarint(ref<<1 | 1)
		return
	}
	if len(p.strs) < maxTable {
		if p.strs == nil {
			p.strs = make(map[string]uint64)
		}
		p.strs[s] = uint64(len(p.strs))
	}
	w.Uvarint(uint64(len(s)) << 1)
	w.buf = append(w.buf, s...)
}

// uvarintBit writes x with one flag folded under it, 65 bits in all: the
// first byte holds the flag, x's low six bits and a continuation bit, and
// uvarint(x>>6) follows if that is set. It is as long as uvarint(x<<1|flag)
// and, unlike it, loses nothing when x has its top bit set.
func (w *Writer) uvarintBit(x uint64, flag bool) {
	b := byte(x&0x3f) << 1
	if flag {
		b |= 1
	}
	if x >>= 6; x == 0 {
		w.Byte(b)
		return
	}
	w.Byte(b | 0x80)
	w.Uvarint(x)
}

// Reader reads one stream of a payload. The first failure sticks: every
// later read of its stream returns zero, Err reports it, and nothing read
// from a payload may be used before Err has returned nil. Every length and
// count is checked against the bytes that remain, so a corrupt payload costs
// an error, never a panic or an allocation out of proportion to its size.
type Reader struct {
	b   []byte
	off int
	p   *payloadReader
}

// payloadReader is a payload being read: its streams, and the first failure
// and the string table they share.
type payloadReader struct {
	n    int
	rs   [maxStreams]Reader
	err  error
	strs []string
}

// NewReader starts reading a payload of one stream that must be of the
// given kind.
func NewReader(b []byte, tag byte) *Reader { return &openPayload(b, tag, 1).rs[0] }

// openPayload starts reading a payload of the given kind in k streams. A
// payload under the kind's format-3 tag is one stream, which every
// stream(i) reads.
func openPayload(b []byte, tag byte, k int) *payloadReader {
	p := &payloadReader{n: 1}
	r := &p.rs[0]
	*r = Reader{b: b, off: 1, p: p}
	switch {
	case len(b) == 0:
		r.fail(fmt.Errorf("%w: empty", ErrCorrupt))
	case b[0] == tag && k > 1:
		p.split(k)
	case b[0] == tag, b[0] == tag-format3 && k > 1:
	case b[0] == 0x01, b[0] == 0x02, b[0] == 0x03, b[0] == 0x04, b[0] == 0x11, b[0] == 0x12: // format 2's four kinds and two aux kinds
		r.fail(ErrOldFormat)
	default:
		r.fail(fmt.Errorf("%w: tag %#x, want %#x", ErrCorrupt, b[0], tag))
	}
	return p
}

// split cuts the body of a payload of k streams at the lengths that head it.
func (p *payloadReader) split(k int) {
	r := &p.rs[0]
	var lens [maxStreams - 1]uint64
	for i := range k - 1 {
		lens[i] = r.Uvarint()
	}
	if p.err != nil {
		return
	}
	rest := r.b[r.off:]
	for i := range k - 1 {
		if lens[i] > uint64(len(rest)) {
			r.fail(fmt.Errorf("%w: stream %d of %d B runs past the payload", ErrCorrupt, i, lens[i]))
			return
		}
		p.rs[i] = Reader{b: rest[:lens[i]], p: p}
		rest = rest[lens[i]:]
	}
	p.rs[k-1] = Reader{b: rest, p: p}
	p.n = k
}

// stream returns the reader of stream i.
func (p *payloadReader) stream(i int) *Reader { return &p.rs[min(i, p.n-1)] }

func (r *Reader) fail(err error) {
	if r.p.err == nil {
		r.p.err = err
	}
	r.off = len(r.b)
}

// Err returns the first failure, or ErrCorrupt if bytes are left over in
// any stream. Call it once the whole payload has been read.
func (r *Reader) Err() error {
	p := r.p
	for i := range p.n {
		if s := &p.rs[i]; p.err == nil && s.off != len(s.b) {
			p.err = fmt.Errorf("%w: %d trailing bytes in stream %d", ErrCorrupt, len(s.b)-s.off, i)
		}
	}
	return p.err
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.off >= len(r.b) {
		r.fail(ErrCorrupt)
		return 0
	}
	b := r.b[r.off]
	r.off++
	return b
}

// Uvarint reads what Writer.Uvarint wrote.
func (r *Reader) Uvarint() uint64 {
	x, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail(ErrCorrupt)
		return 0
	}
	r.off += n
	return x
}

// Varint reads what Writer.Varint wrote.
func (r *Reader) Varint() int64 {
	x, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail(ErrCorrupt)
		return 0
	}
	r.off += n
	return x
}

// Str reads what Writer.Str wrote. Equal strings of one payload share their
// bytes: decoding allocates once per distinct string, not once per record.
func (r *Reader) Str() string {
	p := r.p
	x := r.Uvarint()
	if x&1 != 0 && x>>1 < uint64(len(p.strs)) {
		return p.strs[x>>1]
	}
	n := x >> 1
	if x&1 != 0 || n > uint64(len(r.b)-r.off) {
		r.fail(ErrCorrupt)
	}
	if p.err != nil {
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	if len(p.strs) < maxTable {
		p.strs = append(p.strs, s)
	}
	return s
}

// Count reads the number of records that follow, each at least width bytes
// long over all the payload's streams: a count the unread bytes cannot hold
// is corrupt.
func (r *Reader) Count(width int) int {
	n := r.Uvarint()
	left := 0
	for i := range r.p.n {
		left += len(r.p.rs[i].b) - r.p.rs[i].off
	}
	if n > uint64(left/width) {
		r.fail(ErrCorrupt)
		return 0
	}
	return int(n)
}

// uvarintBit reads what Writer.uvarintBit wrote.
func (r *Reader) uvarintBit() (uint64, bool) {
	b := r.Byte()
	x := uint64(b>>1) & 0x3f
	if b&0x80 != 0 {
		hi := r.Uvarint()
		if hi == 0 || hi >= 1<<58 {
			r.fail(ErrCorrupt)
		}
		x |= hi << 6
	}
	return x, b&1 != 0
}

// --- structure column ------------------------------------------------------
//
// Streams: node gaps | edge flaggaps | From | To−From. The counts go with
// the gaps.

// EncodeStructCol encodes the structure column of a delta.
func EncodeStructCol(d *Delta) []byte { return encodeStructCol(newPayload, d) }

// encodeStructCol encodes the structure column into the payload start
// begins; so do the other kinds' encoders.
func encodeStructCol(start func(byte, ...int) *payloadWriter, d *Delta) []byte {
	nodes, edges := len(d.AddNodes)+len(d.DelNodes), len(d.AddEdges)+len(d.DelEdges)
	p := start(tagStructCol, 4+2*nodes, 4+2*edges, 2*edges, 2*edges)
	gaps, flagGaps, froms, tos := p.stream(0), p.stream(1), p.stream(2), p.stream(3)
	encNodes := func(nodes []graph.NodeID) {
		gaps.Uvarint(uint64(len(nodes)))
		var prev graph.NodeID
		for _, n := range nodes {
			gaps.Uvarint(uint64(n - prev))
			prev = n
		}
	}
	encNodes(d.AddNodes)
	encNodes(d.DelNodes)
	encEdges := func(edges []EdgeRec) {
		flagGaps.Uvarint(uint64(len(edges)))
		var prev graph.EdgeID
		for _, e := range edges {
			flagGaps.uvarintBit(uint64(e.ID-prev), e.Directed)
			froms.Varint(int64(e.From))
			tos.Varint(int64(e.To - e.From))
			prev = e.ID
		}
	}
	encEdges(d.AddEdges)
	encEdges(d.DelEdges)
	return gaps.Bytes()
}

// DecodeStructCol decodes a structure column into d.
func DecodeStructCol(b []byte, d *Delta) error {
	p := openPayload(b, tagStructCol, 4)
	gaps, flagGaps, froms, tos := p.stream(0), p.stream(1), p.stream(2), p.stream(3)
	decNodes := func() []graph.NodeID {
		nodes := make([]graph.NodeID, gaps.Count(1))
		var prev graph.NodeID
		for i := range nodes {
			prev += graph.NodeID(gaps.Uvarint())
			nodes[i] = prev
		}
		return nodes
	}
	addNodes, delNodes := decNodes(), decNodes()
	decEdges := func() []EdgeRec {
		edges := make([]EdgeRec, flagGaps.Count(3))
		var prev graph.EdgeID
		for i := range edges {
			gap, directed := flagGaps.uvarintBit()
			prev += graph.EdgeID(gap)
			from := graph.NodeID(froms.Varint())
			edges[i] = EdgeRec{ID: prev, From: from, To: from + graph.NodeID(tos.Varint()), Directed: directed}
		}
		return edges
	}
	addEdges, delEdges := decEdges(), decEdges()
	if err := gaps.Err(); err != nil {
		return fmt.Errorf("struct column: %w", err)
	}
	d.AddNodes, d.DelNodes, d.AddEdges, d.DelEdges = addNodes, delNodes, addEdges, delEdges
	return nil
}

// --- attribute columns -----------------------------------------------------
//
// Streams: node gaps | Attr | Val for a node-attribute column, and edge
// flaggaps | From | Attr | Val for an edge-attribute one. The counts go with
// the gaps.

// attrRecWidth is the least an attribute record takes: a byte for the element
// and one for each string.
func attrRecWidth(withVal bool) int {
	if withVal {
		return 3
	}
	return 2
}

// EncodeNodeAttrCol encodes the node-attribute column of a delta.
func EncodeNodeAttrCol(d *Delta) []byte { return encodeNodeAttrCol(newPayload, d) }

func encodeNodeAttrCol(start func(byte, ...int) *payloadWriter, d *Delta) []byte {
	n := d.NodeAttrLen()
	p := start(tagNodeAttrCol, 4+2*n, 4+2*n, 4*len(d.SetNodeAttrs))
	gaps, attrs, vals := p.stream(0), p.stream(1), p.stream(2)
	enc := func(recs []NodeAttrRec, withVal bool) {
		gaps.Uvarint(uint64(len(recs)))
		var prev graph.NodeID
		for _, rec := range recs {
			gaps.Uvarint(uint64(rec.Node - prev)) // 0: the node of the record before
			attrs.Str(rec.Attr)
			if withVal {
				vals.Str(rec.Val)
			}
			prev = rec.Node
		}
	}
	enc(d.SetNodeAttrs, true)
	enc(d.DelNodeAttrs, false)
	return gaps.Bytes()
}

// DecodeNodeAttrCol decodes a node-attribute column into d.
func DecodeNodeAttrCol(b []byte, d *Delta) error {
	p := openPayload(b, tagNodeAttrCol, 3)
	gaps, attrs, vals := p.stream(0), p.stream(1), p.stream(2)
	dec := func(withVal bool) []NodeAttrRec {
		recs := make([]NodeAttrRec, gaps.Count(attrRecWidth(withVal)))
		var prev graph.NodeID
		for i := range recs {
			prev += graph.NodeID(gaps.Uvarint())
			recs[i] = NodeAttrRec{Node: prev, Attr: attrs.Str()}
			if withVal {
				recs[i].Val = vals.Str()
			}
		}
		return recs
	}
	set, del := dec(true), dec(false)
	if err := gaps.Err(); err != nil {
		return fmt.Errorf("nodeattr column: %w", err)
	}
	d.SetNodeAttrs, d.DelNodeAttrs = set, del
	return nil
}

// EncodeEdgeAttrCol encodes the edge-attribute column of a delta. A record
// spells its From endpoint out only where it differs from the record
// before, which within one edge's records it does not.
func EncodeEdgeAttrCol(d *Delta) []byte { return encodeEdgeAttrCol(newPayload, d) }

func encodeEdgeAttrCol(start func(byte, ...int) *payloadWriter, d *Delta) []byte {
	n := d.EdgeAttrLen()
	p := start(tagEdgeAttrCol, 4+2*n, n, 4+2*n, 4*len(d.SetEdgeAttrs))
	flagGaps, froms, attrs, vals := p.stream(0), p.stream(1), p.stream(2), p.stream(3)
	enc := func(recs []EdgeAttrRec, withVal bool) {
		flagGaps.Uvarint(uint64(len(recs)))
		var (
			prev     graph.EdgeID
			prevFrom graph.NodeID
		)
		for _, rec := range recs {
			flagGaps.uvarintBit(uint64(rec.Edge-prev), rec.From != prevFrom)
			if rec.From != prevFrom {
				froms.Varint(int64(rec.From))
			}
			attrs.Str(rec.Attr)
			if withVal {
				vals.Str(rec.Val)
			}
			prev, prevFrom = rec.Edge, rec.From
		}
	}
	enc(d.SetEdgeAttrs, true)
	enc(d.DelEdgeAttrs, false)
	return flagGaps.Bytes()
}

// DecodeEdgeAttrCol decodes an edge-attribute column into d.
func DecodeEdgeAttrCol(b []byte, d *Delta) error {
	p := openPayload(b, tagEdgeAttrCol, 4)
	flagGaps, froms, attrs, vals := p.stream(0), p.stream(1), p.stream(2), p.stream(3)
	dec := func(withVal bool) []EdgeAttrRec {
		recs := make([]EdgeAttrRec, flagGaps.Count(attrRecWidth(withVal)))
		var (
			prev     graph.EdgeID
			prevFrom graph.NodeID
		)
		for i := range recs {
			gap, newFrom := flagGaps.uvarintBit()
			prev += graph.EdgeID(gap)
			if newFrom {
				prevFrom = graph.NodeID(froms.Varint())
			}
			recs[i] = EdgeAttrRec{Edge: prev, From: prevFrom, Attr: attrs.Str()}
			if withVal {
				recs[i].Val = vals.Str()
			}
		}
		return recs
	}
	set, del := dec(true), dec(false)
	if err := flagGaps.Err(); err != nil {
		return fmt.Errorf("edgeattr column: %w", err)
	}
	d.SetEdgeAttrs, d.DelEdgeAttrs = set, del
	return nil
}

// --- eventlists ------------------------------------------------------------
//
// Streams: heads (the count, and the type byte of an event written raw) |
// At gaps | Node deltas | Edge deltas | Node2−Node | Attr | Old | New.

// The fields an event carries beyond its head byte, At and Node, by type.
const (
	fEdge  uint8 = 1 << iota // Edge and Node2
	fAttr                    // Attr; Old if HadOld; New if HasNew
	fKnown                   // the type is one of these eight
	// fRaw is the field set of an event written raw: its type in a byte of
	// its own and every field, Old and New too, whatever the flags say. That
	// is how an event is kept whole that has a type this table does not know
	// or a value in a field its type does not use.
	fRaw = fEdge | fAttr
)

var eventFields = [16]uint8{
	graph.AddNode: fKnown, graph.DelNode: fKnown, graph.TransientNode: fKnown,
	graph.AddEdge: fKnown | fEdge, graph.DelEdge: fKnown | fEdge, graph.TransientEdge: fKnown | fEdge,
	graph.SetNodeAttr: fKnown | fAttr,
	graph.SetEdgeAttr: fKnown | fEdge | fAttr,
}

// Head byte of an event: its type in the low four bits (0: raw), then the
// three flags; the top bit is clear.
const (
	headDirected = 1 << (4 + iota)
	headHadOld
	headHasNew
)

// fieldsOf returns the fields ev is written with.
func fieldsOf(ev *graph.Event) uint8 {
	var f uint8
	if ev.Type < 16 {
		f = eventFields[ev.Type]
	}
	if f == 0 ||
		f&fEdge == 0 && (ev.Edge != 0 || ev.Node2 != 0) ||
		f&fAttr == 0 && ev.Attr != "" ||
		ev.Old != "" && !(f&fAttr != 0 && ev.HadOld) ||
		ev.New != "" && !(f&fAttr != 0 && ev.HasNew) {
		return fRaw
	}
	return f
}

// EncodeEvents encodes a run of events (one column of a leaf-eventlist, a
// recent eventlist, a trace file).
func EncodeEvents(events []graph.Event) []byte { return encodeEvents(newPayload, events) }

func encodeEvents(start func(byte, ...int) *payloadWriter, events []graph.Event) []byte {
	n := len(events)
	p := start(tagEvents, 4+n, 4+2*n, 4+2*n, 4+n, 4+n, 4+n, 4+n, 4+2*n)
	heads, ats, nodes, edges, node2s := p.stream(0), p.stream(1), p.stream(2), p.stream(3), p.stream(4)
	attrs, olds, news := p.stream(5), p.stream(6), p.stream(7)
	heads.Uvarint(uint64(len(events)))
	var prev graph.Event
	for i := range events {
		ev := &events[i]
		fields := fieldsOf(ev)
		raw := fields == fRaw
		var head byte
		if !raw {
			head = byte(ev.Type)
		}
		if ev.Directed {
			head |= headDirected
		}
		if ev.HadOld {
			head |= headHadOld
		}
		if ev.HasNew {
			head |= headHasNew
		}
		heads.Byte(head)
		if raw {
			heads.Byte(byte(ev.Type))
		}
		ats.Uvarint(uint64(ev.At - prev.At))
		nodes.Varint(int64(ev.Node - prev.Node))
		prev.At, prev.Node = ev.At, ev.Node
		if fields&fEdge != 0 {
			edges.Varint(int64(ev.Edge - prev.Edge))
			node2s.Varint(int64(ev.Node2 - ev.Node))
			prev.Edge = ev.Edge
		}
		if fields&fAttr != 0 {
			attrs.Str(ev.Attr)
			if raw || ev.HadOld {
				olds.Str(ev.Old)
			}
			if raw || ev.HasNew {
				news.Str(ev.New)
			}
		}
	}
	return heads.Bytes()
}

// DecodeEvents decodes a run of events encoded by EncodeEvents and appends
// them to dst, growing it at most once; pass nil for a fresh slice. On an
// error it returns dst as it was given.
func DecodeEvents(dst []graph.Event, b []byte) ([]graph.Event, error) {
	p := openPayload(b, tagEvents, 8)
	heads, ats, nodes, edges, node2s := p.stream(0), p.stream(1), p.stream(2), p.stream(3), p.stream(4)
	attrs, olds, news := p.stream(5), p.stream(6), p.stream(7)
	n := heads.Count(3)
	out := slices.Grow(dst, n)[:len(dst)+n]
	events := out[len(dst):]
	var prev graph.Event
	for i := range events {
		head := heads.Byte()
		ev := graph.Event{
			Type:     graph.EventType(head & 15),
			Directed: head&headDirected != 0, HadOld: head&headHadOld != 0, HasNew: head&headHasNew != 0,
		}
		fields := eventFields[head&15]
		raw := ev.Type == 0
		if raw {
			ev.Type, fields = graph.EventType(heads.Byte()), fRaw
		}
		if fields == 0 || head&0x80 != 0 {
			heads.fail(ErrCorrupt)
			break
		}
		ev.At = prev.At + graph.Time(ats.Uvarint())
		ev.Node = prev.Node + graph.NodeID(nodes.Varint())
		prev.At, prev.Node = ev.At, ev.Node
		if fields&fEdge != 0 {
			ev.Edge = prev.Edge + graph.EdgeID(edges.Varint())
			ev.Node2 = ev.Node + graph.NodeID(node2s.Varint())
			prev.Edge = ev.Edge
		}
		if fields&fAttr != 0 {
			ev.Attr = attrs.Str()
			if raw || ev.HadOld {
				ev.Old = olds.Str()
			}
			if raw || ev.HasNew {
				ev.New = news.Str()
			}
		}
		events[i] = ev
	}
	if err := heads.Err(); err != nil {
		return dst, fmt.Errorf("eventlist: %w", err)
	}
	return out, nil
}
