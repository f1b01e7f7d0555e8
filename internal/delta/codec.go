package delta

import (
	"encoding/binary"
	"errors"
	"fmt"

	"historygraph/internal/graph"
)

// This file is the codec of every payload the key-value store holds: the
// three delta columns, eventlists, and (through Writer and Reader) the aux
// kinds of internal/deltagraph. It is stored format 3; docs/ARCHITECTURE.md
// has the grammar byte by byte. Three things make it small:
//
//   - ids and timestamps are gaps from the record before. Columns arrive
//     sorted (Delta.sortStable) and eventlists in time order, so a gap is a
//     byte or two; it is taken modulo 2^64, so any order still round-trips.
//   - a string (attribute name, attribute value, aux key) is spelled out
//     once a payload and referred to by number afterwards, so decoding
//     allocates one string per distinct string, not one per record.
//   - an event carries the fields its type uses and no others.
//
// A payload starts with a tag byte naming its kind. Format 2 used other tags;
// a payload that carries one is refused with ErrOldFormat, not decoded.

const (
	tagStructCol   byte = 0x31
	tagNodeAttrCol byte = 0x32
	tagEdgeAttrCol byte = 0x33
	tagEvents      byte = 0x34
	// TagAuxDelta and TagAuxEvents mark the aux payloads of
	// internal/deltagraph, which owns their layout.
	TagAuxDelta  byte = 0x35
	TagAuxEvents byte = 0x36

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
var ErrOldFormat = errors.New("delta: payload is in stored format 2 and this build reads format 3 only: rebuild the index or trace that holds it")

// Writer builds one payload.
type Writer struct {
	buf  []byte
	strs map[string]uint64
}

// NewWriter starts a payload of the given kind; size is a capacity hint.
func NewWriter(tag byte, size int) *Writer {
	w := &Writer{buf: make([]byte, 1, 1+size)}
	w.buf[0] = tag
	return w
}

// Bytes returns the payload written so far.
func (w *Writer) Bytes() []byte { return w.buf }

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
func (w *Writer) Str(s string) {
	if ref, seen := w.strs[s]; seen {
		w.Uvarint(ref<<1 | 1)
		return
	}
	if len(w.strs) < maxTable {
		if w.strs == nil {
			w.strs = make(map[string]uint64)
		}
		w.strs[s] = uint64(len(w.strs))
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

// Reader takes one payload apart. The first failure sticks: every later read
// returns zero, Err reports it, and nothing read from a payload may be used
// before Err has returned nil. Every length and count is checked against the
// bytes that remain, so a corrupt payload costs an error, never a panic or an
// allocation out of proportion to its size.
type Reader struct {
	b    []byte
	off  int
	err  error
	strs []string
}

// NewReader starts reading a payload that must be of the given kind.
func NewReader(b []byte, tag byte) *Reader {
	r := &Reader{b: b, off: 1}
	if len(b) == 0 {
		r.fail(fmt.Errorf("%w: empty", ErrCorrupt))
		return r
	}
	switch b[0] {
	case tag:
	case 0x01, 0x02, 0x03, 0x04, 0x11, 0x12: // format 2's four kinds and two aux kinds
		r.fail(ErrOldFormat)
	default:
		r.fail(fmt.Errorf("%w: tag %#x, want %#x", ErrCorrupt, b[0], tag))
	}
	return r
}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.off = len(r.b)
}

// Err returns the first failure, or ErrCorrupt if bytes are left over. Call
// it once the whole payload has been read.
func (r *Reader) Err() error {
	if r.err == nil && r.off != len(r.b) {
		r.err = fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(r.b)-r.off)
	}
	return r.err
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
	x := r.Uvarint()
	if x&1 != 0 && x>>1 < uint64(len(r.strs)) {
		return r.strs[x>>1]
	}
	n := x >> 1
	if x&1 != 0 || n > uint64(len(r.b)-r.off) {
		r.fail(ErrCorrupt)
	}
	if r.err != nil {
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	if len(r.strs) < maxTable {
		r.strs = append(r.strs, s)
	}
	return s
}

// Count reads the number of records that follow, each at least width bytes
// long: a count the remaining bytes cannot hold is corrupt.
func (r *Reader) Count(width int) int {
	n := r.Uvarint()
	if n > uint64((len(r.b)-r.off)/width) {
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

// EncodeStructCol encodes the structure column of a delta.
func EncodeStructCol(d *Delta) []byte {
	w := NewWriter(tagStructCol, 4+2*(len(d.AddNodes)+len(d.DelNodes))+6*(len(d.AddEdges)+len(d.DelEdges)))
	encNodes := func(nodes []graph.NodeID) {
		w.Uvarint(uint64(len(nodes)))
		var prev graph.NodeID
		for _, n := range nodes {
			w.Uvarint(uint64(n - prev))
			prev = n
		}
	}
	encNodes(d.AddNodes)
	encNodes(d.DelNodes)
	encEdges := func(edges []EdgeRec) {
		w.Uvarint(uint64(len(edges)))
		var prev graph.EdgeID
		for _, e := range edges {
			w.uvarintBit(uint64(e.ID-prev), e.Directed)
			w.Varint(int64(e.From))
			w.Varint(int64(e.To - e.From))
			prev = e.ID
		}
	}
	encEdges(d.AddEdges)
	encEdges(d.DelEdges)
	return w.Bytes()
}

// DecodeStructCol decodes a structure column into d.
func DecodeStructCol(b []byte, d *Delta) error {
	r := NewReader(b, tagStructCol)
	decNodes := func() []graph.NodeID {
		nodes := make([]graph.NodeID, r.Count(1))
		var prev graph.NodeID
		for i := range nodes {
			prev += graph.NodeID(r.Uvarint())
			nodes[i] = prev
		}
		return nodes
	}
	addNodes, delNodes := decNodes(), decNodes()
	decEdges := func() []EdgeRec {
		edges := make([]EdgeRec, r.Count(3))
		var prev graph.EdgeID
		for i := range edges {
			gap, directed := r.uvarintBit()
			prev += graph.EdgeID(gap)
			from := graph.NodeID(r.Varint())
			edges[i] = EdgeRec{ID: prev, From: from, To: from + graph.NodeID(r.Varint()), Directed: directed}
		}
		return edges
	}
	addEdges, delEdges := decEdges(), decEdges()
	if err := r.Err(); err != nil {
		return fmt.Errorf("struct column: %w", err)
	}
	d.AddNodes, d.DelNodes, d.AddEdges, d.DelEdges = addNodes, delNodes, addEdges, delEdges
	return nil
}

// --- attribute columns -----------------------------------------------------

// attrRecWidth is the least an attribute record takes: a byte for the element
// and one for each string.
func attrRecWidth(withVal bool) int {
	if withVal {
		return 3
	}
	return 2
}

// EncodeNodeAttrCol encodes the node-attribute column of a delta.
func EncodeNodeAttrCol(d *Delta) []byte {
	w := NewWriter(tagNodeAttrCol, 4+8*len(d.SetNodeAttrs)+3*len(d.DelNodeAttrs))
	enc := func(recs []NodeAttrRec, withVal bool) {
		w.Uvarint(uint64(len(recs)))
		var prev graph.NodeID
		for _, rec := range recs {
			w.Uvarint(uint64(rec.Node - prev)) // 0: the node of the record before
			w.Str(rec.Attr)
			if withVal {
				w.Str(rec.Val)
			}
			prev = rec.Node
		}
	}
	enc(d.SetNodeAttrs, true)
	enc(d.DelNodeAttrs, false)
	return w.Bytes()
}

// DecodeNodeAttrCol decodes a node-attribute column into d.
func DecodeNodeAttrCol(b []byte, d *Delta) error {
	r := NewReader(b, tagNodeAttrCol)
	dec := func(withVal bool) []NodeAttrRec {
		recs := make([]NodeAttrRec, r.Count(attrRecWidth(withVal)))
		var prev graph.NodeID
		for i := range recs {
			prev += graph.NodeID(r.Uvarint())
			recs[i] = NodeAttrRec{Node: prev, Attr: r.Str()}
			if withVal {
				recs[i].Val = r.Str()
			}
		}
		return recs
	}
	set, del := dec(true), dec(false)
	if err := r.Err(); err != nil {
		return fmt.Errorf("nodeattr column: %w", err)
	}
	d.SetNodeAttrs, d.DelNodeAttrs = set, del
	return nil
}

// EncodeEdgeAttrCol encodes the edge-attribute column of a delta. A record
// spells its From endpoint out only where it differs from the record
// before, which within one edge's records it does not.
func EncodeEdgeAttrCol(d *Delta) []byte {
	w := NewWriter(tagEdgeAttrCol, 4+10*len(d.SetEdgeAttrs)+5*len(d.DelEdgeAttrs))
	enc := func(recs []EdgeAttrRec, withVal bool) {
		w.Uvarint(uint64(len(recs)))
		var (
			prev     graph.EdgeID
			prevFrom graph.NodeID
		)
		for _, rec := range recs {
			w.uvarintBit(uint64(rec.Edge-prev), rec.From != prevFrom)
			if rec.From != prevFrom {
				w.Varint(int64(rec.From))
			}
			w.Str(rec.Attr)
			if withVal {
				w.Str(rec.Val)
			}
			prev, prevFrom = rec.Edge, rec.From
		}
	}
	enc(d.SetEdgeAttrs, true)
	enc(d.DelEdgeAttrs, false)
	return w.Bytes()
}

// DecodeEdgeAttrCol decodes an edge-attribute column into d.
func DecodeEdgeAttrCol(b []byte, d *Delta) error {
	r := NewReader(b, tagEdgeAttrCol)
	dec := func(withVal bool) []EdgeAttrRec {
		recs := make([]EdgeAttrRec, r.Count(attrRecWidth(withVal)))
		var (
			prev     graph.EdgeID
			prevFrom graph.NodeID
		)
		for i := range recs {
			gap, newFrom := r.uvarintBit()
			prev += graph.EdgeID(gap)
			if newFrom {
				prevFrom = graph.NodeID(r.Varint())
			}
			recs[i] = EdgeAttrRec{Edge: prev, From: prevFrom, Attr: r.Str()}
			if withVal {
				recs[i].Val = r.Str()
			}
		}
		return recs
	}
	set, del := dec(true), dec(false)
	if err := r.Err(); err != nil {
		return fmt.Errorf("edgeattr column: %w", err)
	}
	d.SetEdgeAttrs, d.DelEdgeAttrs = set, del
	return nil
}

// --- eventlists ------------------------------------------------------------

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
func EncodeEvents(events []graph.Event) []byte {
	w := NewWriter(tagEvents, 4+8*len(events))
	w.Uvarint(uint64(len(events)))
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
		w.Byte(head)
		if raw {
			w.Byte(byte(ev.Type))
		}
		w.Uvarint(uint64(ev.At - prev.At))
		w.Varint(int64(ev.Node - prev.Node))
		prev.At, prev.Node = ev.At, ev.Node
		if fields&fEdge != 0 {
			w.Varint(int64(ev.Edge - prev.Edge))
			w.Varint(int64(ev.Node2 - ev.Node))
			prev.Edge = ev.Edge
		}
		if fields&fAttr != 0 {
			w.Str(ev.Attr)
			if raw || ev.HadOld {
				w.Str(ev.Old)
			}
			if raw || ev.HasNew {
				w.Str(ev.New)
			}
		}
	}
	return w.Bytes()
}

// DecodeEvents decodes a run of events encoded by EncodeEvents.
func DecodeEvents(b []byte) ([]graph.Event, error) {
	r := NewReader(b, tagEvents)
	events := make([]graph.Event, r.Count(3))
	var prev graph.Event
	for i := range events {
		head := r.Byte()
		ev := graph.Event{
			Type:     graph.EventType(head & 15),
			Directed: head&headDirected != 0, HadOld: head&headHadOld != 0, HasNew: head&headHasNew != 0,
		}
		fields := eventFields[head&15]
		raw := ev.Type == 0
		if raw {
			ev.Type, fields = graph.EventType(r.Byte()), fRaw
		}
		if fields == 0 || head&0x80 != 0 {
			r.fail(ErrCorrupt)
			break
		}
		ev.At = prev.At + graph.Time(r.Uvarint())
		ev.Node = prev.Node + graph.NodeID(r.Varint())
		prev.At, prev.Node = ev.At, ev.Node
		if fields&fEdge != 0 {
			ev.Edge = prev.Edge + graph.EdgeID(r.Varint())
			ev.Node2 = ev.Node + graph.NodeID(r.Varint())
			prev.Edge = ev.Edge
		}
		if fields&fAttr != 0 {
			ev.Attr = r.Str()
			if raw || ev.HadOld {
				ev.Old = r.Str()
			}
			if raw || ev.HasNew {
				ev.New = r.Str()
			}
		}
		events[i] = ev
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("eventlist: %w", err)
	}
	return events, nil
}
