package delta

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"historygraph/internal/datagen"
	"historygraph/internal/graph"
)

// layouts are the two stored formats the decoders read: format 4, as the
// exported encoders write it, and format 3, as a writer of one stream under
// the kind's format-3 tag makes it — every field of a record written to that
// stream in turn, which is what builds before format 4 wrote.
var layouts = []struct {
	name  string
	start func(tag byte, sizes ...int) *payloadWriter
}{
	{"format 4", newPayload},
	{"format 3", func(tag byte, _ ...int) *payloadWriter { return newPayload(tag-format3, 0) }},
}

// encodeDelta is the three columns of d in a layout.
func encodeDelta(start func(byte, ...int) *payloadWriter, d *Delta) (structCol, nodeAttrCol, edgeAttrCol []byte) {
	return encodeStructCol(start, d), encodeNodeAttrCol(start, d), encodeEdgeAttrCol(start, d)
}

// decodeDelta decodes three columns into one delta.
func decodeDelta(structCol, nodeAttrCol, edgeAttrCol []byte) (*Delta, error) {
	var d Delta
	return &d, errors.Join(DecodeStructCol(structCol, &d), DecodeNodeAttrCol(nodeAttrCol, &d), DecodeEdgeAttrCol(edgeAttrCol, &d))
}

// Property: every delta column round-trips through the codec, in both
// layouts.
func TestDeltaCodecRoundTrip(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := randomSnapshot(rng)
		tgt := randomSnapshot(rng)
		d := Compute(tgt, src)
		want := src.Clone()
		d.Apply(want)
		for _, l := range layouts {
			got, err := decodeDelta(encodeDelta(l.start, d))
			if err != nil {
				t.Logf("%s: %v", l.name, err)
				return false
			}
			// The decoded delta must have the same effect.
			out := src.Clone()
			got.Apply(out)
			if !out.Equal(want) || got.Len() != d.Len() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestEventsCodecRoundTrip(t *testing.T) {
	live := graph.EdgeID(1) << 40 // where the live appends' edge ids start
	events := []graph.Event{
		{Type: graph.AddNode, At: 1, Node: 100},
		{Type: graph.AddEdge, At: 2, Edge: 5, Node: 100, Node2: -3, Directed: true},
		{Type: graph.SetNodeAttr, At: 3, Node: 100, Attr: "name", Old: "", New: "alice", HasNew: true},
		{Type: graph.SetNodeAttr, At: 4, Node: 100, Attr: "name", Old: "alice", HadOld: true, New: "bob", HasNew: true},
		{Type: graph.SetEdgeAttr, At: 5, Edge: 5, Node: 100, Node2: -3, Attr: "w", New: "9", HasNew: true},
		{Type: graph.TransientEdge, At: 6, Edge: live, Node: 1, Node2: 2},
		{Type: graph.DelEdge, At: 7, Edge: 5, Node: 100, Node2: -3, Directed: true},
		{Type: graph.DelNode, At: 8, Node: 100},
		// A run at one timestamp, ids that go down and below zero.
		{Type: graph.AddNode, At: 9, Node: -7},
		{Type: graph.AddNode, At: 9, Node: math.MinInt64},
		{Type: graph.AddNode, At: 9, Node: math.MaxInt64},
		{Type: graph.AddEdge, At: 9, Edge: -1, Node: -7, Node2: math.MaxInt64},
		// What a live batch looks like: edge ids counting up from 1<<40.
		{Type: graph.AddEdge, At: 10, Edge: live + 1, Node: 1, Node2: 2},
		{Type: graph.AddEdge, At: 10, Edge: live + 2, Node: 3, Node2: 1},
		{Type: graph.DelEdge, At: 10, Edge: live + 1, Node: 1, Node2: 2},
		// An attribute removed, an empty value set, an empty name.
		{Type: graph.SetNodeAttr, At: 11, Node: 100, Attr: "name", Old: "bob", HadOld: true},
		{Type: graph.SetNodeAttr, At: 11, Node: 100, Attr: "", HasNew: true},
		{Type: graph.TransientNode, At: 12, Node: 4},
		// Values the type has no use for, and a type nobody defined, are
		// still kept whole.
		{Type: graph.AddNode, At: 13, Node: 1, Node2: 2, Edge: 3, Attr: "x", Old: "o", New: "n"},
		{Type: graph.SetNodeAttr, At: 13, Node: 1, Attr: "a", Old: "stale"},
		{Type: graph.SetNodeAttr, At: 13, Node: 1, Attr: "a", HadOld: true, Edge: 9},
		{Type: 99, At: 14, Node: 1, HasNew: true, New: "n"},
		{Type: 0, At: 14},
		{Type: graph.DelNode, At: 3, Node: 1, Directed: true, HadOld: true}, // and time going back
	}
	for _, l := range layouts {
		got, err := DecodeEvents(nil, encodeEvents(l.start, events))
		if err != nil {
			t.Fatalf("%s: %v", l.name, err)
		}
		if len(got) != len(events) {
			t.Fatalf("%s: len = %d, want %d", l.name, len(got), len(events))
		}
		for i := range events {
			if got[i] != events[i] {
				t.Errorf("%s: event %d: %+v != %+v", l.name, i, got[i], events[i])
			}
		}
	}
}

// An event costs what its type needs: nothing for the fields it leaves out,
// a byte for a timestamp or an id close to the one before.
func TestEventsCodecIsTypeSpecific(t *testing.T) {
	base := []graph.Event{{Type: graph.AddNode, At: 1000, Node: 5000}}
	size := func(ev graph.Event) int {
		return len(EncodeEvents(append(base[:1:1], ev))) - len(EncodeEvents(base))
	}
	for _, c := range []struct {
		ev   graph.Event
		want int
	}{
		{graph.Event{Type: graph.AddNode, At: 1000, Node: 5001}, 3},                                            // head, At, Node
		{graph.Event{Type: graph.AddEdge, At: 1001, Edge: 7, Node: 5000, Node2: 5003}, 5},                      // + Edge, Node2
		{graph.Event{Type: graph.SetNodeAttr, At: 1001, Node: 5000, Attr: "k", New: "v", HasNew: true}, 3 + 4}, // + "k", "v" spelled out
	} {
		if got := size(c.ev); got != c.want {
			t.Errorf("%v: %d bytes, want %d", c.ev, got, c.want)
		}
	}
}
func TestEventsCodecEmpty(t *testing.T) {
	got, err := DecodeEvents(nil, EncodeEvents(nil))
	if err != nil || len(got) != 0 {
		t.Errorf("empty round trip: %v, %v", got, err)
	}
}

func TestCodecRejectsCorruptInput(t *testing.T) {
	d := &Delta{AddNodes: []graph.NodeID{1, 2, 3}}
	buf := EncodeStructCol(d)

	var out Delta
	if err := DecodeStructCol(buf[:len(buf)-2], &out); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated struct column: %v", err)
	}
	if err := DecodeStructCol(append(buf[:len(buf):len(buf)], 0), &out); !errors.Is(err, ErrCorrupt) {
		t.Errorf("struct column with a trailing byte: %v", err)
	}
	if err := DecodeStructCol(nil, &out); !errors.Is(err, ErrCorrupt) {
		t.Errorf("nil struct column: %v", err)
	}
	if err := DecodeNodeAttrCol(buf, &out); !errors.Is(err, ErrCorrupt) {
		t.Errorf("wrong column tag: %v", err)
	}
	if _, err := DecodeEvents(nil, []byte{0x77}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("wrong events tag: %v", err)
	}
	if out.Len() != 0 {
		t.Errorf("a failed decode left %d records behind", out.Len())
	}
	// Counts and lengths the payload cannot hold: the reader used to make the
	// slice first (an event count of 2^35 is a 3 TB allocation) and to take a
	// length of 2^63 or more for a negative one that passes a bounds check.
	// Format 3's cases are one stream under its tag; format 4's are streams
	// put together by payload4.
	huge := binary.AppendUvarint(nil, 1<<35)
	for name, b := range map[string][]byte{
		"event count":  append([]byte{tagEvents - format3}, huge...),
		"node count":   append([]byte{tagStructCol - format3}, huge...),
		"edge count":   append([]byte{tagStructCol - format3, 0, 0}, huge...),
		"record count": append([]byte{tagNodeAttrCol - format3}, huge...),
		"string length 2^63": append([]byte{tagNodeAttrCol - format3, 1, 1},
			binary.AppendUvarint(nil, 1<<63)...),
		"string length 2^64-2": append([]byte{tagNodeAttrCol - format3, 1, 1},
			binary.AppendUvarint(nil, math.MaxUint64-1)...),
		"string number never given": {tagNodeAttrCol - format3, 1, 1, 0x05},
		"event type 9":              {tagEvents - format3, 1, 9, 0, 0},
		"event head with bit 7":     {tagEvents - format3, 1, 0x81, 0, 0},

		"format 4: event count":                       payload4(tagEvents, huge, nil, nil, nil, nil, nil, nil, nil),
		"format 4: edge count":                        payload4(tagStructCol, []byte{0, 0}, huge, nil, nil),
		"format 4: string length 2^63":                payload4(tagNodeAttrCol, []byte{1, 1, 0}, binary.AppendUvarint(nil, 1<<63), []byte{0}),
		"format 4: string number never given":         payload4(tagNodeAttrCol, []byte{1, 1, 0}, []byte{0x05}, []byte{0}),
		"format 4: event type 9":                      payload4(tagEvents, []byte{1, 9}, []byte{0}, []byte{0}, nil, nil, nil, nil, nil),
		"format 4: truncated length header":           {tagStructCol, 3, 0x80},
		"format 4: stream past the end":               {tagStructCol, 9, 2, 0, 1, 2, 0, 0, 0},
		"format 4: trailing bytes in a middle stream": payload4(tagStructCol, []byte{1, 2, 0}, []byte{0, 0}, []byte{7}, nil),
		"format 4: a count its stream cannot hold":    payload4(tagStructCol, []byte{5, 2}, []byte{0, 0}, []byte{1, 1, 1, 1}, nil),
		"format 4: too few streams":                   payload4(tagNodeAttrCol, []byte{1, 1, 0}, []byte{2, 'k', 2, 'v'}),
		"format 3 tag on a format-4 body": append([]byte{tagNodeAttrCol - format3},
			payload4(tagNodeAttrCol, []byte{1, 0, 0}, []byte{2, 'k'}, []byte{2, 'v'})[1:]...),
	} {
		var err error
		kind := b[0]
		if kind < tagStructCol {
			kind += format3
		}
		switch kind {
		case tagStructCol:
			err = DecodeStructCol(b, &out)
		case tagNodeAttrCol:
			err = DecodeNodeAttrCol(b, &out)
		case tagEvents:
			_, err = DecodeEvents(nil, b)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: %v", name, err)
		}
	}
	if err := DecodeNodeAttrCol(payload4(tagNodeAttrCol, []byte{1, 1, 0}, []byte{2, 'k'}, []byte{2, 'v'}), &out); err != nil {
		t.Errorf("the well-formed payload the cases above are made from: %v", err)
	}
}

// payload4 puts a format-4 payload together from its streams.
func payload4(tag byte, streams ...[]byte) []byte {
	b := []byte{tag}
	for _, s := range streams[:len(streams)-1] {
		b = binary.AppendUvarint(b, uint64(len(s)))
	}
	return append(b, bytes.Join(streams, nil)...)
}

// A payload or checkpoint an earlier build wrote is refused by name, with
// what to do about it, and never taken for a damaged format-3 one.
func TestFormat2IsRefused(t *testing.T) {
	var out Delta
	structCol2 := []byte{0x01, 1, 2, 0, 0, 0}             // format 2: AddNodes = [1]
	events2 := []byte{0x04, 1, 1, 2, 4, 0, 0, 0, 0, 0, 0} // format 2: one AddNode
	_, evErr := DecodeEvents(nil, events2)
	for name, err := range map[string]error{
		"struct column":   DecodeStructCol(structCol2, &out),
		"nodeattr column": DecodeNodeAttrCol([]byte{0x02, 0, 0}, &out),
		"edgeattr column": DecodeEdgeAttrCol([]byte{0x03, 0, 0}, &out),
		"eventlist":       evErr,
	} {
		if !errors.Is(err, ErrOldFormat) || errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "rebuild") {
			t.Errorf("format-2 %s: %v", name, err)
		}
	}
}

// The sizes of one fixed trace and of the whole graph it builds, pinned: a
// change to the codec that costs bytes fails here, not months later in the
// benchmark's index_bytes_per_event. Each is pinned as the payload and as
// flate at BestSpeed (what FileStore stores) makes it, in format 4 and in
// format 3. Format 4 adds the stream lengths, a few bytes, and compresses
// smaller by 5 % (struct), 23 % (eventlist) and 31 % (nodeattr). (Format 2
// took 27 398, 3 802 and 9 274.)
func TestCodecGoldenSizes(t *testing.T) {
	trace := datagen.Churn(
		datagen.Coauthorship(datagen.CoauthorshipConfig{Authors: 100, Edges: 704, Years: 5, Seed: 1}),
		datagen.ChurnConfig{Adds: 100, Dels: 100, Seed: 1})
	if len(trace) != 2000 {
		t.Fatalf("the fixed trace has %d events, want 2000", len(trace))
	}
	s := graph.NewSnapshot()
	s.ApplyAll(trace)
	whole := FromSnapshot(s)
	v4, v3 := layouts[0].start, layouts[1].start
	for _, c := range []struct {
		name string
		got  []byte
		want [2]int // payload, flated
	}{
		{"eventlist", encodeEvents(v4, trace), [2]int{12848, 5685}},
		{"whole-graph struct column", encodeStructCol(v4, whole), [2]int{2335, 1516}},
		{"whole-graph nodeattr column", encodeNodeAttrCol(v4, whole), [2]int{5795, 2259}},
		{"format-3 eventlist", encodeEvents(v3, trace), [2]int{12835, 7376}},
		{"format-3 whole-graph struct column", encodeStructCol(v3, whole), [2]int{2330, 1603}},
		{"format-3 whole-graph nodeattr column", encodeNodeAttrCol(v3, whole), [2]int{5791, 3255}},
	} {
		if got := [2]int{len(c.got), flated(c.got)}; got != c.want {
			t.Errorf("%s: %d bytes, %d flated, pinned at %d and %d", c.name, got[0], got[1], c.want[0], c.want[1])
		}
	}
}

// flated is the length of b compressed as FileStore compresses a value.
func flated(b []byte) int {
	var buf bytes.Buffer
	fw, _ := flate.NewWriter(&buf, flate.BestSpeed) // a valid level never errs
	fw.Write(b)
	fw.Close()
	return buf.Len()
}

func TestCodecStringsWithSpecialBytes(t *testing.T) {
	d := &Delta{SetNodeAttrs: []NodeAttrRec{{Node: 1, Attr: "bin\x00attr", Val: "val\xffue\n"}}}
	var got Delta
	if err := DecodeNodeAttrCol(EncodeNodeAttrCol(d), &got); err != nil {
		t.Fatal(err)
	}
	if got.SetNodeAttrs[0] != d.SetNodeAttrs[0] {
		t.Error("binary-safe strings did not round-trip")
	}
}
