package delta

import (
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

// Property: every delta column round-trips through the codec.
func TestDeltaCodecRoundTrip(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := randomSnapshot(rng)
		tgt := randomSnapshot(rng)
		d := Compute(tgt, src)

		var got Delta
		if err := DecodeStructCol(EncodeStructCol(d), &got); err != nil {
			return false
		}
		if err := DecodeNodeAttrCol(EncodeNodeAttrCol(d), &got); err != nil {
			return false
		}
		if err := DecodeEdgeAttrCol(EncodeEdgeAttrCol(d), &got); err != nil {
			return false
		}
		// The decoded delta must have the same effect.
		want := src.Clone()
		d.Apply(want)
		out := src.Clone()
		got.Apply(out)
		return out.Equal(want) && got.Len() == d.Len()
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
	got, err := DecodeEvents(EncodeEvents(events))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("len = %d, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Errorf("event %d: %+v != %+v", i, got[i], events[i])
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
	got, err := DecodeEvents(EncodeEvents(nil))
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
	if _, err := DecodeEvents([]byte{0x77}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("wrong events tag: %v", err)
	}
	if out.Len() != 0 {
		t.Errorf("a failed decode left %d records behind", out.Len())
	}
	// Counts and lengths the payload cannot hold: the reader used to make the
	// slice first (an event count of 2^35 is a 3 TB allocation) and to take a
	// length of 2^63 or more for a negative one that passes a bounds check.
	huge := binary.AppendUvarint(nil, 1<<35)
	for name, b := range map[string][]byte{
		"event count":  append([]byte{tagEvents}, huge...),
		"node count":   append([]byte{tagStructCol}, huge...),
		"edge count":   append([]byte{tagStructCol, 0, 0}, huge...),
		"record count": append([]byte{tagNodeAttrCol}, huge...),
		"string length 2^63": append([]byte{tagNodeAttrCol, 1, 1},
			binary.AppendUvarint(nil, 1<<63)...),
		"string length 2^64-2": append([]byte{tagNodeAttrCol, 1, 1},
			binary.AppendUvarint(nil, math.MaxUint64-1)...),
		"string number never given": {tagNodeAttrCol, 1, 1, 0x05},
		"event type 9":              {tagEvents, 1, 9, 0, 0},
		"event head with bit 7":     {tagEvents, 1, 0x81, 0, 0},
	} {
		var err error
		switch b[0] {
		case tagStructCol:
			err = DecodeStructCol(b, &out)
		case tagNodeAttrCol:
			err = DecodeNodeAttrCol(b, &out)
		case tagEvents:
			_, err = DecodeEvents(b)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// A payload or checkpoint an earlier build wrote is refused by name, with
// what to do about it, and never taken for a damaged format-3 one.
func TestFormat2IsRefused(t *testing.T) {
	var out Delta
	structCol2 := []byte{0x01, 1, 2, 0, 0, 0}             // format 2: AddNodes = [1]
	events2 := []byte{0x04, 1, 1, 2, 4, 0, 0, 0, 0, 0, 0} // format 2: one AddNode
	_, evErr := DecodeEvents(events2)
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
// benchmark's index_bytes_per_event. (Format 2 took 27 398, 3 802 and 9 274.)
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
	for _, c := range []struct {
		name      string
		got, want int
	}{
		{"eventlist", len(EncodeEvents(trace)), 12835},
		{"whole-graph struct column", len(EncodeStructCol(whole)), 2330},
		{"whole-graph nodeattr column", len(EncodeNodeAttrCol(whole)), 5791},
	} {
		if c.got != c.want {
			t.Errorf("%s: %d bytes, pinned at %d", c.name, c.got, c.want)
		}
	}
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
