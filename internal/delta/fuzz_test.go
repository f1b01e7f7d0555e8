package delta

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"historygraph/internal/graph"
)

// fuzzSource turns fuzz input into structured values: ids near each other,
// ids at the ends of the range, the live appends' 1<<40 edge ids, and strings
// that repeat.
type fuzzSource struct{ b []byte }

func (s *fuzzSource) byte() byte {
	if len(s.b) == 0 {
		return 0
	}
	x := s.b[0]
	s.b = s.b[1:]
	return x
}

func (s *fuzzSource) id() int64 {
	x := int64(s.byte())
	switch s.byte() % 6 {
	case 0:
		return -x
	case 1:
		return 1<<40 + x
	case 2:
		return math.MaxInt64 - x
	case 3:
		return math.MinInt64 + x
	case 4:
		return x << 20
	}
	return x
}

func (s *fuzzSource) str() string {
	switch n := s.byte(); {
	case n < 128:
		return []string{"", "k", "name", "v1", "v2", "a longer value, of the kind that repeats"}[n%6]
	default:
		n = min(n-128, byte(len(s.b)))
		str := string(s.b[:n])
		s.b = s.b[n:]
		return str
	}
}

func (s *fuzzSource) delta() *Delta {
	d := &Delta{}
	for len(s.b) > 0 {
		switch s.byte() % 8 {
		case 0:
			d.AddNodes = append(d.AddNodes, graph.NodeID(s.id()))
		case 1:
			d.DelNodes = append(d.DelNodes, graph.NodeID(s.id()))
		case 2:
			d.AddEdges = append(d.AddEdges, EdgeRec{ID: graph.EdgeID(s.id()), From: graph.NodeID(s.id()), To: graph.NodeID(s.id()), Directed: s.byte()&1 != 0})
		case 3:
			d.DelEdges = append(d.DelEdges, EdgeRec{ID: graph.EdgeID(s.id()), From: graph.NodeID(s.id()), To: graph.NodeID(s.id()), Directed: s.byte()&1 != 0})
		case 4:
			d.SetNodeAttrs = append(d.SetNodeAttrs, NodeAttrRec{Node: graph.NodeID(s.id()), Attr: s.str(), Val: s.str()})
		case 5:
			d.DelNodeAttrs = append(d.DelNodeAttrs, NodeAttrRec{Node: graph.NodeID(s.id()), Attr: s.str()})
		case 6:
			d.SetEdgeAttrs = append(d.SetEdgeAttrs, EdgeAttrRec{Edge: graph.EdgeID(s.id()), From: graph.NodeID(s.id()), Attr: s.str(), Val: s.str()})
		case 7:
			d.DelEdgeAttrs = append(d.DelEdgeAttrs, EdgeAttrRec{Edge: graph.EdgeID(s.id()), From: graph.NodeID(s.id()), Attr: s.str()})
		}
	}
	if s.byte()&1 == 0 {
		d.SortStable() // what the index stores; unsorted must round-trip too
	}
	return d
}

func (s *fuzzSource) events() []graph.Event {
	var evs []graph.Event
	var at graph.Time
	for len(s.b) > 0 {
		flags := s.byte()
		ev := graph.Event{Type: graph.EventType(flags % 10), Directed: flags&16 != 0, HadOld: flags&32 != 0, HasNew: flags&64 != 0}
		at += graph.Time(s.byte() % 4)
		ev.At, ev.Node = at, graph.NodeID(s.id())
		if flags&128 != 0 { // any field, whatever the type
			ev.At, ev.Type = graph.Time(s.id()), graph.EventType(s.byte())
			ev.Node2, ev.Edge = graph.NodeID(s.id()), graph.EdgeID(s.id())
			ev.Attr, ev.Old, ev.New = s.str(), s.str(), s.str()
		} else {
			switch ev.Type {
			case graph.AddEdge, graph.DelEdge, graph.TransientEdge, graph.SetEdgeAttr:
				ev.Node2, ev.Edge = graph.NodeID(s.id()), graph.EdgeID(s.id())
			}
			switch ev.Type {
			case graph.SetNodeAttr, graph.SetEdgeAttr:
				ev.Attr = s.str()
				if ev.HadOld {
					ev.Old = s.str()
				}
				if ev.HasNew {
					ev.New = s.str()
				}
			}
		}
		evs = append(evs, ev)
	}
	return evs
}

// allocatedWithin runs decode and fails the test if it allocated more than a
// small multiple of the payload it was given: 48 bytes a payload byte (a
// decoded event is 88 bytes and takes at least 3) plus a constant. The
// counter is the whole process's and a fuzz worker has goroutines of its own,
// so an excess has to show three times in a row.
func allocatedWithin(t *testing.T, payload []byte, decode func()) {
	t.Helper()
	limit := uint64(48*len(payload) + 4096)
	var got uint64
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		decode()
		runtime.ReadMemStats(&after)
		if got = after.TotalAlloc - before.TotalAlloc; got <= limit {
			return
		}
	}
	t.Errorf("decoding %d bytes allocated %d, more than %d", len(payload), got, limit)
}

// FuzzPayloadCodec checks the four payload kinds of this package (the fifth
// stored use, a checkpoint's graphs, is the three columns again; the aux
// kinds have the same test in internal/deltagraph). The input is used twice:
// as the body of a payload of every kind under its format-4 and its format-3
// tag, which must decode or be refused without a panic and without
// allocating out of proportion; and as the recipe for a delta and an
// eventlist, which must come back from the codec as they went in, in both
// layouts — unsorted, out of range, or with values in fields they do not
// use — and the eventlist decoded onto a list that holds events already.
func FuzzPayloadCodec(f *testing.F) {
	held := []graph.Event{
		{Type: graph.AddNode, At: 1, Node: 7},
		{Type: graph.SetNodeAttr, At: 1, Node: 7, Attr: "k", New: "v", HasNew: true},
	}
	f.Add([]byte{})
	f.Add(EncodeStructCol(&Delta{AddNodes: []graph.NodeID{1, 2, 3}, AddEdges: []EdgeRec{{ID: 1 << 40, From: 1, To: 2, Directed: true}}}))
	f.Add(EncodeNodeAttrCol(&Delta{SetNodeAttrs: []NodeAttrRec{{Node: 1, Attr: "k", Val: "v"}, {Node: 1, Attr: "l", Val: "v"}}}))
	f.Add(EncodeEdgeAttrCol(&Delta{DelEdgeAttrs: []EdgeAttrRec{{Edge: 7, From: 1, Attr: "k"}}}))
	f.Add(EncodeEvents([]graph.Event{
		{Type: graph.AddEdge, At: 2, Edge: 5, Node: 100, Node2: -3, Directed: true},
		{Type: graph.SetNodeAttr, At: 4, Node: 100, Attr: "name", Old: "alice", HadOld: true, New: "bob", HasNew: true},
		{Type: 99, At: 1, Attr: "x"},
	}))
	// Format-4 bodies, whole and broken. Every body is also tried under the
	// format-3 tag of its kind, so each of these is a format-3 tag on a
	// format-4 body too.
	for _, body := range [][]byte{
		payload4(tagNodeAttrCol, []byte{1, 1, 0}, []byte{2, 'k'}, []byte{2, 'v'})[1:],
		{3, 0x80},                // a truncated length header
		{9, 2, 0, 1, 2, 0, 0, 0}, // a stream length past the end
		payload4(tagStructCol, []byte{1, 2, 0}, []byte{0, 0}, []byte{7}, nil)[1:],       // trailing bytes in a middle stream
		payload4(tagStructCol, []byte{5, 2}, []byte{0, 0}, []byte{1, 1, 1, 1}, nil)[1:], // a count its stream cannot hold
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, kind := range []byte{tagStructCol, tagNodeAttrCol, tagEdgeAttrCol, tagEvents} {
			for _, tag := range []byte{kind, kind - format3} {
				payload := append([]byte{tag}, data...)
				allocatedWithin(t, payload, func() {
					var d Delta
					_ = DecodeStructCol(payload, &d)
					_ = DecodeNodeAttrCol(payload, &d)
					_ = DecodeEdgeAttrCol(payload, &d)
					_, _ = DecodeEvents(nil, payload)
				})
			}
		}

		want := (&fuzzSource{b: data}).delta()
		wantEvs := (&fuzzSource{b: data}).events()
		for _, l := range layouts {
			got, err := decodeDelta(encodeDelta(l.start, want))
			if err != nil {
				t.Fatalf("%s: %v", l.name, err)
			}
			if !slices.Equal(got.AddNodes, want.AddNodes) || !slices.Equal(got.DelNodes, want.DelNodes) ||
				!slices.Equal(got.AddEdges, want.AddEdges) || !slices.Equal(got.DelEdges, want.DelEdges) ||
				!slices.Equal(got.SetNodeAttrs, want.SetNodeAttrs) || !slices.Equal(got.DelNodeAttrs, want.DelNodeAttrs) ||
				!slices.Equal(got.SetEdgeAttrs, want.SetEdgeAttrs) || !slices.Equal(got.DelEdgeAttrs, want.DelEdgeAttrs) {
				t.Errorf("%s: delta came back as\n%+v, went in as\n%+v", l.name, *got, *want)
			}
			gotEvs, err := DecodeEvents(nil, encodeEvents(l.start, wantEvs))
			if err != nil {
				t.Fatalf("%s: %v", l.name, err)
			}
			if !slices.Equal(gotEvs, wantEvs) {
				t.Errorf("%s: events came back as\n%+v, went in as\n%+v", l.name, gotEvs, wantEvs)
			}
			// Decoded onto a list that holds events already, with and
			// without the room for them: the list is left as it was and
			// what follows it is the fresh decode.
			for _, room := range []int{0, len(gotEvs)} {
				dst := append(make([]graph.Event, 0, len(held)+room), held...)
				got, err := DecodeEvents(dst, encodeEvents(l.start, wantEvs))
				if err != nil || !slices.Equal(got[:len(held)], held) || !slices.Equal(got[len(held):], gotEvs) {
					t.Errorf("%s: decoded after %d events (room for %d more): %+v, %v", l.name, len(held), room, got, err)
				}
			}
		}
	})
}
