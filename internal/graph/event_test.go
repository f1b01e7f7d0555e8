package graph

import (
	"encoding/json"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestEventLayout pins an Event at 88 bytes: eleven words, the four 1-byte
// fields sharing the last. Declared in their natural order (Type first,
// Directed between the ids and the strings) each of those started a word of
// its own, and an Event was 104 bytes, 16 of them padding.
func TestEventLayout(t *testing.T) {
	var ev Event
	if size := unsafe.Sizeof(ev); size != 88 {
		t.Errorf("an Event is %d bytes, want 88", size)
	}
	for name, off := range map[string]uintptr{
		"Type": unsafe.Offsetof(ev.Type), "Directed": unsafe.Offsetof(ev.Directed),
		"HadOld": unsafe.Offsetof(ev.HadOld), "HasNew": unsafe.Offsetof(ev.HasNew),
	} {
		if off < 80 {
			t.Errorf("%s is at offset %d, want it in the last word (80 and up)", name, off)
		}
	}
}

func TestEventTypeString(t *testing.T) {
	cases := map[EventType]string{
		AddNode: "NN", DelNode: "DN", AddEdge: "NE", DelEdge: "DE",
		SetNodeAttr: "UNA", SetEdgeAttr: "UEA", TransientEdge: "TE", TransientNode: "TN",
	}
	for typ, want := range cases {
		if got := typ.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", typ, got, want)
		}
	}
	if got := EventType(99).String(); got != "EventType(99)" {
		t.Errorf("unknown type string = %q", got)
	}
}

func TestEventInverse(t *testing.T) {
	ev := Event{Type: AddNode, At: 5, Node: 1}
	if ev.Inverse().Type != DelNode {
		t.Errorf("inverse of AddNode = %v", ev.Inverse().Type)
	}
	if ev.Inverse().Inverse() != ev {
		t.Errorf("double inverse changed event")
	}
	attr := Event{Type: SetNodeAttr, At: 7, Node: 1, Attr: "x", Old: "a", New: "b", HadOld: true, HasNew: true}
	inv := attr.Inverse()
	if inv.Old != "b" || inv.New != "a" {
		t.Errorf("attr inverse swapped wrong: %+v", inv)
	}
	if attr.Inverse().Inverse() != attr {
		t.Errorf("attr double inverse changed event")
	}
	tr := Event{Type: TransientEdge, At: 3, Edge: 9}
	if tr.Inverse() != tr {
		t.Errorf("transient inverse should be identity")
	}
}

func TestEventListSortSearch(t *testing.T) {
	el := EventList{
		{Type: AddNode, At: 30, Node: 3},
		{Type: AddNode, At: 10, Node: 1},
		{Type: AddNode, At: 20, Node: 2},
	}
	if el.Sorted() {
		t.Fatal("unsorted list reported sorted")
	}
	el.Sort()
	if !el.Sorted() {
		t.Fatal("Sort did not sort")
	}
	for _, tc := range []struct {
		t    Time
		want int
	}{{5, 0}, {10, 1}, {15, 1}, {30, 3}, {100, 3}} {
		if got := el.SearchTime(tc.t); got != tc.want {
			t.Errorf("SearchTime(%d) = %d, want %d", tc.t, got, tc.want)
		}
	}
	lo, hi := el.Span()
	if lo != 10 || hi != 30 {
		t.Errorf("Span = (%d, %d)", lo, hi)
	}
	var empty EventList
	if lo, hi := empty.Span(); lo != 0 || hi != 0 {
		t.Errorf("empty Span = (%d, %d)", lo, hi)
	}
}

func TestEventListSortStable(t *testing.T) {
	el := EventList{
		{Type: AddNode, At: 10, Node: 1},
		{Type: AddEdge, At: 10, Edge: 1, Node: 1, Node2: 1},
		{Type: DelEdge, At: 10, Edge: 1, Node: 1, Node2: 1},
	}
	el.Sort()
	if el[1].Type != AddEdge || el[2].Type != DelEdge {
		t.Errorf("equal-time order not preserved: %v", el)
	}
}

// randomTrace builds a random but well-formed event trace.
func randomTrace(rng *rand.Rand, n int) EventList {
	var (
		events    EventList
		nextNode  NodeID
		nextEdge  EdgeID
		liveNodes []NodeID
		liveEdges []EdgeID
		edgeInfo  = map[EdgeID]EdgeInfo{}
		nodeAttrs = map[NodeID]map[string]string{}
	)
	attrNames := []string{"a", "b", "c"}
	for i := 0; i < n; i++ {
		at := Time(i + 1)
		switch op := rng.Intn(10); {
		case op < 3 || len(liveNodes) == 0:
			nextNode++
			liveNodes = append(liveNodes, nextNode)
			events = append(events, Event{Type: AddNode, At: at, Node: nextNode})
		case op < 6 && len(liveNodes) >= 2:
			nextEdge++
			u := liveNodes[rng.Intn(len(liveNodes))]
			v := liveNodes[rng.Intn(len(liveNodes))]
			liveEdges = append(liveEdges, nextEdge)
			edgeInfo[nextEdge] = EdgeInfo{From: u, To: v}
			events = append(events, Event{Type: AddEdge, At: at, Edge: nextEdge, Node: u, Node2: v})
		case op < 8:
			node := liveNodes[rng.Intn(len(liveNodes))]
			attr := attrNames[rng.Intn(len(attrNames))]
			old, had := nodeAttrs[node][attr]
			if rng.Intn(4) == 0 && had {
				events = append(events, Event{Type: SetNodeAttr, At: at, Node: node, Attr: attr, Old: old, HadOld: true})
				delete(nodeAttrs[node], attr)
			} else {
				newv := attrNames[rng.Intn(len(attrNames))] + "v"
				events = append(events, Event{Type: SetNodeAttr, At: at, Node: node, Attr: attr, Old: old, HadOld: had, New: newv, HasNew: true})
				if nodeAttrs[node] == nil {
					nodeAttrs[node] = map[string]string{}
				}
				nodeAttrs[node][attr] = newv
			}
		case op < 9 && len(liveEdges) > 0:
			idx := rng.Intn(len(liveEdges))
			e := liveEdges[idx]
			info := edgeInfo[e]
			liveEdges = append(liveEdges[:idx], liveEdges[idx+1:]...)
			events = append(events, Event{Type: DelEdge, At: at, Edge: e, Node: info.From, Node2: info.To})
		default:
			events = append(events, Event{Type: TransientEdge, At: at, Edge: 1 << 30, Node: liveNodes[0], Node2: liveNodes[0]})
		}
	}
	return events
}

// Property: applying a run of events forward, then their inverses newest
// first, restores the original snapshot ((S + E) - E == S).
func TestApplyUnapplyRoundTrip(t *testing.T) {
	check := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		events := randomTrace(rng, int(size)+1)
		split := rng.Intn(len(events))
		base := NewSnapshot()
		base.ApplyAll(events[:split])
		want := base.Clone()
		base.ApplyAll(events[split:])
		for i := len(events) - 1; i >= split; i-- {
			base.Apply(events[i].Inverse())
		}
		return base.Equal(want)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestValidateCatchesMalformed(t *testing.T) {
	good := randomTrace(rand.New(rand.NewSource(1)), 100)
	if err := good.Validate(nil); err != nil {
		t.Fatalf("well-formed trace rejected: %v", err)
	}
	bad := EventList{{Type: DelNode, At: 1, Node: 42}}
	if err := bad.Validate(nil); err == nil {
		t.Error("deleting missing node not caught")
	}
	unsorted := EventList{{Type: AddNode, At: 2, Node: 1}, {Type: AddNode, At: 1, Node: 2}}
	if err := unsorted.Validate(nil); err == nil {
		t.Error("unsorted list not caught")
	}
	dupe := EventList{{Type: AddNode, At: 1, Node: 1}, {Type: AddNode, At: 2, Node: 1}}
	if err := dupe.Validate(nil); err == nil {
		t.Error("duplicate node add not caught")
	}
	danglingEdge := EventList{{Type: AddEdge, At: 1, Edge: 1, Node: 5, Node2: 6}}
	if err := danglingEdge.Validate(nil); err == nil {
		t.Error("edge with missing endpoints not caught")
	}
	attrOnMissing := EventList{{Type: SetNodeAttr, At: 1, Node: 9, Attr: "x", New: "v", HasNew: true}}
	if err := attrOnMissing.Validate(nil); err == nil {
		t.Error("attr on missing node not caught")
	}
	staleOld := EventList{
		{Type: AddNode, At: 1, Node: 1},
		{Type: SetNodeAttr, At: 2, Node: 1, Attr: "x", Old: "wrong", HadOld: true, New: "v", HasNew: true},
	}
	if err := staleOld.Validate(nil); err == nil {
		t.Error("old-value mismatch not caught")
	}
}

func TestSnapshotAt(t *testing.T) {
	events := EventList{
		{Type: AddNode, At: 1, Node: 1},
		{Type: AddNode, At: 2, Node: 2},
		{Type: AddEdge, At: 3, Edge: 1, Node: 1, Node2: 2},
		{Type: DelEdge, At: 5, Edge: 1, Node: 1, Node2: 2},
	}
	s3 := SnapshotAt(events, 3)
	if len(s3.Nodes) != 2 || len(s3.Edges) != 1 {
		t.Errorf("t=3: %d nodes %d edges", len(s3.Nodes), len(s3.Edges))
	}
	s4 := SnapshotAt(events, 4)
	if len(s4.Edges) != 1 {
		t.Errorf("t=4 should still have edge")
	}
	s5 := SnapshotAt(events, 5)
	if len(s5.Edges) != 0 {
		t.Errorf("t=5 should have no edge")
	}
}

// TestEventJSONMatchesEncodingJSON holds the hand-written MarshalJSON to
// what encoding/json writes for the same object through struct tags, over
// the strings that need escaping and the fields that may be left out, and
// checks UnmarshalJSON reads it back.
func TestEventJSONMatchesEncodingJSON(t *testing.T) {
	type reference struct {
		Type     string  `json:"type"`
		At       int64   `json:"at"`
		Node     int64   `json:"node,omitempty"`
		Node2    int64   `json:"node2,omitempty"`
		Edge     int64   `json:"edge,omitempty"`
		Directed bool    `json:"directed,omitempty"`
		Attr     string  `json:"attr,omitempty"`
		Old      *string `json:"old,omitempty"`
		New      *string `json:"new,omitempty"`
	}
	nasty := []string{"", "plain", `q"uote`, `back\slash`, "<tag>&amp;", "tab\tnew\nline", "\x00\x1f\x7f", "naïve ☃", "  ", "bad\xffutf8", "~ tilde"}
	for i, s := range nasty {
		for _, ev := range []Event{
			{Type: SetNodeAttr, At: Time(i), Node: NodeID(i), Attr: s, Old: s, HadOld: true, New: nasty[(i+1)%len(nasty)], HasNew: true},
			{Type: SetEdgeAttr, At: -7, Edge: 1 << 40, Node: -3, Node2: 9, Directed: true, Attr: "w", New: s, HasNew: true},
			{Type: SetNodeAttr, Node: 1, Attr: s, Old: s, HadOld: i%2 == 0},
			{Type: TransientNode, At: MaxTime},
		} {
			ref := reference{Type: ev.Type.String(), At: int64(ev.At), Node: int64(ev.Node), Node2: int64(ev.Node2),
				Edge: int64(ev.Edge), Directed: ev.Directed, Attr: ev.Attr}
			if ev.HadOld {
				ref.Old = &ev.Old
			}
			if ev.HasNew {
				ref.New = &ev.New
			}
			want, err := json.Marshal(ref)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(ev)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("event %+v marshals as\n%s, encoding/json writes\n%s", ev, got, want)
			}
			var back, refBack Event
			if err := json.Unmarshal(got, &back); err != nil {
				t.Fatal(err)
			}
			// Reading replaces invalid UTF-8 and forgets an old value that was
			// not sent, exactly as it would through the reference struct.
			var rb reference
			if err := json.Unmarshal(want, &rb); err != nil {
				t.Fatal(err)
			}
			refBack = Event{Type: ev.Type, At: Time(rb.At), Node: NodeID(rb.Node), Node2: NodeID(rb.Node2), Edge: EdgeID(rb.Edge), Directed: rb.Directed, Attr: rb.Attr}
			if rb.Old != nil {
				refBack.Old, refBack.HadOld = *rb.Old, true
			}
			if rb.New != nil {
				refBack.New, refBack.HasNew = *rb.New, true
			}
			if back != refBack {
				t.Errorf("%s reads back as %+v, want %+v", got, back, refBack)
			}
		}
	}
}
