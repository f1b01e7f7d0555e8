package graph

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// EventType enumerates the atomic activities recorded in the historical
// trace (Section 3.1 of the paper).
type EventType uint8

const (
	// AddNode records the creation of a node.
	AddNode EventType = iota + 1
	// DelNode records the deletion of a node. A well-formed trace deletes
	// a node's attributes and incident edges (via SetNodeAttr/DelEdge
	// events) before the node itself, so that every event is invertible.
	DelNode
	// AddEdge records the creation of an edge.
	AddEdge
	// DelEdge records the deletion of an edge. The event carries the
	// edge's endpoints and direction so it can be applied backward.
	DelEdge
	// SetNodeAttr records an update to a node attribute: creation
	// (HadOld=false), change, or removal (HasNew=false). Both old and new
	// values are carried so the event is bidirectional (the paper's UNA
	// event).
	SetNodeAttr
	// SetEdgeAttr is the edge counterpart of SetNodeAttr.
	SetEdgeAttr
	// TransientEdge records an edge valid only at the event's instant
	// (e.g. a message between two nodes). Transient events never modify
	// snapshot state; they are surfaced by interval queries.
	TransientEdge
	// TransientNode records a node valid only at the event's instant.
	TransientNode
)

var eventTypeNames = map[EventType]string{
	AddNode: "NN", DelNode: "DN", AddEdge: "NE", DelEdge: "DE",
	SetNodeAttr: "UNA", SetEdgeAttr: "UEA",
	TransientEdge: "TE", TransientNode: "TN",
}

// eventTypesByMnemonic inverts eventTypeNames.
var eventTypesByMnemonic = func() map[string]EventType {
	m := make(map[string]EventType, len(eventTypeNames))
	for t, s := range eventTypeNames {
		m[s] = t
	}
	return m
}()

// ParseEventType resolves a mnemonic as String spells it, in either case.
// It is the one place an event type arriving from outside the program —
// a JSON body, a binary message, a WAL record — is validated.
func ParseEventType(name string) (EventType, error) {
	t, ok := eventTypesByMnemonic[strings.ToUpper(name)]
	if !ok {
		return 0, fmt.Errorf("unknown event type %q (want NN, DN, NE, DE, UNA, UEA, TE or TN)", name)
	}
	return t, nil
}

// String returns the paper's short mnemonic for the event type (NE = new
// edge, UNA = update node attribute, and so on).
func (t EventType) String() string {
	if s, ok := eventTypeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("EventType(%d)", uint8(t))
}

// IsTransient reports whether the type denotes a transient occurrence.
func (t EventType) IsTransient() bool { return t == TransientEdge || t == TransientNode }

// Event is the record of one atomic activity in the network at one time
// point. Which fields are meaningful depends on Type:
//
//	AddNode/DelNode/TransientNode: Node
//	AddEdge/DelEdge/TransientEdge: Edge, Node (from), Node2 (to), Directed
//	SetNodeAttr:                   Node, Attr, Old/HadOld, New/HasNew
//	SetEdgeAttr:                   Edge, Node, Node2, Attr, Old/HadOld, New/HasNew
//
// Edge-attribute events carry the endpoints as well so that horizontal
// partitioning can route them without a lookup.
//
// The fields are in alignment order, the 8-byte ones first and the four
// 1-byte ones sharing the last word, so an Event is 88 bytes with no padding
// but that word's tail. Every list of events (a trace, a WAL run, an apply
// queue, the open leaf's tail) is made of them.
type Event struct {
	At       Time
	Node     NodeID
	Node2    NodeID
	Edge     EdgeID
	Attr     string
	Old, New string
	Type     EventType
	Directed bool
	HadOld   bool
	HasNew   bool
}

// eventJSON is an Event's JSON object as UnmarshalJSON reads it: the type
// by its mnemonic, and old/new present exactly when HadOld/HasNew are, so
// "attribute removed" stays distinguishable from "set to empty string".
type eventJSON struct {
	Type     string    `json:"type"`
	At       Time      `json:"at"`
	Node     NodeID    `json:"node"`
	Node2    NodeID    `json:"node2"`
	Edge     EdgeID    `json:"edge"`
	Directed bool      `json:"directed"`
	Attr     string    `json:"attr"`
	Old      optString `json:"old"`
	New      optString `json:"new"`
}

// optString is a JSON string that knows whether it was there at all.
type optString struct {
	s   string
	set bool
}

func (o *optString) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		return nil
	}
	o.set = true
	return json.Unmarshal(b, &o.s)
}

// MarshalJSON renders the event as the service's wire object: the fields
// of eventJSON in that order, zero ids, a false directed and an empty attr
// left out. It is written out by hand because every JSON append and
// /replicate page pays it per event, and a second trip through reflection
// inside the encoder's own costs three times as much.
func (e Event) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 128)
	b = append(b, `{"type":"`...)
	b = append(b, e.Type.String()...)
	b = append(b, `","at":`...)
	b = strconv.AppendInt(b, int64(e.At), 10)
	for _, f := range [...]struct {
		key string
		v   int64
	}{{`,"node":`, int64(e.Node)}, {`,"node2":`, int64(e.Node2)}, {`,"edge":`, int64(e.Edge)}} {
		if f.v != 0 {
			b = strconv.AppendInt(append(b, f.key...), f.v, 10)
		}
	}
	if e.Directed {
		b = append(b, `,"directed":true`...)
	}
	for _, f := range [...]struct {
		key, v string
		set    bool
	}{{`,"attr":`, e.Attr, e.Attr != ""}, {`,"old":`, e.Old, e.HadOld}, {`,"new":`, e.New, e.HasNew}} {
		if f.set {
			b = appendJSONString(append(b, f.key...), f.v)
		}
	}
	return append(b, '}'), nil
}

// appendJSONString appends s as encoding/json spells it: as it stands
// between quotes when nothing in it needs escaping, else by asking.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// UnmarshalJSON reads the object MarshalJSON writes. The type name is
// accepted in either case; an unknown one is an error.
func (e *Event) UnmarshalJSON(b []byte) error {
	var j eventJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	typ, err := ParseEventType(j.Type)
	if err != nil {
		return err
	}
	*e = Event{
		Type: typ, At: j.At, Node: j.Node, Node2: j.Node2, Edge: j.Edge,
		Directed: j.Directed, Attr: j.Attr,
		Old: j.Old.s, HadOld: j.Old.set, New: j.New.s, HasNew: j.New.set,
	}
	return nil
}

// String renders the event in a form close to the paper's examples, e.g.
// {NE, N:23, N:4590, directed:no, t:17}.
func (e Event) String() string {
	switch e.Type {
	case AddNode, DelNode, TransientNode:
		return fmt.Sprintf("{%s, N:%d, t:%d}", e.Type, e.Node, e.At)
	case AddEdge, DelEdge, TransientEdge:
		dir := "no"
		if e.Directed {
			dir = "yes"
		}
		return fmt.Sprintf("{%s, E:%d, N:%d, N:%d, directed:%s, t:%d}", e.Type, e.Edge, e.Node, e.Node2, dir, e.At)
	case SetNodeAttr:
		return fmt.Sprintf("{%s, N:%d, %q, old:%q, new:%q, t:%d}", e.Type, e.Node, e.Attr, e.Old, e.New, e.At)
	case SetEdgeAttr:
		return fmt.Sprintf("{%s, E:%d, %q, old:%q, new:%q, t:%d}", e.Type, e.Edge, e.Attr, e.Old, e.New, e.At)
	}
	return fmt.Sprintf("{%v}", e.Type)
}

// Inverse returns the event that undoes e: applying Inverse() forward is
// equivalent to applying e backward. Transient events are their own inverse.
func (e Event) Inverse() Event {
	inv := e
	switch e.Type {
	case AddNode:
		inv.Type = DelNode
	case DelNode:
		inv.Type = AddNode
	case AddEdge:
		inv.Type = DelEdge
	case DelEdge:
		inv.Type = AddEdge
	case SetNodeAttr, SetEdgeAttr:
		inv.Old, inv.New = e.New, e.Old
		inv.HadOld, inv.HasNew = e.HasNew, e.HadOld
	}
	return inv
}

// EventList is a list of events in chronological order (the paper's
// "eventlist").
type EventList []Event

// Sorted reports whether the list is in non-decreasing time order.
func (el EventList) Sorted() bool {
	return sort.SliceIsSorted(el, func(i, j int) bool { return el[i].At < el[j].At })
}

// Sort orders the list chronologically, preserving the relative order of
// events with equal timestamps (events within one timestamp are applied in
// recorded order).
func (el EventList) Sort() {
	sort.SliceStable(el, func(i, j int) bool { return el[i].At < el[j].At })
}

// SearchTime returns the number of leading events with At <= t, i.e. the
// index of the first event strictly after t.
func (el EventList) SearchTime(t Time) int {
	return sort.Search(len(el), func(i int) bool { return el[i].At > t })
}

// Span returns the time interval [first, last] covered by the list.
// It returns (0, 0) for an empty list.
func (el EventList) Span() (Time, Time) {
	if len(el) == 0 {
		return 0, 0
	}
	return el[0].At, el[len(el)-1].At
}

// Validate checks that the list is chronologically ordered and that every
// event is applicable in sequence starting from base (which may be nil for
// an initially empty graph). It returns the first violation found. Validate
// does not modify base.
func (el EventList) Validate(base *Snapshot) error {
	if !el.Sorted() {
		return fmt.Errorf("eventlist is not chronologically sorted")
	}
	s := base.Clone()
	for i, ev := range el {
		if err := s.ApplyStrict(ev); err != nil {
			return fmt.Errorf("event %d %v: %w", i, ev, err)
		}
	}
	return nil
}
