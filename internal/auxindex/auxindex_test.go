package auxindex

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"historygraph/internal/deltagraph"
	"historygraph/internal/graph"
	"historygraph/internal/kvstore"
)

// labeledTrace builds a trace of labeled nodes and edges with churn.
func labeledTrace(seed int64, nodes, edges int) graph.EventList {
	rng := rand.New(rand.NewSource(seed))
	labels := []string{"A", "B", "C"}
	var events graph.EventList
	now := graph.Time(0)
	for i := 1; i <= nodes; i++ {
		now++
		events = append(events, graph.Event{Type: graph.AddNode, At: now, Node: graph.NodeID(i)})
		events = append(events, graph.Event{Type: graph.SetNodeAttr, At: now, Node: graph.NodeID(i), Attr: "label", New: labels[rng.Intn(len(labels))], HasNew: true})
	}
	type edgeRec struct {
		id   graph.EdgeID
		u, v graph.NodeID
	}
	var live []edgeRec
	nextEdge := graph.EdgeID(0)
	for i := 0; i < edges; i++ {
		now++
		if rng.Intn(5) == 0 && len(live) > 0 {
			j := rng.Intn(len(live))
			e := live[j]
			live = append(live[:j], live[j+1:]...)
			events = append(events, graph.Event{Type: graph.DelEdge, At: now, Edge: e.id, Node: e.u, Node2: e.v})
			continue
		}
		u := graph.NodeID(rng.Intn(nodes) + 1)
		v := graph.NodeID(rng.Intn(nodes) + 1)
		if u == v {
			continue
		}
		nextEdge++
		live = append(live, edgeRec{nextEdge, u, v})
		events = append(events, graph.Event{Type: graph.AddEdge, At: now, Edge: nextEdge, Node: u, Node2: v})
	}
	return events
}

// refPaths enumerates all simple 4-node paths (both directions) of the
// reference snapshot, keyed like the index.
func refPaths(s *graph.Snapshot) map[string]struct{} {
	adj := map[graph.NodeID]map[graph.NodeID]bool{}
	for _, info := range s.Edges {
		if info.From == info.To {
			continue
		}
		if adj[info.From] == nil {
			adj[info.From] = map[graph.NodeID]bool{}
		}
		if adj[info.To] == nil {
			adj[info.To] = map[graph.NodeID]bool{}
		}
		adj[info.From][info.To] = true
		adj[info.To][info.From] = true
	}
	label := func(n graph.NodeID) string { return s.NodeAttrs[n]["label"] }
	out := map[string]struct{}{}
	for a := range adj {
		for b := range adj[a] {
			for c := range adj[b] {
				if c == a {
					continue
				}
				for d := range adj[c] {
					if d == a || d == b {
						continue
					}
					key := fmt.Sprintf("%s/%s/%s/%s#%d,%d,%d,%d",
						label(a), label(b), label(c), label(d), a, b, c, d)
					out[key] = struct{}{}
				}
			}
		}
	}
	return out
}

func buildIndexed(t *testing.T, events graph.EventList) (*deltagraph.DeltaGraph, *PathIndex) {
	t.Helper()
	idx := NewPathIndex("label")
	dg, err := deltagraph.Build(events, deltagraph.Options{
		LeafSize: 120, Arity: 3, AuxIndexes: []deltagraph.AuxIndex{idx},
	})
	if err != nil {
		t.Fatal(err)
	}
	return dg, idx
}

// checkPaths compares the index's paths at q with a replay of events to q.
func checkPaths(t *testing.T, dg *deltagraph.DeltaGraph, idx *PathIndex, events graph.EventList, q graph.Time) {
	t.Helper()
	aux, err := dg.GetAuxSnapshot(idx.Name(), q)
	if err != nil {
		t.Fatal(err)
	}
	want := refPaths(graph.SnapshotAt(events, q))
	spurious := 0
	for k := range aux {
		if _, ok := want[k]; !ok {
			spurious++
		}
	}
	if missing := len(want) - (len(aux) - spurious); missing != 0 || spurious != 0 {
		t.Fatalf("t=%d: %d indexed paths, want %d: %d missing, %d spurious", q, len(aux), len(want), missing, spurious)
	}
}

func TestPathIndexMatchesReferenceOverHistory(t *testing.T) {
	events := labeledTrace(1, 14, 220)
	dg, idx := buildIndexed(t, events)
	_, last := events.Span()
	for i := 1; i <= 6; i++ {
		checkPaths(t, dg, idx, events, last*graph.Time(i)/6)
	}
}

// An index reopened from a checkpoint has seen none of the events before
// it, and must answer as one that saw them all.
func TestPathIndexAfterReopen(t *testing.T) {
	events := labeledTrace(1, 14, 220)
	half := len(events) / 2
	for events[half].At == events[half-1].At {
		half++ // a checkpoint does not split a timestamp
	}
	store := kvstore.NewMemStore()
	dg, err := deltagraph.Build(events[:half], deltagraph.Options{
		LeafSize: 120, Arity: 3, Store: store, AuxIndexes: []deltagraph.AuxIndex{NewPathIndex("label")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := dg.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	idx := NewPathIndex("label")
	re, err := deltagraph.Open(deltagraph.Options{Store: store, AuxIndexes: []deltagraph.AuxIndex{idx}})
	if err != nil {
		t.Fatal(err)
	}
	if err := re.AppendAll(events[half:]); err != nil {
		t.Fatal(err)
	}
	_, last := events.Span()
	for i := 1; i <= 6; i++ {
		checkPaths(t, re, idx, events, last*graph.Time(i)/6)
	}
}

func TestFindPaths(t *testing.T) {
	// A fixed path A-B-C-A plus noise.
	events := graph.EventList{}
	now := graph.Time(0)
	addNode := func(id graph.NodeID, label string) {
		now++
		events = append(events,
			graph.Event{Type: graph.AddNode, At: now, Node: id},
			graph.Event{Type: graph.SetNodeAttr, At: now, Node: id, Attr: "label", New: label, HasNew: true})
	}
	addEdge := func(eid graph.EdgeID, u, v graph.NodeID) {
		now++
		events = append(events, graph.Event{Type: graph.AddEdge, At: now, Edge: eid, Node: u, Node2: v})
	}
	addNode(1, "A")
	addNode(2, "B")
	addNode(3, "C")
	addNode(4, "A")
	addNode(5, "Z")
	addEdge(1, 1, 2)
	addEdge(2, 2, 3)
	addEdge(3, 3, 4)
	addEdge(4, 4, 5)

	dg, idx := buildIndexed(t, events)
	m := &Matcher{DG: dg, Index: idx}
	paths, err := m.FindPaths(now, [4]string{"A", "B", "C", "A"})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || paths[0] != (Path{1, 2, 3, 4}) {
		t.Errorf("paths = %v", paths)
	}
	// Reverse direction is stored under the reversed key.
	rev, err := m.FindPaths(now, [4]string{"A", "C", "B", "A"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rev) != 1 || rev[0] != (Path{4, 3, 2, 1}) {
		t.Errorf("reverse paths = %v", rev)
	}
	// Non-existent quartet.
	none, _ := m.FindPaths(now, [4]string{"Z", "Z", "Z", "Z"})
	if len(none) != 0 {
		t.Error("phantom paths found")
	}
}

func TestPatternMatch(t *testing.T) {
	// Data: a square A-B-A-B (1-2-3-4-1) with a diagonal pendant.
	events := graph.EventList{}
	now := graph.Time(0)
	add := func(id graph.NodeID, label string) {
		now++
		events = append(events,
			graph.Event{Type: graph.AddNode, At: now, Node: id},
			graph.Event{Type: graph.SetNodeAttr, At: now, Node: id, Attr: "label", New: label, HasNew: true})
	}
	edge := func(eid graph.EdgeID, u, v graph.NodeID) {
		now++
		events = append(events, graph.Event{Type: graph.AddEdge, At: now, Edge: eid, Node: u, Node2: v})
	}
	add(1, "A")
	add(2, "B")
	add(3, "A")
	add(4, "B")
	edge(1, 1, 2)
	edge(2, 2, 3)
	edge(3, 3, 4)
	edge(4, 4, 1)

	dg, idx := buildIndexed(t, events)
	m := &Matcher{DG: dg, Index: idx}

	// Pattern: the 4-cycle A-B-A-B.
	cycle := &Pattern{
		Labels: map[graph.NodeID]string{10: "A", 11: "B", 12: "A", 13: "B"},
		Edges:  [][2]graph.NodeID{{10, 11}, {11, 12}, {12, 13}, {13, 10}},
	}
	matches, err := m.Match(now, cycle)
	if err != nil {
		t.Fatal(err)
	}
	// The square is found; symmetric rebindings are distinct matches
	// (4 rotations x 2 directions... constrained by labels: A nodes can
	// bind 2 ways x B nodes 2 ways = 4).
	if len(matches) != 4 {
		t.Errorf("cycle matches = %d, want 4: %v", len(matches), matches)
	}
	for _, match := range matches {
		if len(match) != 4 {
			t.Errorf("incomplete binding %v", match)
		}
	}

	// A pattern absent from the data.
	tri := &Pattern{
		Labels: map[graph.NodeID]string{1: "A", 2: "A", 3: "A", 4: "A"},
		Edges:  [][2]graph.NodeID{{1, 2}, {2, 3}, {3, 4}},
	}
	matches, err = m.Match(now, tri)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Errorf("phantom matches: %v", matches)
	}

	// Pattern without a 4-node path is rejected.
	small := &Pattern{Labels: map[graph.NodeID]string{1: "A", 2: "B"}, Edges: [][2]graph.NodeID{{1, 2}}}
	if _, err := m.Match(now, small); err == nil {
		t.Error("small pattern accepted")
	}
}

func TestMatchHistoryCounts(t *testing.T) {
	events := labeledTrace(2, 12, 150)
	dg, idx := buildIndexed(t, events)
	m := &Matcher{DG: dg, Index: idx}
	pat := &Pattern{
		Labels: map[graph.NodeID]string{1: "A", 2: "B", 3: "C", 4: "A"},
		Edges:  [][2]graph.NodeID{{1, 2}, {2, 3}, {3, 4}},
	}
	times := dg.LeafTimes()
	total, err := m.MatchHistory(times, pat)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-check one timepoint against a direct index scan: a pure path
	// pattern's matches are exactly the indexed paths with that quartet.
	paths, err := m.FindPaths(times[len(times)/2], [4]string{"A", "B", "C", "A"})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := m.Match(times[len(times)/2], pat)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct) != len(paths) {
		t.Errorf("path-pattern matches = %d, index paths = %d", len(direct), len(paths))
	}
	_ = total // total varies with the random trace; correctness is checked above
}

func TestRelabeling(t *testing.T) {
	events := graph.EventList{}
	now := graph.Time(0)
	add := func(id graph.NodeID, label string) {
		now++
		events = append(events,
			graph.Event{Type: graph.AddNode, At: now, Node: id},
			graph.Event{Type: graph.SetNodeAttr, At: now, Node: id, Attr: "label", New: label, HasNew: true})
	}
	edge := func(eid graph.EdgeID, u, v graph.NodeID) {
		now++
		events = append(events, graph.Event{Type: graph.AddEdge, At: now, Edge: eid, Node: u, Node2: v})
	}
	add(1, "A")
	add(2, "B")
	add(3, "C")
	add(4, "D")
	edge(1, 1, 2)
	edge(2, 2, 3)
	edge(3, 3, 4)
	relabelAt := now + 1
	events = append(events, graph.Event{Type: graph.SetNodeAttr, At: relabelAt, Node: 2, Attr: "label", Old: "B", HadOld: true, New: "X", HasNew: true})

	dg, idx := buildIndexed(t, events)
	m := &Matcher{DG: dg, Index: idx}
	before, _ := m.FindPaths(relabelAt-1, [4]string{"A", "B", "C", "D"})
	if len(before) != 1 {
		t.Fatalf("before relabel: %v", before)
	}
	gone, _ := m.FindPaths(relabelAt, [4]string{"A", "B", "C", "D"})
	if len(gone) != 0 {
		t.Error("old-label path survived relabeling")
	}
	after, _ := m.FindPaths(relabelAt, [4]string{"A", "X", "C", "D"})
	if len(after) != 1 {
		t.Error("new-label path missing after relabeling")
	}
}

func TestParsePathKey(t *testing.T) {
	key := pathKey([4]string{"A", "B", "C", "D"}, Path{1, 2, 3, 4})
	if !strings.HasPrefix(key, "A/B/C/D#") {
		t.Errorf("key = %q", key)
	}
	path, ok := ParsePathKey(key)
	if !ok || path != (Path{1, 2, 3, 4}) {
		t.Errorf("parse = %v %v", path, ok)
	}
	for _, bad := range []string{"", "A/B#1,2", "A/B/C/D#1,2,3", "A/B/C/D#1,2,3,x"} {
		if _, ok := ParsePathKey(bad); ok {
			t.Errorf("bad key %q accepted", bad)
		}
	}
}
