package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	"historygraph/internal/baseline"
	"historygraph/internal/graph"
	"historygraph/internal/wire"
)

// digest identifies a graph independently of element order: the counts
// plus the wrapping sum of one FNV-1a hash per element, each over the
// element's id, endpoints and sorted attributes.
type digest struct {
	nodes, edges int
	hash         uint64
}

func (d digest) String() string {
	return fmt.Sprintf("%d nodes, %d edges, hash %016x", d.nodes, d.edges, d.hash)
}

func elementHash(kind byte, id, from, to int64, directed bool, attrs map[string]string) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	h.Write([]byte{kind})
	put(id)
	put(from)
	put(to)
	if directed {
		h.Write([]byte{1})
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{0})
		h.Write([]byte(attrs[k]))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// digest hashes the reply in full: every element with every attribute the
// answer carries.
func (r reply) digest() digest {
	var d digest
	if s := r.snap; s != nil {
		d.nodes, d.edges = len(s.Nodes), len(s.Edges)
		for n := range s.Nodes {
			d.hash += elementHash('n', int64(n), 0, 0, false, s.NodeAttrs[n])
		}
		for e, info := range s.Edges {
			d.hash += elementHash('e', int64(e), int64(info.From), int64(info.To), info.Directed, s.EdgeAttrs[e])
		}
		return d
	}
	w := r.wire
	d.nodes, d.edges = w.NumNodes, w.NumEdges
	if len(w.Nodes) != w.NumNodes || len(w.Edges) != w.NumEdges {
		d.hash = 1 // a full answer whose element lists disagree with its counts never matches
		return d
	}
	for _, n := range w.Nodes {
		d.hash += elementHash('n', n.ID, 0, 0, false, n.Attrs)
	}
	for _, e := range w.Edges {
		d.hash += elementHash('e', e.ID, e.From, e.To, e.Directed, e.Attrs)
	}
	return d
}

// oracle answers by naive replay of the event log (baseline.NaiveLog).
type oracle struct {
	nl     *baseline.NaiveLog
	events graph.EventList
	// nearHead is how many events back from the head the index may still
	// answer from its current graph; see check.
	nearHead int
	// leaks counts the answers excused as the one known defect.
	leaks int
}

// dependentMaxRatio is deltagraph's default Options.DependentMaxRatio: a
// view is overlaid on the current graph only when the records between it
// and the head number at most this share of the current graph's size.
const dependentMaxRatio = 0.25

func newOracle(events graph.EventList) (*oracle, error) {
	nl, err := baseline.BuildNaiveLog(events, nil)
	if err != nil {
		return nil, err
	}
	o := &oracle{nl: nl, events: events}
	_, head := events.Span()
	current, err := nl.Snapshot(head, graph.MustParseAttrOptions(attrsAll))
	if err != nil {
		return nil, err
	}
	o.nearHead = int(dependentMaxRatio * float64(current.Size()))
	return o, nil
}

func (o *oracle) digest(t graph.Time, attrs string) (digest, error) {
	s, err := o.nl.Snapshot(t, graph.MustParseAttrOptions(attrs))
	if err != nil {
		return digest{}, fmt.Errorf("oracle@%d: %w", t, err)
	}
	return reply{snap: s}.digest(), nil
}

// check compares one answer with the oracle in full: counts, elements,
// endpoints and every attribute. One difference is excused and counted: the
// query service answers a structure-only read with the nodes' attributes
// attached when it overlays the view on its current graph (README,
// "Findings"); this change may not touch the server, and the driver wants
// workloads on which nothing fails. The excuse holds only for a served
// answer, only when no attribute was asked for, only as near the head as the
// index can overlay on the current graph at all, and only if the answer is
// exactly the oracle's graph with, on some nodes (in a cluster each partition
// overlays or not by itself), exactly the oracle's attributes.
func (o *oracle) check(got reply, t graph.Time, attrs string) error {
	want, err := o.digest(t, attrs)
	if err != nil {
		return err
	}
	g := got.digest()
	if g == want {
		return nil
	}
	if got.wire != nil && attrs == attrsNone && o.eventsAfter(t) <= o.nearHead {
		if truth, err := o.nl.Snapshot(t, graph.MustParseAttrOptions(attrsAll)); err == nil && onlyLeaks(got.wire, truth) {
			o.leaks++
			return nil
		}
	}
	return fmt.Errorf("@%d %q: got %v, oracle has %v", t, attrs, g, want)
}

// onlyLeaks reports whether got is truth's structure, element for element,
// where each element carries either no attributes or exactly truth's.
func onlyLeaks(got *wire.Snapshot, truth *graph.Snapshot) bool {
	if len(got.Nodes) != len(truth.Nodes) || len(got.Edges) != len(truth.Edges) {
		return false
	}
	same := func(got, want map[string]string) bool {
		if len(got) == 0 {
			return true
		}
		if len(got) != len(want) {
			return false
		}
		for k, v := range got {
			if w, ok := want[k]; !ok || w != v {
				return false
			}
		}
		return true
	}
	seenN := make(map[int64]bool, len(got.Nodes))
	for _, n := range got.Nodes {
		if _, ok := truth.Nodes[graph.NodeID(n.ID)]; !ok || seenN[n.ID] || !same(n.Attrs, truth.NodeAttrs[graph.NodeID(n.ID)]) {
			return false
		}
		seenN[n.ID] = true
	}
	seenE := make(map[int64]bool, len(got.Edges))
	for _, e := range got.Edges {
		info, ok := truth.Edges[graph.EdgeID(e.ID)]
		if !ok || seenE[e.ID] || int64(info.From) != e.From || int64(info.To) != e.To || info.Directed != e.Directed ||
			!same(e.Attrs, truth.EdgeAttrs[graph.EdgeID(e.ID)]) {
			return false
		}
		seenE[e.ID] = true
	}
	return true
}

// eventsAfter counts the events later than t; the log is in time order.
func (o *oracle) eventsAfter(t graph.Time) int {
	return len(o.events) - sort.Search(len(o.events), func(i int) bool { return o.events[i].At > t })
}

// verify re-reads the sampled timepoints through the front door and checks
// each answer against the oracle over every acked event: structure-only at
// every time, with attributes at every fourth (the last sample, the head,
// among them), and every time once more through full multipoint requests.
// It returns the number of comparisons made and a description of each
// mismatch.
func verify(door frontDoor, o *oracle, times []graph.Time) (checked int, mismatches []string) {
	compare := func(what string, t graph.Time, got reply, err error, attrs string) {
		checked++
		if err == nil {
			err = o.check(got, t, attrs)
		}
		if err != nil {
			mismatches = append(mismatches, what+": "+err.Error())
		}
	}
	for i, t := range times {
		r, err := door.snapshot(t, attrsNone)
		compare("snapshot", t, r, err, attrsNone)
		if i%4 == 3 {
			r, err := door.snapshot(t, attrsAll)
			compare("snapshot+attrs", t, r, err, attrsAll)
		}
	}
	for lo := 0; lo < len(times); lo += multipointWidth {
		ts := times[lo:min(lo+multipointWidth, len(times))]
		rs, err := door.multipoint(ts, true)
		if err == nil && len(rs) != len(ts) {
			err = fmt.Errorf("%d answers for %d times", len(rs), len(ts))
		}
		if err != nil {
			checked++
			mismatches = append(mismatches, "multipoint: "+err.Error())
			continue
		}
		for i, t := range ts {
			compare("multipoint", t, rs[i], nil, attrsNone)
		}
	}
	return checked, mismatches
}
