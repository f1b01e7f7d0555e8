package main

import (
	"fmt"
	"math/rand"

	"historygraph/internal/datagen"
	"historygraph/internal/graph"
)

// dataset is the one trace every workload runs on: coauth-churn, a
// datagen.Coauthorship growth phase followed by datagen.Churn with equal
// edge adds and deletes. Everything is a function of the seed.
type dataset struct {
	seed   int64
	events graph.EventList
	first  graph.Time // time of the first event
	last   graph.Time // time of the last event
	nodes  int        // node ids are 1..nodes, each added exactly once
	leafDT graph.Time // average time span of one leaf-eventlist (leafSize events)
}

// leafSize is the DeltaGraph leaf-eventlist size dgserve ships with.
const leafSize = 4096

func newDataset(seed int64, sz sizes) *dataset {
	base := datagen.Coauthorship(datagen.CoauthorshipConfig{
		Authors: sz.authors, Edges: sz.edges, Years: traceYears,
		AttrsPerNode: traceAttrsPerNode, Seed: seed,
	})
	events := datagen.Churn(base, datagen.ChurnConfig{Adds: sz.churn, Dels: sz.churn, Seed: seed + 1})
	first, last := events.Span()
	leaves := graph.Time(len(events)/leafSize + 1)
	nodes := 0 // Coauthorship numbers its nodes 1, 2, ... as it adds them
	for _, ev := range events {
		if ev.Type == graph.AddNode {
			nodes++
		}
	}
	return &dataset{
		seed: seed, events: events, first: first, last: last, nodes: nodes,
		leafDT: (last - first) / leaves,
	}
}

// checkTrace rejects a trace the oracle comparison could not trust: event
// times must be nondecreasing and no node id may be added twice (a re-added
// live node rewrites history in the index, ROADMAP direction 1, and that
// bug must not be mistaken for a benchmark failure).
func checkTrace(events graph.EventList) error {
	seen := make(map[graph.NodeID]bool)
	var prev graph.Time
	for i, ev := range events {
		if ev.At < prev {
			return fmt.Errorf("trace: event %d goes back in time (%d < %d)", i, ev.At, prev)
		}
		prev = ev.At
		if ev.Type == graph.AddNode {
			if seen[ev.Node] {
				return fmt.Errorf("trace: node %d added twice (event %d)", ev.Node, i)
			}
			seen[ev.Node] = true
		}
	}
	return nil
}

// headBatch returns the i-th live append batch: appendBatchSize events at
// one fresh timestamp past everything appended before it. Half add edges
// between existing nodes; the other half delete the edges batch i-1 added,
// so the graph stays the same size however long a run appends. Edge events
// repeat their endpoints, as the coordinator's routing requires.
func (d *dataset) headBatch(i int) graph.EventList {
	at := d.last + 1 + graph.Time(i)
	half := appendBatchSize / 2
	out := make(graph.EventList, 0, appendBatchSize)
	for _, e := range d.headEdges(i) {
		out = append(out, graph.Event{Type: graph.AddEdge, At: at, Edge: e.id, Node: e.from, Node2: e.to})
	}
	if i == 0 {
		// Nothing to delete yet: a second half of adds that stay for good.
		for j, e := range d.headEdges(-1) {
			e.id = headEdgeBase - graph.EdgeID(half) + graph.EdgeID(j)
			out = append(out, graph.Event{Type: graph.AddEdge, At: at, Edge: e.id, Node: e.from, Node2: e.to})
		}
		return out
	}
	for _, e := range d.headEdges(i - 1) {
		out = append(out, graph.Event{Type: graph.DelEdge, At: at, Edge: e.id, Node: e.from, Node2: e.to})
	}
	return out
}

// headEdgeBase keeps live-append edge ids clear of every id the trace uses.
const headEdgeBase graph.EdgeID = 1 << 40

type headEdge struct {
	id       graph.EdgeID
	from, to graph.NodeID
}

func (d *dataset) headEdges(i int) []headEdge {
	half := appendBatchSize / 2
	rng := rand.New(rand.NewSource(d.seed*1_000_003 + int64(i)))
	out := make([]headEdge, half)
	for j := range out {
		u := graph.NodeID(1 + rng.Intn(d.nodes))
		v := graph.NodeID(1 + rng.Intn(d.nodes))
		if u == v {
			v = u%graph.NodeID(d.nodes) + 1
		}
		out[j] = headEdge{id: headEdgeBase + graph.EdgeID(i*half+j), from: u, to: v}
	}
	return out
}
