package datagen

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"

	"historygraph/internal/graph"
)

// MessyTrace is a seeded trace no validator would pass: adds of live elements,
// deletes of absent ones and of ones never there, re-adds of deleted ids,
// attributes set to the value they have, deleted when absent and carrying
// wrong old values, edge deletes that name no endpoints, and runs of equal
// timestamps. It has two courtesies. One the data model asks of every trace:
// an element's attributes are removed before the element is. The other the
// columnar eventlist asks: within one timestamp a stored eventlist keeps the
// order of events inside a column, not across columns, so an element deleted
// at some instant is not added again at that same instant (undoing the add
// would take attributes with it that the attribute column restores first).
func MessyTrace(seed int64, n int) graph.EventList {
	type elem struct {
		edge bool
		id   int64
	}
	nodeElem := func(n graph.NodeID) elem { return elem{id: int64(n)} }
	edgeElem := func(e graph.EdgeID) elem { return elem{edge: true, id: int64(e)} }
	rng := rand.New(rand.NewSource(seed))
	const ids = 40 // few, so that collisions are the rule
	cur := graph.NewSnapshot()
	attrNames := []string{"a", "b"}
	var events graph.EventList
	var now graph.Time
	deleted := map[elem]graph.Time{} // when each element was last deleted
	emit := func(ev graph.Event) {
		ev.At = now
		cur.Apply(ev)
		events = append(events, ev)
		switch ev.Type {
		case graph.DelNode:
			deleted[nodeElem(ev.Node)] = now
		case graph.DelEdge:
			deleted[edgeElem(ev.Edge)] = now
		}
	}
	endpoints := func(e graph.EdgeID) (graph.NodeID, graph.NodeID) {
		return graph.NodeID(e%ids + 1), graph.NodeID(e*7%ids + 1) // an edge id always names the same pair
	}
	for len(events) < n {
		if rng.Intn(3) == 0 {
			now += graph.Time(rng.Intn(3))
		}
		node := graph.NodeID(rng.Intn(ids) + 1)
		edge := graph.EdgeID(rng.Intn(2*ids) + 1)
		u, v := endpoints(edge)
		switch rng.Intn(9) {
		case 0, 1:
			if at, ok := deleted[nodeElem(node)]; ok && at == now {
				continue
			}
			emit(graph.Event{Type: graph.AddNode, Node: node}) // live or not
		case 2:
			for _, k := range slices.Sorted(maps.Keys(cur.NodeAttrs[node])) {
				emit(graph.Event{Type: graph.SetNodeAttr, Node: node, Attr: k, Old: cur.NodeAttrs[node][k], HadOld: true})
			}
			emit(graph.Event{Type: graph.DelNode, Node: node}) // there or not
		case 3, 4:
			if at, ok := deleted[edgeElem(edge)]; ok && at == now {
				continue
			}
			emit(graph.Event{Type: graph.AddEdge, Edge: edge, Node: u, Node2: v})
		case 5:
			for _, k := range slices.Sorted(maps.Keys(cur.EdgeAttrs[edge])) {
				emit(graph.Event{Type: graph.SetEdgeAttr, Edge: edge, Node: u, Node2: v, Attr: k, Old: cur.EdgeAttrs[edge][k], HadOld: true})
			}
			ev := graph.Event{Type: graph.DelEdge, Edge: edge}
			if rng.Intn(2) == 0 {
				ev.Node, ev.Node2 = u, v
			}
			emit(ev)
		case 6, 7:
			if _, ok := cur.Nodes[node]; !ok {
				continue
			}
			ev := graph.Event{Type: graph.SetNodeAttr, Node: node, Attr: attrNames[rng.Intn(2)],
				Old: "stale", HadOld: rng.Intn(2) == 0} // the sender does not know the old value
			if rng.Intn(4) != 0 {
				ev.New, ev.HasNew = fmt.Sprintf("v%d", rng.Intn(3)), true
			}
			emit(ev)
		default:
			if _, ok := cur.Edges[edge]; !ok {
				continue
			}
			ev := graph.Event{Type: graph.SetEdgeAttr, Edge: edge, Node: u, Node2: v, Attr: "w"}
			if rng.Intn(3) != 0 {
				ev.New, ev.HasNew = fmt.Sprintf("w%d", rng.Intn(2)), true
			}
			emit(ev)
		}
	}
	return events
}

// RoutableMessyTrace is MessyTrace made fit for a shard coordinator, which
// refuses an edge deletion that does not say where to route it: a bare one
// is given the endpoints its edge was added with (in the trace an edge ID
// always names the same pair), or node 1's when the edge never existed —
// deleting an absent edge is a no-op on whichever partition it lands.
func RoutableMessyTrace(seed int64, n int) graph.EventList {
	events := MessyTrace(seed, n)
	ends := map[graph.EdgeID][2]graph.NodeID{}
	for i, ev := range events {
		switch {
		case ev.Type == graph.AddEdge:
			ends[ev.Edge] = [2]graph.NodeID{ev.Node, ev.Node2}
		case ev.Type == graph.DelEdge && ev.Node == 0:
			uv, ok := ends[ev.Edge]
			if !ok {
				uv = [2]graph.NodeID{1, 1}
			}
			events[i].Node, events[i].Node2 = uv[0], uv[1]
		}
	}
	return events
}
