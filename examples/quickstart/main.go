// Quickstart: build a small historical graph database, update it with
// events, and retrieve snapshots from the past.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"historygraph"
)

func main() {
	// An in-memory database; set StorePath in Options to persist.
	gm, err := historygraph.Open(historygraph.Options{
		LeafEventlistSize: 4,
		Arity:             2,
		// Intersection is the most compact differential function; see
		// "balanced" or "mixed:0.9:0.9" for latency-shaping options.
		DifferentialFunction: "intersection",
	})
	if err != nil {
		log.Fatal(err)
	}
	defer gm.Close()

	// Record the network's history: a tiny collaboration network.
	// Event timestamps are application-defined discrete ticks.
	events := historygraph.EventList{
		{Type: historygraph.AddNode, At: 1, Node: 1},
		{Type: historygraph.SetNodeAttr, At: 1, Node: 1, Attr: "name", New: "ada", HasNew: true},
		{Type: historygraph.AddNode, At: 2, Node: 2},
		{Type: historygraph.SetNodeAttr, At: 2, Node: 2, Attr: "name", New: "bob", HasNew: true},
		{Type: historygraph.AddEdge, At: 3, Edge: 1, Node: 1, Node2: 2},
		{Type: historygraph.AddNode, At: 4, Node: 3},
		{Type: historygraph.SetNodeAttr, At: 4, Node: 3, Attr: "name", New: "cho", HasNew: true},
		{Type: historygraph.AddEdge, At: 5, Edge: 2, Node: 2, Node2: 3},
		{Type: historygraph.DelEdge, At: 6, Edge: 1, Node: 1, Node2: 2},
		{Type: historygraph.AddEdge, At: 7, Edge: 3, Node: 1, Node2: 3},
	}
	if err := gm.AppendAll(events); err != nil {
		log.Fatal(err)
	}

	// Retrieve the graph as of t=5, with node names.
	h, err := gm.GetHistGraph(5, "+node:name")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph as of t=5: %d nodes, %d edges\n", h.NumNodes(), h.NumEdges())
	for _, n := range h.Nodes() {
		name, _ := h.NodeAttr(n, "name")
		fmt.Printf("  node %d (%s) neighbors=%v\n", n, name, h.Neighbors(n))
	}
	gm.Release(h) // hand the snapshot back to the pool

	// The current graph is always available for ongoing updates.
	cur := gm.CurrentGraph()
	fmt.Printf("current graph: %d nodes, %d edges\n", cur.NumNodes(), cur.NumEdges())

	// Which edges existed at t=5 but are gone now? A TimeExpression query.
	diff, err := gm.GetHistGraphExpr(historygraph.TimeExpression{
		Times: []historygraph.Time{5, 7},
		Expr:  historygraph.And{historygraph.Var(0), historygraph.Not{E: historygraph.Var(1)}},
	}, "")
	if err != nil {
		log.Fatal(err)
	}
	diff.ForEachEdge(func(e historygraph.EdgeID, info historygraph.EdgeInfo) bool {
		fmt.Printf("edge %d (%d-%d) existed at t=5 but not at t=7\n", e, info.From, info.To)
		return true
	})
	gm.Release(diff)
}
