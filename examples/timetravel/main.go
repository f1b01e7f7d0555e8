// Timetravel tours the temporal query surface: multipoint retrieval,
// interval queries with transient events, TimeExpression queries, and
// runtime materialization.
//
//	go run ./examples/timetravel
package main

import (
	"fmt"
	"log"

	"historygraph"
	"historygraph/internal/datagen"
)

func main() {
	// Dataset-2-flavored history: growth followed by churn.
	base := datagen.Coauthorship(datagen.CoauthorshipConfig{
		Authors: 400, Edges: 2000, Years: 10, TicksPerYear: 1000, AttrsPerNode: 2, Seed: 12,
	})
	events := datagen.Churn(base, datagen.ChurnConfig{Adds: 1500, Dels: 1500, Ticks: 5000, Seed: 13})
	// A couple of transient events (instantaneous messages).
	_, last := events.Span()
	events = append(events,
		historygraph.Event{Type: historygraph.TransientEdge, At: last + 10, Edge: 1 << 30, Node: 1, Node2: 2},
		historygraph.Event{Type: historygraph.TransientEdge, At: last + 20, Edge: 1<<30 + 1, Node: 2, Node2: 3},
	)
	gm, err := historygraph.BuildFrom(events, historygraph.Options{
		LeafEventlistSize: 600, Arity: 4, DifferentialFunction: "balanced",
	})
	if err != nil {
		log.Fatal(err)
	}
	defer gm.Close()
	_, last = events.Span()

	// Multipoint: "every Sunday" style periodic snapshots in one query.
	var ts []historygraph.Time
	for i := 1; i <= 6; i++ {
		ts = append(ts, last*historygraph.Time(i)/7)
	}
	graphs, err := gm.GetHistGraphs(ts, "")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("multipoint retrieval:")
	for i, h := range graphs {
		fmt.Printf("  t=%-6d %5d nodes %5d edges\n", ts[i], h.NumNodes(), h.NumEdges())
	}

	// Interval query: what was added in the middle third, plus transients.
	ir, err := gm.GetHistGraphInterval(last/3, 2*last/3, "")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("interval [%d, %d): %d nodes and %d edges added, %d transient events\n",
		last/3, 2*last/3, ir.Graph.NumNodes(), ir.Graph.NumEdges(), len(ir.Transients))
	gm.Release(ir.Graph)
	ir2, err := gm.GetHistGraphInterval(last, last+100, "")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("interval [%d, %d): %d transient events (the messages)\n", last, last+100, len(ir2.Transients))
	gm.Release(ir2.Graph)

	// TimeExpression: elements that survived the churn (t1 ∧ t2) and the
	// churn casualties (t1 ∧ ¬t2).
	t1, t2 := ts[2], ts[5]
	survived, err := gm.GetHistGraphExpr(historygraph.TimeExpression{
		Times: []historygraph.Time{t1, t2},
		Expr:  historygraph.And{historygraph.Var(0), historygraph.Var(1)},
	}, "")
	if err != nil {
		log.Fatal(err)
	}
	gone, err := gm.GetHistGraphExpr(historygraph.TimeExpression{
		Times: []historygraph.Time{t1, t2},
		Expr:  historygraph.And{historygraph.Var(0), historygraph.Not{E: historygraph.Var(1)}},
	}, "")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("of the edges at t=%d: %d survived to t=%d, %d were deleted\n",
		t1, survived.NumEdges(), t2, gone.NumEdges())
	gm.Release(survived)
	gm.Release(gone)

	// Materialization: pin the root's children and compare a query's
	// planner cost before/after.
	before, _ := gm.DeltaGraph().PlanCost(last/2, historygraph.MustParseAttrOptions(""))
	if err := gm.Materialize("children"); err != nil {
		log.Fatal(err)
	}
	after, _ := gm.DeltaGraph().PlanCost(last/2, historygraph.MustParseAttrOptions(""))
	fmt.Printf("planner cost at t=%d: %d bytes before materialization, %d after\n", last/2, before, after)
}
