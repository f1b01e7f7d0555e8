// Distributed demonstrates the horizontal-partitioning path of Sections
// 4.2/4.6: the index is split across five storage partitions ("machines"),
// snapshots are retrieved with one parallel fetch per partition, and
// PageRank runs over the retrieved snapshot on the Pregel-style superstep
// kernel a cluster's workers run, here at one partition — the paper's
// Dataset 3 deployment in miniature.
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"
	"time"

	"historygraph/internal/analytics"
	"historygraph/internal/datagen"
	"historygraph/internal/delta"
	"historygraph/internal/deltagraph"
	"historygraph/internal/graph"
	"historygraph/internal/pregel"
)

func main() {
	const machines = 5
	// A patent-citation-like trace: a large starting snapshot followed by
	// add/delete churn.
	events := datagen.PatentLike(datagen.PatentLikeConfig{
		Nodes: 3000, Edges: 10000, ChurnAdds: 8000, ChurnDels: 8000, Seed: 11,
	})
	dg, err := deltagraph.Build(events, deltagraph.Options{
		LeafSize: 2000, Arity: 4, Function: delta.Intersection{},
		Partitions: machines, // one store partition per machine
	})
	if err != nil {
		log.Fatal(err)
	}
	st := dg.Stats()
	fmt.Printf("index: %d leaves, height %d, %.2f MB across %d partitions\n",
		st.Leaves, st.Height, float64(st.DiskBytes)/(1<<20), machines)

	_, last := events.Span()
	for _, frac := range []int{1, 2, 3} {
		q := last * graph.Time(frac) / 4
		start := time.Now()
		snap, err := dg.GetSnapshot(q, graph.AttrOptions{})
		if err != nil {
			log.Fatal(err)
		}
		retrieval := time.Since(start)

		start = time.Now()
		var top []int64
		for _, e := range pregel.PageRank(analytics.FromSnapshot(snap), 0.85, 20, 3) {
			top = append(top, e.Node)
		}
		compute := time.Since(start)

		fmt.Printf("t=%-7d %6d nodes %6d edges  retrieval=%-8v pagerank=%-8v top3=%v\n",
			q, len(snap.Nodes), len(snap.Edges), retrieval.Round(time.Microsecond),
			compute.Round(time.Microsecond), top)
	}
}
