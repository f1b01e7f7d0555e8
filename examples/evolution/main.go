// Evolution reproduces the paper's Figure 1 workload: retrieve yearly
// snapshots of a growing co-authorship network (one multipoint query) and
// track how the PageRank ranks of the eventually-top authors evolved.
//
//	go run ./examples/evolution
package main

import (
	"cmp"
	"fmt"
	"log"
	"slices"

	"historygraph"
	"historygraph/internal/datagen"
	"historygraph/internal/graph"
	"historygraph/internal/pregel"
)

func main() {
	// A DBLP-like growing-only trace: authors join and co-author over 20
	// "years", with super-linear event density.
	const ticksPerYear = 1000
	events := datagen.Coauthorship(datagen.CoauthorshipConfig{
		Authors: 800, Edges: 5000, Years: 20,
		TicksPerYear: ticksPerYear, AttrsPerNode: 2, Seed: 9,
	})
	gm, err := historygraph.BuildFrom(events, historygraph.Options{
		LeafEventlistSize: 500, Arity: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer gm.Close()

	// One multipoint query fetches every year-end snapshot.
	var years []historygraph.Time
	for y := 10; y <= 20; y++ {
		years = append(years, historygraph.Time(y*ticksPerYear-1))
	}
	graphs, err := gm.GetHistGraphs(years, "")
	if err != nil {
		log.Fatal(err)
	}

	// PageRank per snapshot; remember each author's rank.
	ranksPerYear := make([]map[graph.NodeID]int, len(graphs))
	for i, h := range graphs {
		ranksPerYear[i] = map[graph.NodeID]int{}
		for r, e := range pregel.PageRank(h, 0.85, 15, -1) {
			ranksPerYear[i][graph.NodeID(e.Node)] = r + 1
		}
	}

	// The top 5 authors of the final year, in their final order, tracked
	// back in time.
	final := ranksPerYear[len(ranksPerYear)-1]
	var top []graph.NodeID
	for id, r := range final {
		if r <= 5 {
			top = append(top, id)
		}
	}
	slices.SortFunc(top, func(a, b graph.NodeID) int {
		return cmp.Or(cmp.Compare(final[a], final[b]), cmp.Compare(a, b))
	})
	fmt.Print("author")
	for y := 10; y <= 20; y++ {
		fmt.Printf("%8s", fmt.Sprintf("y%d", y))
	}
	fmt.Println()
	for _, id := range top {
		fmt.Printf("%-6d", id)
		for i := range years {
			if r, ok := ranksPerYear[i][id]; ok {
				fmt.Printf("%8d", r)
			} else {
				fmt.Printf("%8s", "-")
			}
		}
		fmt.Println()
	}
	fmt.Println("\n(rank 1 = highest PageRank; '-' = author not yet in the network)")
}
