package graphpool

import (
	"math/rand"
	"testing"

	"historygraph/internal/delta"
	"historygraph/internal/graph"
)

// BenchmarkPoolApplyEvent measures the current graph's ingest path: the
// benchmark-shaped trace (see bytes_test.go) applied to an empty pool, a
// leaf cut every 4 096 events.
func BenchmarkPoolApplyEvent(b *testing.B) {
	rng := rand.New(rand.NewSource(27))
	events := append(shapeNodeEvents(rng), shapeEdgeEvents(rng)...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := New()
		for j, ev := range events {
			p.ApplyEvent(ev)
			if j%4096 == 4095 {
				p.ClearRecent()
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns/event")
}

// shapedPool returns a pool that holds the shaped graph as its current graph
// and shapeViews structure-only views of its history, and that history.
func shapedPool() (*Pool, []*graph.Snapshot) {
	rng := rand.New(rand.NewSource(27))
	nodes, edges := shapeNodeEvents(rng), shapeEdgeEvents(rng)
	history := shapeHistory(nodes, edges)
	p := New()
	for _, ev := range append(nodes, edges...) {
		p.ApplyEvent(ev)
	}
	for i, s := range history {
		p.OverlaySnapshot(s, graph.Time(i))
	}
	return p, history
}

// BenchmarkPoolReleaseClean measures what letting one view go costs a pool
// that holds the shaped graph and its views: Release and the CleanNow pass
// that reclaims the bits, which holds the write lock against every reader
// for its whole length.
func BenchmarkPoolReleaseClean(b *testing.B) {
	p, history := shapedPool()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		id := p.OverlaySnapshot(history[i%len(history)], 0)
		b.StartTimer()
		if err := p.Release(id); err != nil {
			b.Fatal(err)
		}
		p.CleanNow()
	}
}

// BenchmarkPoolCopyCurrent measures a leaf cut's copy of the current graph
// onto a bit of its own on the same pool — a pass over every record and
// value — and the Abort that gives the bit up; the clean that reclaims it
// is off the clock.
func BenchmarkPoolCopyCurrent(b *testing.B) {
	p, _ := shapedPool()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		build, err := p.NewBuild(CurrentGraph, false, allAttrs)
		if err != nil {
			b.Fatal(err)
		}
		build.Abort()
		b.StopTimer()
		p.CleanNow()
		b.StartTimer()
	}
}

// BenchmarkPoolCombine measures a parent's walk at a cut on the same pool,
// as the index makes it: the parent of a copy of the current graph, taken a
// leaf of 256 events ago and let go of, and the current graph now, written
// over the copy, with the delta to each. The copy is taken and the events
// undone off the clock.
func BenchmarkPoolCombine(b *testing.B) {
	p, _ := shapedPool()
	edges := func(typ graph.EventType) {
		for e := graph.EdgeID(1); e <= 256; e++ {
			p.ApplyEvent(graph.Event{Type: typ, Edge: shapeEdges + e, Node: graph.NodeID(e), Node2: graph.NodeID(e + 1)})
		}
		p.ClearRecent()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		build, err := p.NewBuild(CurrentGraph, false, allAttrs)
		if err != nil {
			b.Fatal(err)
		}
		old := build.Commit(KindMaterialized, 0)
		edges(graph.AddEdge)
		b.StartTimer()
		made, err := p.Combine([]GraphID{old, CurrentGraph}, []bool{true, false}, delta.Intersection{})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if n := made.Deltas[1].Len(); n != 256 {
			b.Fatalf("the delta to the current graph has %d records, want the 256 edges", n)
		}
		_ = p.Release(made.Parent.ID())
		edges(graph.DelEdge)
		p.CleanNow()
		b.StartTimer()
	}
}

// BenchmarkPoolViewChurn measures the served shape on the same pool: a view
// cache holding the shapeViews views lets the oldest go and overlays a view
// of the history in its place, once an op, with no cleaner running — what
// reclaiming the released views costs is paid on the overlay path, where a
// view would otherwise take a bit past 63. Compare at one -benchtime: a
// pool that never reclaims takes new bits every op, so its cost grows with
// b.N.
func BenchmarkPoolViewChurn(b *testing.B) {
	p, history := shapedPool()
	var held []GraphID
	for id := GraphID(1); id <= shapeViews; id++ { // graphs are numbered from 1 as overlaid
		held = append(held, id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Release(held[0]); err != nil {
			b.Fatal(err)
		}
		held = append(held[1:], p.OverlaySnapshot(history[i%len(history)], 0))
	}
}

// BenchmarkPoolNeighbors measures the adjacency reads on the same pool:
// Neighbors, Degree and IncidentEdges of every node, for the current graph
// and for a held explicit view (the last of the history, which has every
// edge).
func BenchmarkPoolNeighbors(b *testing.B) {
	p, _ := shapedPool()
	held, err := p.View(GraphID(shapeViews)) // graphs are numbered from 1 as overlaid
	if err != nil {
		b.Fatal(err)
	}
	for _, g := range []struct {
		name string
		v    *View
	}{{"current", p.Current()}, {"held", held}} {
		b.Run(g.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for n := graph.NodeID(1); n <= shapeNodes; n++ {
					g.v.Neighbors(n)
					g.v.Degree(n)
					g.v.IncidentEdges(n)
				}
			}
		})
	}
}

// BenchmarkPoolApproxBytes measures the size estimate on the same pool: a
// walk of every element, which is why a metrics scrape reads the cleaner's
// sample of it (Stats.Bytes) and does not compute it.
func BenchmarkPoolApproxBytes(b *testing.B) {
	p, _ := shapedPool()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ApproxBytes()
	}
}
