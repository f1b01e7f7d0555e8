// Benchmarks: one per table/figure of the paper's evaluation, then the
// serving, ingest and replication benchmarks. Where a figure's y-axis is
// not a time, its benchmark reports it beside ns/op (store bytes, bytes
// read, plan cost, pinned or pool bytes, matches).
//
//	go test -run xxx -bench Fig -benchtime 1x .
package historygraph_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"historygraph"
	"historygraph/internal/analytics"
	"historygraph/internal/auxindex"
	"historygraph/internal/baseline"
	"historygraph/internal/csr"
	"historygraph/internal/datagen"
	"historygraph/internal/delta"
	"historygraph/internal/deltagraph"
	"historygraph/internal/graph"
	"historygraph/internal/graphpool"
	"historygraph/internal/kvstore"
	"historygraph/internal/metrics"
	"historygraph/internal/pregel"
	"historygraph/internal/replica"
	"historygraph/internal/server"
	"historygraph/internal/shard"
	"historygraph/internal/wire"
)

const benchScale = 0.5

var (
	benchOnce sync.Once
	benchD1   graph.EventList
	benchD2   graph.EventList
	benchL    int
	allAttrs  = graph.MustParseAttrOptions("+node:all+edge:all")
)

// datasets generates the paper's Dataset 1, a growing co-authorship graph,
// and Dataset 2, Dataset 1 with as many edges deleted and added again
// interleaved. Scale 1 is about 34k and 58k events.
func datasets(scale float64) (d1, d2 graph.EventList) {
	d1 = datagen.Coauthorship(datagen.CoauthorshipConfig{
		Authors: int(2000 * scale), Edges: int(12000 * scale), Years: 35,
		TicksPerYear: 10000, AttrsPerNode: 10, Seed: 42,
	})
	d2 = datagen.Churn(d1, datagen.ChurnConfig{
		Adds: int(12000 * scale), Dels: int(12000 * scale), Ticks: 120000, Seed: 43,
	})
	return d1, d2
}

func setup(b *testing.B) (d1, d2 graph.EventList, L int) {
	b.Helper()
	benchOnce.Do(func() {
		benchD1, benchD2 = datasets(benchScale)
		benchL = int(800 * benchScale)
	})
	return benchD1, benchD2, benchL
}

func mustBuild(tb testing.TB, events graph.EventList, opts deltagraph.Options) *deltagraph.DeltaGraph {
	tb.Helper()
	dg, err := deltagraph.Build(events, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return dg
}

// uniformTimes returns n times spaced evenly inside the trace's span.
func uniformTimes(events graph.EventList, n int) []graph.Time {
	first, last := events.Span()
	out := make([]graph.Time, n)
	for i := range out {
		out[i] = first + graph.Time(int64(last-first)*int64(i+1)/int64(n+1))
	}
	return out
}

// queryLoop retrieves at 25 uniform times in turn.
func queryLoop(b *testing.B, events graph.EventList, get func(graph.Time) error) {
	b.Helper()
	times := uniformTimes(events, 25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := get(times[i%len(times)]); err != nil {
			b.Fatal(err)
		}
	}
}

// countingStore is an in-memory store that counts the bytes its Gets
// return: what a retrieval reads, exactly.
type countingStore struct {
	kvstore.Store
	read atomic.Int64
}

func newCountingStore() *countingStore { return &countingStore{Store: kvstore.NewMemStore()} }

func (c *countingStore) Get(key []byte) ([]byte, error) {
	v, err := c.Store.Get(key)
	c.read.Add(int64(len(v)))
	return v, err
}

// bytesRead runs get at every one of times and returns the bytes store
// served.
func bytesRead(tb testing.TB, store *countingStore, times []graph.Time, get func(graph.Time) error) int64 {
	tb.Helper()
	store.read.Store(0)
	for _, q := range times {
		if err := get(q); err != nil {
			tb.Fatal(err)
		}
	}
	return store.read.Load()
}

// latencyStore adds a seek and a per-byte transfer delay to every Get: the
// disk or network of the paper's EC2 testbed, so that fetching partitions
// in parallel shows on a small machine (with P partitions each read
// returns about 1/P of the bytes).
type latencyStore struct {
	kvstore.Store
	base, perByte time.Duration
}

func (l *latencyStore) Get(key []byte) ([]byte, error) {
	v, err := l.Store.Get(key)
	time.Sleep(l.base + time.Duration(len(v))*l.perByte)
	return v, err
}

// withLatency makes a store of parts in-memory partitions, each behind a
// latencyStore.
func withLatency(parts int, base, perByte time.Duration) *kvstore.Partitioned {
	stores := make([]kvstore.Store, parts)
	for i := range stores {
		stores[i] = &latencyStore{Store: kvstore.NewMemStore(), base: base, perByte: perByte}
	}
	return kvstore.NewPartitioned(stores)
}

// meanPlanCost is the mean PlanCost, in bytes, of retrieving dg at times.
func meanPlanCost(tb testing.TB, dg *deltagraph.DeltaGraph, times []graph.Time) int64 {
	tb.Helper()
	var sum int64
	for _, q := range times {
		c, err := dg.PlanCost(q, allAttrs)
		if err != nil {
			tb.Fatal(err)
		}
		sum += c
	}
	return sum / int64(len(times))
}

// disjointBytesPerElement prices the alternative Figure 8(a) compares the
// pool with: every retrieved snapshot held apart, one record an element.
const disjointBytesPerElement = 48

// holdRetrievals retrieves dg at every one of times into its pool and keeps
// them all, returning the pool's size and what the same snapshots held
// apart would take.
func holdRetrievals(tb testing.TB, dg *deltagraph.DeltaGraph, times []graph.Time) (pool, disjoint int64) {
	tb.Helper()
	for _, q := range times {
		id, err := dg.Retrieve(q, allAttrs)
		if err != nil {
			tb.Fatal(err)
		}
		v, err := dg.Pool().View(id)
		if err != nil {
			tb.Fatal(err)
		}
		disjoint += int64(v.NumNodes()+v.NumEdges()) * disjointBytesPerElement
	}
	return dg.Pool().ApproxBytes(), disjoint
}

// BenchmarkFig6 compares Copy+Log with DeltaGraph(Intersection) and the
// store bytes each spends (Figure 6).
func BenchmarkFig6(b *testing.B) {
	d1, d2, L := setup(b)
	for _, tc := range []struct {
		name   string
		events graph.EventList
	}{{"D1", d1}, {"D2", d2}} {
		dg := mustBuild(b, tc.events, deltagraph.Options{LeafSize: L, Arity: 4, Function: delta.Intersection{}})
		cl, err := baseline.BuildCopyLog(tc.events, L*8, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name+"/CopyLog", func(b *testing.B) {
			queryLoop(b, tc.events, func(q graph.Time) error { _, e := cl.Snapshot(q, allAttrs); return e })
			b.ReportMetric(float64(cl.DiskBytes()), "store-B")
		})
		b.Run(tc.name+"/DeltaGraph", func(b *testing.B) {
			queryLoop(b, tc.events, func(q graph.Time) error { _, e := dg.GetSnapshot(q, allAttrs); return e })
			b.ReportMetric(float64(dg.Store().SizeOnDisk()), "store-B")
		})
	}
}

// BenchmarkFig7 compares the in-memory interval tree against DeltaGraph
// materialization levels, and the memory each holds (Figure 7).
func BenchmarkFig7(b *testing.B) {
	_, d2, L := setup(b)
	it := baseline.BuildIntervalTree(d2)
	b.Run("IntervalTree", func(b *testing.B) {
		queryLoop(b, d2, func(q graph.Time) error { _, e := it.Snapshot(q, allAttrs); return e })
		b.ReportMetric(float64(it.MemoryBytes()), "mem-B")
	})
	for _, tc := range []struct{ name, policy string }{{"DGGrandchildrenMat", "grandchildren"}, {"DGTotalMat", "leaves"}} {
		dg := mustBuild(b, d2, deltagraph.Options{LeafSize: L, Arity: 4, Function: delta.Intersection{}})
		if err := dg.MaterializeLevel(tc.policy); err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name, func(b *testing.B) {
			queryLoop(b, d2, func(q graph.Time) error { _, e := dg.GetSnapshot(q, allAttrs); return e })
			b.ReportMetric(float64(dg.MaterializedBytes()), "mem-B")
		})
	}
}

// BenchmarkLogBaseline measures naive Log replay (Section 7 text).
func BenchmarkLogBaseline(b *testing.B) {
	d1, _, _ := setup(b)
	nl, err := baseline.BuildNaiveLog(d1, nil)
	if err != nil {
		b.Fatal(err)
	}
	queryLoop(b, d1, func(q graph.Time) error { _, e := nl.Snapshot(q, allAttrs); return e })
}

// BenchmarkFig8aGraphPoolOverlay measures retrieval into the GraphPool
// with overlap exploitation (Figure 8a's workload), then holds 100
// retrievals at once and reports the pool's bytes against the same
// snapshots held apart.
func BenchmarkFig8aGraphPoolOverlay(b *testing.B) {
	d1, _, L := setup(b)
	pool := graphpool.New()
	dg := mustBuild(b, d1, deltagraph.Options{LeafSize: L, Arity: 4, Function: delta.Intersection{}, Pool: pool})
	times := uniformTimes(d1, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := dg.Retrieve(times[i%len(times)], allAttrs)
		if err != nil {
			b.Fatal(err)
		}
		if err := pool.Release(id); err != nil {
			b.Fatal(err)
		}
		if i%32 == 31 {
			pool.CleanNow()
		}
	}
	b.StopTimer()
	held, disjoint := holdRetrievals(b, dg, times)
	b.ReportMetric(float64(held), "pool-B")
	b.ReportMetric(float64(disjoint), "disjoint-B")
}

// BenchmarkFig8bParallelRetrieval measures partition-parallel fetch
// (Figure 8b) under a simulated per-read latency.
func BenchmarkFig8bParallelRetrieval(b *testing.B) {
	_, d2, L := setup(b)
	for _, p := range []int{1, 2, 4} {
		store := withLatency(p, 30000, 25)
		dg := mustBuild(b, d2, deltagraph.Options{
			LeafSize: L, Arity: 4, Function: delta.Intersection{}, Partitions: p, Store: store,
		})
		b.Run(map[int]string{1: "P1", 2: "P2", 4: "P4"}[p], func(b *testing.B) {
			queryLoop(b, d2, func(q graph.Time) error { _, e := dg.GetSnapshot(q, allAttrs); return e })
		})
	}
}

// BenchmarkFig8cMultipoint compares one 5-point multipoint query against
// five singlepoint queries, and the store bytes each reads (Figure 8c).
func BenchmarkFig8cMultipoint(b *testing.B) {
	d1, _, L := setup(b)
	store := newCountingStore()
	dg := mustBuild(b, d1, deltagraph.Options{LeafSize: L, Arity: 4, Function: delta.Intersection{}, Store: store})
	_, last := d1.Span()
	ts := make([]graph.Time, 5)
	for i := range ts {
		ts[i] = last/2 + graph.Time(i)*800
	}
	b.Run("Singlepoints", func(b *testing.B) {
		store.read.Store(0)
		for i := 0; i < b.N; i++ {
			for _, q := range ts {
				if _, err := dg.GetSnapshot(q, allAttrs); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(store.read.Load())/float64(b.N), "read-B/op")
	})
	b.Run("Multipoint", func(b *testing.B) {
		store.read.Store(0)
		for i := 0; i < b.N; i++ {
			if _, err := dg.GetSnapshots(ts, allAttrs); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(store.read.Load())/float64(b.N), "read-B/op")
	})
}

// BenchmarkFig8dColumnar compares structure-only with structure+attribute
// retrieval, and the store bytes each reads (Figure 8d).
func BenchmarkFig8dColumnar(b *testing.B) {
	_, d2, L := setup(b)
	store := newCountingStore()
	dg := mustBuild(b, d2, deltagraph.Options{LeafSize: L, Arity: 4, Function: delta.Intersection{}, Store: store})
	for _, tc := range []struct {
		name string
		opts graph.AttrOptions
	}{{"StructureOnly", graph.AttrOptions{}}, {"StructurePlusAttrs", allAttrs}} {
		get := func(q graph.Time) error { _, e := dg.GetSnapshot(q, tc.opts); return e }
		b.Run(tc.name, func(b *testing.B) {
			queryLoop(b, d2, get)
			b.ReportMetric(float64(bytesRead(b, store, uniformTimes(d2, 25), get))/25, "read-B/op")
		})
	}
}

// BenchmarkFig9Arity measures query latency and store bytes across arities
// (Figure 9a).
func BenchmarkFig9Arity(b *testing.B) {
	d1, _, L := setup(b)
	for _, k := range []int{2, 4, 8} {
		dg := mustBuild(b, d1, deltagraph.Options{LeafSize: L, Arity: k, Function: delta.Intersection{}})
		b.Run(map[int]string{2: "K2", 4: "K4", 8: "K8"}[k], func(b *testing.B) {
			queryLoop(b, d1, func(q graph.Time) error { _, e := dg.GetSnapshot(q, allAttrs); return e })
			b.ReportMetric(float64(dg.Store().SizeOnDisk()), "store-B")
		})
	}
}

// BenchmarkFig9EventlistSize measures query latency and store bytes across
// leaf-eventlist sizes (Figure 9b).
func BenchmarkFig9EventlistSize(b *testing.B) {
	d1, _, L := setup(b)
	for mul, name := range map[int]string{1: "L1x", 4: "L4x"} {
		dg := mustBuild(b, d1, deltagraph.Options{LeafSize: L * mul, Arity: 4, Function: delta.Intersection{}})
		b.Run(name, func(b *testing.B) {
			queryLoop(b, d1, func(q graph.Time) error { _, e := dg.GetSnapshot(q, allAttrs); return e })
			b.ReportMetric(float64(dg.Store().SizeOnDisk()), "store-B")
		})
	}
}

// BenchmarkFig10Materialization measures retrieval at each materialization
// depth, its plan cost and the memory it pins (Figure 10).
func BenchmarkFig10Materialization(b *testing.B) {
	_, d2, L := setup(b)
	for _, policy := range []string{"none", "root", "children", "grandchildren"} {
		dg := mustBuild(b, d2, deltagraph.Options{LeafSize: L, Arity: 4, Function: delta.Intersection{}})
		if policy != "none" {
			if err := dg.MaterializeLevel(policy); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(policy, func(b *testing.B) {
			queryLoop(b, d2, func(q graph.Time) error { _, e := dg.GetSnapshot(q, allAttrs); return e })
			b.ReportMetric(float64(meanPlanCost(b, dg, uniformTimes(d2, 25))), "plan-B")
			b.ReportMetric(float64(dg.MaterializedBytes()), "mem-B")
		})
	}
}

// BenchmarkFig11aDiffFunctions compares Intersection and Balanced
// retrieval and their plan costs (Figure 11a).
func BenchmarkFig11aDiffFunctions(b *testing.B) {
	d1, _, L := setup(b)
	for _, tc := range []struct {
		name string
		fn   delta.Differential
	}{{"Intersection", delta.Intersection{}}, {"Balanced", delta.Balanced()}} {
		dg := mustBuild(b, d1, deltagraph.Options{LeafSize: L, Arity: 2, Function: tc.fn})
		b.Run(tc.name, func(b *testing.B) {
			queryLoop(b, d1, func(q graph.Time) error { _, e := dg.GetSnapshot(q, allAttrs); return e })
			b.ReportMetric(float64(meanPlanCost(b, dg, uniformTimes(d1, 25))), "plan-B")
		})
	}
}

// BenchmarkFig11bMixed compares Mixed configurations with the root
// materialized (Figure 11b), querying the recent end of history.
func BenchmarkFig11bMixed(b *testing.B) {
	d1, _, L := setup(b)
	_, last := d1.Span()
	q := last * 9 / 10
	for _, tc := range []struct {
		name string
		r    float64
	}{{"R01", 0.1}, {"R09", 0.9}} {
		dg := mustBuild(b, d1, deltagraph.Options{LeafSize: L, Arity: 2, Function: delta.Mixed{R1: tc.r, R2: tc.r}})
		if err := dg.MaterializeLevel("root"); err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := dg.GetSnapshot(q, allAttrs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(meanPlanCost(b, dg, []graph.Time{q})), "plan-B")
		})
	}
}

// BenchmarkDataset3PageRank measures the partitioned retrieval + parallel
// PageRank pipeline (the Section 7 experimental-setup run) over the large
// patent-like Dataset 3, here 19k events.
func BenchmarkDataset3PageRank(b *testing.B) {
	events := datagen.PatentLike(datagen.PatentLikeConfig{
		Nodes: 1500, Edges: 5000, ChurnAdds: 6250, ChurnDels: 6250, Seed: 44,
	})
	dg := mustBuild(b, events, deltagraph.Options{
		LeafSize: 500, Arity: 4, Function: delta.Intersection{}, Partitions: 5,
	})
	_, last := events.Span()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := dg.GetSnapshot(last*3/4, graph.AttrOptions{})
		if err != nil {
			b.Fatal(err)
		}
		pregel.RunPageRank(analytics.FromSnapshot(snap), 5, 10)
	}
}

// BenchmarkBitmapPenalty measures PageRank through GraphPool bitmaps vs an
// extracted copy (Section 7 text: < 7% penalty).
func BenchmarkBitmapPenalty(b *testing.B) {
	d1, _, L := setup(b)
	pool := graphpool.New()
	dg := mustBuild(b, d1, deltagraph.Options{LeafSize: L, Arity: 4, Function: delta.Intersection{}, Pool: pool})
	_, last := d1.Span()
	id, err := dg.Retrieve(last*3/4, graph.AttrOptions{})
	if err != nil {
		b.Fatal(err)
	}
	view, err := pool.View(id)
	if err != nil {
		b.Fatal(err)
	}
	frozen := view.Freeze()
	plain := analytics.FromSnapshot(view.Snapshot())
	b.Run("PoolViewBitmaps", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			analytics.PageRank(frozen, 0.85, 5)
		}
	})
	b.Run("ExtractedCopy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			analytics.PageRank(plain, 0.85, 5)
		}
	})
}

// BenchmarkPatternQuery measures a historical subgraph pattern query over
// the length-4 path index (Section 4.7).
func BenchmarkPatternQuery(b *testing.B) {
	events := datagen.Coauthorship(datagen.CoauthorshipConfig{
		Authors: 200, Edges: 800, Years: 10, TicksPerYear: 1000, AttrsPerNode: 1, Seed: 14,
	})
	var labeled graph.EventList
	for i, ev := range events {
		if ev.Type == graph.SetNodeAttr {
			ev.Attr = "label"
			ev.New = string(rune('A' + i%6))
		}
		labeled = append(labeled, ev)
	}
	idx := auxindex.NewPathIndex("label")
	dg := mustBuild(b, labeled, deltagraph.Options{LeafSize: 300, Arity: 4, AuxIndexes: []deltagraph.AuxIndex{idx}})
	m := &auxindex.Matcher{DG: dg, Index: idx}
	pattern := &auxindex.Pattern{
		Labels: map[graph.NodeID]string{1: "A", 2: "B", 3: "C", 4: "D"},
		Edges:  [][2]graph.NodeID{{1, 2}, {2, 3}, {3, 4}},
	}
	_, last := labeled.Span()
	var matches []auxindex.Match
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if matches, err = m.Match(last, pattern); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(matches)), "matches")
}

// BenchmarkFig1Evolution measures one step of the Figure 1 workload:
// retrieve a snapshot and compute PageRank ranks.
func BenchmarkFig1Evolution(b *testing.B) {
	d1, _, L := setup(b)
	dg := mustBuild(b, d1, deltagraph.Options{LeafSize: L, Arity: 4, Function: delta.Intersection{}})
	_, last := d1.Span()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := dg.GetSnapshot(last*graph.Time(i%10+1)/11, graph.AttrOptions{})
		if err != nil {
			b.Fatal(err)
		}
		analytics.RankOf(analytics.PageRank(analytics.FromSnapshot(snap), 0.85, 5))
	}
}

// coauthChurn is the repository benchmark's trace (benchmark/dataset.go,
// seed 1) at a multiple of its size: 80k events at 1.
func coauthChurn(scale int) graph.EventList {
	base := datagen.Coauthorship(datagen.CoauthorshipConfig{
		Authors: 4000 * scale, Edges: 16000 * scale, Years: 20, AttrsPerNode: 10, Seed: 1,
	})
	return datagen.Churn(base, datagen.ChurnConfig{Adds: 10000 * scale, Dels: 10000 * scale, Seed: 2})
}

// BenchmarkIndexConstruction measures bulk construction throughput
// (Section 4.6): dataset 1, then the repository benchmark's trace with the
// options dgserve ships with, at one and three times its size. Construction
// costs what changed, so us/event must not grow with the graph: the 3x
// figure stays within 1.5x of the 1x one.
func BenchmarkIndexConstruction(b *testing.B) {
	d1, _, L := setup(b)
	for _, c := range []struct {
		name   string
		events func() graph.EventList
		opts   deltagraph.Options
	}{
		{"d1", func() graph.EventList { return d1 }, deltagraph.Options{LeafSize: L, Arity: 4, Function: delta.Intersection{}}},
		{"coauth-churn-1x", func() graph.EventList { return coauthChurn(1) }, deltagraph.Options{}},
		{"coauth-churn-3x", func() graph.EventList { return coauthChurn(3) }, deltagraph.Options{}},
	} {
		b.Run(c.name, func(b *testing.B) {
			events := c.events()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustBuild(b, events, c.opts)
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(events)), "us/event")
		})
	}
}

// BenchmarkLiveIngest feeds what the repository benchmark's ingest-restart
// workload feeds a node — the first 59 392 events of its trace in batches of
// 256 — to an index on a FileStore, with no read in between: us/event is the
// builder's live cost, max-cut-ms the longest a leaf cut held the write lock
// (the stall a concurrent reader would have seen). The Flush counts the
// builder goroutine's work, which may end after the last batch.
func BenchmarkLiveIngest(b *testing.B) {
	events := coauthChurn(1)[:59392]
	var maxCut time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fs, err := kvstore.OpenFileStore(filepath.Join(b.TempDir(), "index"), kvstore.FileOptions{})
		if err != nil {
			b.Fatal(err)
		}
		dg, err := deltagraph.New(deltagraph.Options{Store: fs})
		if err != nil {
			b.Fatal(err)
		}
		dg.SetObserver(func(d time.Duration) { maxCut = max(maxCut, d) })
		b.StartTimer()
		for lo := 0; lo < len(events); lo += 256 {
			if err := dg.AppendAll(events[lo:min(lo+256, len(events))]); err != nil {
				b.Fatal(err)
			}
		}
		if err := dg.Flush(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if st := dg.Stats(); st.Leaves == 0 {
			b.Fatal("an ingest cut no leaf")
		}
		fs.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(events)), "us/event")
	b.ReportMetric(float64(maxCut.Microseconds())/1000, "max-cut-ms")
}

// serverSetup starts the query service over a dataset-1 index for the
// serving-layer benchmarks.
func serverSetup(b *testing.B) (*server.Client, graph.Time) {
	b.Helper()
	d1, _, L := setup(b)
	gm, err := historygraph.BuildFrom(d1, historygraph.Options{LeafEventlistSize: L, Arity: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { gm.Close() })
	svc := server.New(gm, server.Config{CacheSize: 8})
	httpSrv := httptest.NewServer(svc.Handler())
	b.Cleanup(func() { httpSrv.Close(); svc.Close() })
	_, last := d1.Span()
	return server.NewClient(httpSrv.URL), last
}

// BenchmarkServerSnapshot measures end-to-end queries/sec through the
// HTTP service: "cached" hammers one hot timepoint (hot-snapshot LRU
// hit, zero plan executions), "uncached" rotates through more timepoints
// than the cache holds so every query executes a DeltaGraph plan. The gap
// between the two is the serving-layer headroom future PRs build on.
func BenchmarkServerSnapshot(b *testing.B) {
	b.Run("cached", func(b *testing.B) {
		client, last := serverSetup(b)
		if _, err := client.Snapshot(last/2, "", false); err != nil {
			b.Fatal(err) // warm the cache
		}
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := client.Snapshot(last/2, "", false); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("uncached", func(b *testing.B) {
		client, last := serverSetup(b)
		var i atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				// 64 distinct timepoints against a cache of 8: every
				// query misses and pays for plan execution.
				n := i.Add(1)
				t := last * graph.Time(n%64+1) / 65
				if _, err := client.Snapshot(t, "", false); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// BenchmarkServerBatch measures the multipoint endpoint (25 timepoints
// per request through the shared-delta plan).
func BenchmarkServerBatch(b *testing.B) {
	client, last := serverSetup(b)
	ts := make([]graph.Time, 25)
	for i := range ts {
		ts[i] = last * graph.Time(i+1) / 26
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Snapshots(ts, "", false); err != nil {
			b.Fatal(err)
		}
	}
}

// shardSetup starts a 4-partition in-process cluster over dataset 1: one
// server.Server per hash slice of the node space, a shard.Coordinator
// scatter-gathering in front.
func shardSetup(b *testing.B, cfg shard.Config) (*server.Client, graph.Time) {
	b.Helper()
	d1, _, L := setup(b)
	var urls []string
	for _, slice := range shard.PartitionEvents(d1, 4) {
		gm, err := historygraph.BuildFrom(slice, historygraph.Options{LeafEventlistSize: L, Arity: 4})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { gm.Close() })
		svc := server.New(gm, server.Config{CacheSize: 8})
		httpSrv := httptest.NewServer(svc.Handler())
		b.Cleanup(func() { httpSrv.Close(); svc.Close() })
		urls = append(urls, httpSrv.URL)
	}
	co, err := shard.New(urls, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(co.Close)
	front := httptest.NewServer(co.Handler())
	b.Cleanup(front.Close)
	_, last := d1.Span()
	return server.NewClient(front.URL), last
}

// BenchmarkShardSnapshot measures end-to-end queries/sec through the
// 4-partition scatter-gather: "cached" hammers one hot timepoint (served
// from the coordinator's merged-response LRU with no fan-out at all),
// "uncached" disables that cache and rotates through more timepoints
// than the per-partition caches hold so every fan-out leg executes a
// DeltaGraph plan. Compare with BenchmarkServerSnapshot for the
// coordination overhead.
func BenchmarkShardSnapshot(b *testing.B) {
	b.Run("cached", func(b *testing.B) {
		client, last := shardSetup(b, shard.Config{})
		for range 2 { // warm every cache: the merged level admits on the second request
			if _, err := client.Snapshot(last/2, "", false); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := client.Snapshot(last/2, "", false); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("uncached", func(b *testing.B) {
		client, last := shardSetup(b, shard.Config{CacheSize: -1})
		var i atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				// 64 distinct timepoints against per-partition caches of
				// 8: every query misses on every partition.
				n := i.Add(1)
				t := last * graph.Time(n%64+1) / 65
				if _, err := client.Snapshot(t, "", false); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// walBatches cuts the repository benchmark's trace into the 256-event
// batches its ingest-restart workload appends, and opens an empty WAL.
func walBatches(b *testing.B) ([]graph.EventList, *replica.Log) {
	events := coauthChurn(1)
	batches := make([]graph.EventList, 0, len(events)/256+1)
	for lo := 0; lo < len(events); lo += 256 {
		batches = append(batches, events[lo:min(lo+256, len(events))])
	}
	wal, err := replica.OpenLog(filepath.Join(b.TempDir(), "wal.log"))
	if err != nil {
		b.Fatal(err)
	}
	return batches, wal
}

// BenchmarkWALAppend measures the durable write-ahead log's append path:
// encode a 256-event batch of the repository benchmark's trace as one run
// (compressed when that is smaller, which it is for nearly all of them),
// write it as a CRC-checked record, and wait for the covering group sync —
// the per-batch durability tax every replicated append pays before it can
// be acked. B/event is the log's size over the events in it.
func BenchmarkWALAppend(b *testing.B) {
	batches, wal := walBatches(b)
	defer wal.Close()
	events := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := batches[i%len(batches)]
		if _, _, err := wal.AppendBatch(batch, ""); err != nil {
			b.Fatal(err)
		}
		events += len(batch)
	}
	b.ReportMetric(float64(wal.SizeOnDisk())/float64(events), "B/event")
}

// BenchmarkWALAppendConcurrent is BenchmarkWALAppend under concurrency:
// many appenders hammer one log, and the single-flusher group commit
// amortizes the fsync across everything in flight — per-append cost drops
// well below the serial sync tax as parallelism rises.
func BenchmarkWALAppendConcurrent(b *testing.B) {
	batches, wal := walBatches(b)
	defer wal.Close()
	var next, events atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			batch := batches[next.Add(1)%int64(len(batches))]
			if _, _, err := wal.AppendBatch(batch, ""); err != nil {
				b.Fatal(err)
			}
			events.Add(int64(len(batch)))
		}
	})
	b.ReportMetric(float64(wal.SizeOnDisk())/float64(events.Load()), "B/event")
}

// BenchmarkWALReplay measures what a restart pays the log: OpenLog (the
// key-only recovery scan) and a Read of everything in the applier's pages
// of replica.DefaultFetchMax, over the repository benchmark's trace logged
// in its 256-event batches, at one and four times its length. us/event
// must not grow with the log; B/event is the WAL's footprint.
func BenchmarkWALReplay(b *testing.B) {
	for _, scale := range []int{1, 4} {
		b.Run(fmt.Sprintf("coauth-churn-%dx", scale), func(b *testing.B) {
			events := coauthChurn(scale)
			path := filepath.Join(b.TempDir(), "wal.log")
			wal, err := replica.OpenLog(path)
			if err != nil {
				b.Fatal(err)
			}
			for lo := 0; lo < len(events); lo += 256 {
				if _, _, err := wal.StartAppend(events[lo:min(lo+256, len(events))], fmt.Sprintf("batch-%d", lo)); err != nil {
					b.Fatal(err)
				}
			}
			if err := wal.WaitDurable(uint64(len(events))); err != nil {
				b.Fatal(err)
			}
			size := wal.SizeOnDisk()
			wal.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				wal, err := replica.OpenLog(path)
				if err != nil {
					b.Fatal(err)
				}
				read := 0
				for read < len(events) {
					recs, err := wal.Read(uint64(read+1), replica.DefaultFetchMax)
					if err != nil || len(recs) == 0 {
						b.Fatalf("read %d of %d records: %v", read, len(events), err)
					}
					read += len(recs)
				}
				wal.Close()
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(events)), "us/event")
			b.ReportMetric(float64(size)/float64(len(events)), "B/event")
		})
	}
}

// replicatedSetup starts a 2-partition × 2-replica in-process cluster
// over dataset 1: each member a replica.Node (WAL-backed server) over its
// partition's slice, followers tailing their primaries, the coordinator
// spreading reads across both members of each set.
func replicatedSetup(b *testing.B, cfg shard.Config) (*server.Client, graph.Time) {
	b.Helper()
	d1, _, L := setup(b)
	dir := b.TempDir()
	startMember := func(p, r int, slice graph.EventList, nodeCfg replica.Config) string {
		gm, err := historygraph.BuildFrom(slice, historygraph.Options{LeafEventlistSize: L, Arity: 4})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { gm.Close() })
		svc := server.New(gm, server.Config{CacheSize: 8})
		wal, err := replica.OpenLog(filepath.Join(dir, fmt.Sprintf("p%d-r%d.wal", p, r)))
		if err != nil {
			b.Fatal(err)
		}
		node, err := replica.NewNode(svc, wal, nodeCfg)
		if err != nil {
			b.Fatal(err)
		}
		httpSrv := httptest.NewServer(node.Handler())
		b.Cleanup(func() { httpSrv.Close(); node.Close(); svc.Close(); wal.Close() })
		return httpSrv.URL
	}
	var sets [][]string
	for p, slice := range shard.PartitionEvents(d1, 2) {
		primary := startMember(p, 0, slice, replica.Config{Role: replica.RolePrimary})
		follower := startMember(p, 1, slice, replica.Config{Role: replica.RoleFollower, PrimaryURL: primary})
		sets = append(sets, []string{primary, follower})
	}
	co, err := shard.NewReplicated(sets, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(co.Close)
	front := httptest.NewServer(co.Handler())
	b.Cleanup(front.Close)
	_, last := d1.Span()
	return server.NewClient(front.URL), last
}

// BenchmarkReplicatedSnapshot measures end-to-end queries/sec through
// the replicated 2×2 cluster: "cached" hammers one hot timepoint
// (merged-response LRU hit), "uncached" disables the coordinator cache
// and rotates timepoints so every query fans out with replica selection
// and retry bookkeeping on each leg. Compare with BenchmarkShardSnapshot
// for the replication layer's routing overhead.
func BenchmarkReplicatedSnapshot(b *testing.B) {
	b.Run("cached", func(b *testing.B) {
		client, last := replicatedSetup(b, shard.Config{})
		for range 2 { // warm the merged-response cache, which admits on the second request
			if _, err := client.Snapshot(last/2, "", false); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := client.Snapshot(last/2, "", false); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("uncached", func(b *testing.B) {
		client, last := replicatedSetup(b, shard.Config{CacheSize: -1})
		var i atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				n := i.Add(1)
				t := last * graph.Time(n%64+1) / 65
				if _, err := client.Snapshot(t, "", false); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// benchWireSnapshot builds a large full-element snapshot response (>=10k
// elements with attributes) for the codec benchmarks.
func benchWireSnapshot() wire.Snapshot {
	const nodes, edges = 6000, 6000
	s := wire.Snapshot{At: 123456, NumNodes: nodes, NumEdges: edges}
	for i := 0; i < nodes; i++ {
		s.Nodes = append(s.Nodes, wire.Node{
			ID: int64(i * 3),
			Attrs: map[string]string{
				"affiliation": fmt.Sprintf("institute-%d", i%37),
				"name":        fmt.Sprintf("author-%d", i),
			},
		})
	}
	for i := 0; i < edges; i++ {
		s.Edges = append(s.Edges, wire.Edge{
			ID: int64(i * 5), From: int64((i * 3) % (nodes * 3)), To: int64((i * 7) % (nodes * 3)),
			Attrs: map[string]string{"year": fmt.Sprintf("%d", 1990+i%30)},
		})
	}
	return s
}

// BenchmarkWireEncode compares the codecs on a large (12k-element) full
// snapshot: encode and decode, JSON vs binary. The binary format's win
// here (varint deltas, interned keys, no field names) is what the
// scatter-leg and replication-stream refactors cash in end-to-end.
func BenchmarkWireEncode(b *testing.B) {
	snap := benchWireSnapshot()
	codecs := []wire.Codec{wire.JSON{}, wire.Binary{}}
	for _, codec := range codecs {
		data, err := codec.Encode(&snap)
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("%s body: %d bytes", codec.Name(), len(data))
		b.Run(codec.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := codec.Encode(&snap); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(codec.Name()+"-decode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var out wire.Snapshot
				if err := codec.Decode(data, &out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// consumeStream reads the full snapshot at t as a stream, run by run, and
// counts its elements.
func consumeStream(client *server.Client, t graph.Time) (elements int, err error) {
	ss, err := client.SnapshotStreamCtx(context.Background(), t, "+node:all+edge:all")
	if err != nil {
		return 0, err
	}
	defer ss.Close()
	for {
		frame, err := ss.Next()
		if err != nil {
			return elements, err
		}
		elements += len(frame.Nodes) + len(frame.Edges)
		if frame.Summary != nil {
			return elements, nil
		}
	}
}

// BenchmarkShardSnapshotBinary measures large full-element snapshots
// through the 4-partition scatter-gather end to end, read by a JSON client,
// by a binary one, and as a stream read run by run. The first two legs are
// whole binary messages, so only the coordinator's response encode and the
// client's decode differ; the stream's legs are streams, merged run by run
// into the response. The coordinator cache is off so every request pays
// leg decode + merge + response encode + client decode; worker hot caches
// are on so the DeltaGraph plan cost (identical either way) does not drown
// the wire path being compared.
func BenchmarkShardSnapshotBinary(b *testing.B) {
	events := datagen.Coauthorship(datagen.CoauthorshipConfig{
		Authors: 6000, Edges: 7000, Years: 6, AttrsPerNode: 2, Seed: 7,
	})
	_, last := events.Span()
	setup := func(b *testing.B, wireName string) *server.Client {
		b.Helper()
		var urls []string
		for _, slice := range shard.PartitionEvents(events, 4) {
			gm, err := historygraph.BuildFrom(slice, historygraph.Options{LeafEventlistSize: 2048, Arity: 4})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { gm.Close() })
			svc := server.New(gm, server.Config{CacheSize: 8})
			httpSrv := httptest.NewServer(svc.Handler())
			b.Cleanup(func() { httpSrv.Close(); svc.Close() })
			urls = append(urls, httpSrv.URL)
		}
		co, err := shard.New(urls, shard.Config{CacheSize: -1})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(co.Close)
		front := httptest.NewServer(co.Handler())
		b.Cleanup(front.Close)
		client, err := server.NewClient(front.URL).SetWire(wireName)
		if err != nil {
			b.Fatal(err)
		}
		return client
	}
	for _, wireName := range []string{"json", "binary"} {
		b.Run(wireName, func(b *testing.B) {
			client := setup(b, wireName)
			snap, err := client.Snapshot(last, "+node:all+edge:all", true)
			if err != nil {
				b.Fatal(err) // warm the worker caches
			}
			if snap.NumNodes+snap.NumEdges < 10000 {
				b.Fatalf("benchmark snapshot too small: %d nodes + %d edges", snap.NumNodes, snap.NumEdges)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := client.Snapshot(last, "+node:all+edge:all", true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("stream", func(b *testing.B) {
		client := setup(b, "binary")
		if n, err := consumeStream(client, last); err != nil {
			b.Fatal(err) // warm the worker caches
		} else if n < 10000 {
			b.Fatalf("benchmark snapshot too small: %d elements", n)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := consumeStream(client, last); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServerSnapshotStream compares the two binary shapes of a
// large (≥10k-element) full=1 snapshot at the worker: the whole-message
// path materializes the complete []Node/[]Edge response struct plus one
// contiguous encoded body and the client decodes another full struct,
// while the streaming path walks the pinned view in bounded element runs
// and the client consumes them run by run — B/op on the stream side is
// O(run size), not O(snapshot), which is what keeps N concurrent large
// responses from multiplying into N full buffers. The encoded-bytes
// cache is off so every iteration pays the full build.
func BenchmarkServerSnapshotStream(b *testing.B) {
	events := datagen.Coauthorship(datagen.CoauthorshipConfig{
		Authors: 6000, Edges: 7000, Years: 6, AttrsPerNode: 2, Seed: 7,
	})
	_, last := events.Span()
	setup := func(b *testing.B) *server.Client {
		b.Helper()
		gm, err := historygraph.BuildFrom(events, historygraph.Options{LeafEventlistSize: 2048, Arity: 4})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { gm.Close() })
		svc := server.New(gm, server.Config{CacheSize: 8, EncodedCacheSize: -1})
		httpSrv := httptest.NewServer(svc.Handler())
		b.Cleanup(func() { httpSrv.Close(); svc.Close() })
		client, err := server.NewClient(httpSrv.URL).SetWire("binary")
		if err != nil {
			b.Fatal(err)
		}
		return client
	}
	b.Run("whole", func(b *testing.B) {
		client := setup(b)
		snap, err := client.Snapshot(last, "+node:all+edge:all", true)
		if err != nil {
			b.Fatal(err) // warm the view cache; the wire path is the subject
		}
		if snap.NumNodes+snap.NumEdges < 10000 {
			b.Fatalf("benchmark snapshot too small: %d+%d elements", snap.NumNodes, snap.NumEdges)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := client.Snapshot(last, "+node:all+edge:all", true); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stream", func(b *testing.B) {
		client := setup(b)
		if n, err := consumeStream(client, last); err != nil {
			b.Fatal(err)
		} else if n < 10000 {
			b.Fatalf("benchmark snapshot too small: %d elements", n)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := consumeStream(client, last); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWorkerEncodedCacheHit measures the worker's encoded-bytes
// cache: a hit is one stored-bytes write with zero encode work ("hit",
// per codec) against the same request re-encoding its response every
// time off the hot view cache ("miss-encode"). The delta is the pure
// encode tax the cache removes from every repeat read of a hot
// timepoint.
func BenchmarkWorkerEncodedCacheHit(b *testing.B) {
	events := datagen.Coauthorship(datagen.CoauthorshipConfig{
		Authors: 6000, Edges: 7000, Years: 6, AttrsPerNode: 2, Seed: 7,
	})
	_, last := events.Span()
	run := func(b *testing.B, wireName string, encCache int) {
		b.Helper()
		gm, err := historygraph.BuildFrom(events, historygraph.Options{LeafEventlistSize: 2048, Arity: 4})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { gm.Close() })
		svc := server.New(gm, server.Config{CacheSize: 8, EncodedCacheSize: encCache})
		httpSrv := httptest.NewServer(svc.Handler())
		b.Cleanup(func() { httpSrv.Close(); svc.Close() })
		client, err := server.NewClient(httpSrv.URL).SetWire(wireName)
		if err != nil {
			b.Fatal(err)
		}
		for range 2 { // warm both caches: the encoded level admits on the second request
			if _, err := client.Snapshot(last, "+node:all+edge:all", true); err != nil {
				b.Fatal(err)
			}
		}
		encodesBefore := svc.Encodes()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := client.Snapshot(last, "+node:all+edge:all", true); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if encCache > 0 && svc.Encodes() != encodesBefore {
			b.Fatalf("cache hits executed %d encodes", svc.Encodes()-encodesBefore)
		}
	}
	for _, wireName := range []string{"json", "binary"} {
		b.Run(wireName+"-hit", func(b *testing.B) { run(b, wireName, 8) })
	}
	b.Run("json-miss-encode", func(b *testing.B) { run(b, "json", -1) })
}

// BenchmarkWorkerSnapshotBody is the body a worker builds from a cached
// view: the /snapshot handler on a recorder with the view cache warm and
// the encoded-bytes cache off, so an iteration is the pool's ordered walk
// and the encode, binary written straight from the walk, JSON through the
// wire.Snapshot struct. The trace has the repository benchmark's shape
// (Coauthorship 4000 authors, 16000 edges, 20 years, 10 attributes a node,
// then Churn of 10000 adds and deletes); the read is a full one at the
// trace's midpoint, structure only and with every attribute.
func BenchmarkWorkerSnapshotBody(b *testing.B) {
	base := datagen.Coauthorship(datagen.CoauthorshipConfig{Authors: 4000, Edges: 16000, Years: 20, AttrsPerNode: 10, Seed: 1})
	events := datagen.Churn(base, datagen.ChurnConfig{Adds: 10000, Dels: 10000, Seed: 2})
	gm, err := historygraph.BuildFrom(events, historygraph.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer gm.Close()
	svc := server.New(gm, server.Config{EncodedCacheSize: -1})
	defer svc.Close()
	handler := svc.Handler()
	first, last := events.Span()
	mid := first + (last-first)/2
	for _, attrs := range []struct{ name, q string }{{"none", ""}, {"all", "%2Bnode:all%2Bedge:all"}} {
		for _, codec := range wire.Codecs() {
			b.Run(attrs.name+"/"+codec.Name(), func(b *testing.B) {
				serve := func() int {
					req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/snapshot?t=%d&full=1&attrs=%s", mid, attrs.q), nil)
					req.Header.Set("Accept", codec.ContentType())
					rec := httptest.NewRecorder()
					handler.ServeHTTP(rec, req)
					if rec.Code != http.StatusOK {
						b.Fatalf("answered %d: %s", rec.Code, rec.Body)
					}
					return rec.Body.Len()
				}
				size := serve() // the miss that caches the view
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					serve()
				}
				b.ReportMetric(float64(size), "body-B")
			})
		}
	}
}

// BenchmarkShardBatch measures the multipoint endpoint through the
// scatter-gather (each partition executes its slice of the shared-delta
// plan in parallel). The coordinator cache is off so every iteration
// pays the fan-out.
func BenchmarkShardBatch(b *testing.B) {
	client, last := shardSetup(b, shard.Config{CacheSize: -1})
	ts := make([]graph.Time, 25)
	for i := range ts {
		ts[i] = last * graph.Time(i+1) / 26
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Snapshots(ts, "", false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMetricsOverhead isolates the per-request cost of the metrics
// plane: the same trivial handler served bare and wrapped in the
// request-metrics middleware (status-class counter, latency histogram,
// request-ID mint + echo), driven in-process with no network. The
// instrumented/bare gap is the budget every endpoint pays per request.
func BenchmarkMetricsOverhead(b *testing.B) {
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"ok":true}`))
	})
	run := func(b *testing.B, h http.Handler) {
		req := httptest.NewRequest(http.MethodGet, "/stats", nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.ServeHTTP(httptest.NewRecorder(), req)
		}
	}
	b.Run("bare", func(b *testing.B) { run(b, handler) })
	b.Run("instrumented", func(b *testing.B) {
		ins := server.NewInstrumentation(metrics.NewRegistry(), []string{"/stats"}, 0)
		run(b, ins.Wrap(handler))
	})
}

// csrBenchView pins a dataset-1 midpoint view for the analytics-plane
// benchmarks.
func csrBenchView(b *testing.B) *historygraph.HistGraph {
	b.Helper()
	d1, _, L := setup(b)
	gm, err := historygraph.BuildFrom(d1, historygraph.Options{LeafEventlistSize: L, Arity: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { gm.Close() })
	_, last := d1.Span()
	h, err := gm.GetHistGraph(last/2, "")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { gm.Release(h) })
	return h
}

// BenchmarkCSRBuild measures materializing a pinned view into the
// compact CSR snapshot the /analytics scan path runs over — the one-time
// cost a cold scan pays before the (cached) kernels run.
func BenchmarkCSRBuild(b *testing.B) {
	h := csrBenchView(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g := csr.Build(h); g.NumRows() == 0 {
			b.Fatal("empty CSR from a non-empty view")
		}
	}
}

// BenchmarkAnalyticsPageRank runs the same PageRank kernel over the
// pinned view directly ("viewwalk": every Neighbors call re-checks the
// pool's overlaid bitmaps) and over the materialized CSR ("csr": one
// contiguous adjacency array). The gap is why internal/csr exists.
func BenchmarkAnalyticsPageRank(b *testing.B) {
	h := csrBenchView(b)
	const damping, iterations = 0.85, 10
	b.Run("viewwalk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if ranks := analytics.PageRank(h, damping, iterations); len(ranks) == 0 {
				b.Fatal("no ranks")
			}
		}
	})
	b.Run("csr", func(b *testing.B) {
		g := csr.Build(h)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if ranks := analytics.PageRank(g, damping, iterations); len(ranks) == 0 {
				b.Fatal("no ranks")
			}
		}
	})
}

// BenchmarkShardedDegreeDist measures the distributed degree scan
// through the 4-partition coordinator: "cached" hammers one timepoint
// (merged-response LRU hit), "uncached" disables the coordinator cache
// and rotates past the workers' CSR caches so every query scans and
// merges.
func BenchmarkShardedDegreeDist(b *testing.B) {
	ctx := context.Background()
	b.Run("cached", func(b *testing.B) {
		client, last := shardSetup(b, shard.Config{})
		for range 2 { // the merged level admits on the second request
			if _, err := client.AnalyticsDegreeCtx(ctx, last/2, ""); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := client.AnalyticsDegreeCtx(ctx, last/2, ""); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("uncached", func(b *testing.B) {
		client, last := shardSetup(b, shard.Config{CacheSize: -1})
		var i atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				// 64 distinct timepoints against per-worker CSR caches of
				// 16: every scan rebuilds its CSR and re-merges.
				n := i.Add(1)
				t := last * graph.Time(n%64+1) / 65
				if _, err := client.AnalyticsDegreeCtx(ctx, t, ""); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// nodeAppendSetup starts one WAL-backed primary replica node (no
// followers) behind an HTTP front — the smallest unit that exercises the
// full replicated append path: decode, validate, durable WAL write, and
// in-memory apply.
func nodeAppendSetup(b *testing.B) *httptest.Server {
	b.Helper()
	gm, err := historygraph.Open(historygraph.Options{LeafEventlistSize: 512})
	if err != nil {
		b.Fatal(err)
	}
	svc := server.New(gm, server.Config{CacheSize: 8})
	wal, err := replica.OpenLog(filepath.Join(b.TempDir(), "wal.log"))
	if err != nil {
		b.Fatal(err)
	}
	node, err := replica.NewNode(svc, wal, replica.Config{})
	if err != nil {
		b.Fatal(err)
	}
	hs := httptest.NewServer(node.Handler())
	b.Cleanup(func() { hs.Close(); node.Close(); svc.Close(); wal.Close(); gm.Close() })
	return hs
}

// BenchmarkNodeAppendConcurrent measures sustained appends/sec through a
// replica node's whole append path under concurrency: many clients each
// POST 16-event batches (equal event times, so admission order never
// rejects) against one primary. This is the number the append pipeline
// exists to move — batches should share group-committed fsyncs and
// overlap validation, logging, and apply instead of serializing.
func BenchmarkNodeAppendConcurrent(b *testing.B) {
	hs := nodeAppendSetup(b)
	var nextNode atomic.Int64
	ctx := context.Background()
	// 4 client goroutines per GOMAXPROCS: ingest clients are I/O-bound
	// (most of an append's wall time is the WAL group commit), so a
	// realistic writer pool is several times wider than the core count.
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client, err := server.NewClient(hs.URL).SetWire("binary")
		if err != nil {
			b.Fatal(err)
		}
		batch := make(graph.EventList, 16)
		for pb.Next() {
			base := nextNode.Add(16) - 16
			for i := range batch {
				batch[i] = graph.Event{Type: graph.AddNode, At: 1, Node: graph.NodeID(base + int64(i) + 1)}
			}
			if _, err := client.AppendCtx(ctx, batch); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAppendStream measures the streaming ingest front door against
// the same replica node: each writer holds one long-lived POST
// /append?stream=1 connection and sends 16-event batch frames, so HTTP
// setup, headers, and response parsing are paid per stream instead of per
// batch, and the pipeline overlaps every in-flight frame's log, sync, and
// apply. One op is one 16-event frame — directly comparable to one op of
// BenchmarkNodeAppendConcurrent.
func BenchmarkAppendStream(b *testing.B) {
	hs := nodeAppendSetup(b)
	var nextNode atomic.Int64
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := server.NewClient(hs.URL)
		stream, err := client.AppendStream()
		if err != nil {
			b.Fatal(err)
		}
		batch := make(graph.EventList, 16)
		for pb.Next() {
			base := nextNode.Add(16) - 16
			for i := range batch {
				batch[i] = graph.Event{Type: graph.AddNode, At: 1, Node: graph.NodeID(base + int64(i) + 1)}
			}
			if err := stream.Send(batch); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := stream.Close(); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkSlotRoute measures the slot-routing hot path — hashing an
// event to its slot and resolving the owner in the versioned table —
// paid once per event on every append the coordinator scatters.
func BenchmarkSlotRoute(b *testing.B) {
	d1, _, _ := setup(b)
	tbl := shard.DefaultSlotTable(4)
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += tbl.Partition(d1[i%len(d1)])
	}
	_ = sink
}

// BenchmarkMigrationStream measures one complete slot migration: a fresh
// WAL-backed target streams a source primary's entire dataset-1 history
// through the slot-filtered replay protocol, applies it through its
// append pipeline, and reports the ingest done. One op is one end-to-end
// migration — the data-movement cost of a reshard, minus the cutover.
func BenchmarkMigrationStream(b *testing.B) {
	d1, _, L := setup(b)
	dir := b.TempDir()
	gm, err := historygraph.Open(historygraph.Options{LeafEventlistSize: L})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { gm.Close() })
	svc := server.New(gm, server.Config{CacheSize: 8})
	wal, err := replica.OpenLog(filepath.Join(dir, "src.wal"))
	if err != nil {
		b.Fatal(err)
	}
	node, err := replica.NewNode(svc, wal, replica.Config{Role: replica.RolePrimary})
	if err != nil {
		b.Fatal(err)
	}
	hs := httptest.NewServer(node.Handler())
	b.Cleanup(func() { hs.Close(); node.Close(); svc.Close(); wal.Close() })
	if _, err := server.NewClient(hs.URL).Append(d1); err != nil {
		b.Fatal(err)
	}
	head := wal.LastSeq()
	slots := make([]int, shard.NumSlots)
	for i := range slots {
		slots[i] = i
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tgtGM, err := historygraph.Open(historygraph.Options{LeafEventlistSize: L})
		if err != nil {
			b.Fatal(err)
		}
		tgtSvc := server.New(tgtGM, server.Config{CacheSize: 8})
		tgtWAL, err := replica.OpenLog(filepath.Join(dir, fmt.Sprintf("tgt-%d.wal", i)))
		if err != nil {
			b.Fatal(err)
		}
		tgtNode, err := replica.NewNode(tgtSvc, tgtWAL, replica.Config{Role: replica.RolePrimary})
		if err != nil {
			b.Fatal(err)
		}
		tgtSrv := httptest.NewServer(tgtNode.Handler())
		b.StartTimer()

		if _, err := replica.Migrate(ctx, http.DefaultClient, tgtSrv.URL, replica.MigrateRequest{
			Sources: []replica.MigrateSource{{URLs: []string{hs.URL}, Slots: slots}},
		}); err != nil {
			b.Fatal(err)
		}
		if _, err := replica.Migrate(ctx, http.DefaultClient, tgtSrv.URL, replica.MigrateRequest{
			Finalize: []uint64{head},
		}); err != nil {
			b.Fatal(err)
		}
		for {
			st, err := replica.MigrationStatus(ctx, http.DefaultClient, tgtSrv.URL)
			if err != nil {
				b.Fatal(err)
			}
			if st.Error != "" {
				b.Fatal(st.Error)
			}
			if st.Done {
				if st.Applied != head {
					b.Fatalf("migrated %d of %d events", st.Applied, head)
				}
				break
			}
			time.Sleep(time.Millisecond)
		}

		b.StopTimer()
		if _, err := replica.Migrate(ctx, http.DefaultClient, tgtSrv.URL, replica.MigrateRequest{Stop: true}); err != nil {
			b.Fatal(err)
		}
		tgtSrv.Close()
		tgtNode.Close()
		tgtSvc.Close()
		tgtWAL.Close()
		tgtGM.Close()
		b.StartTimer()
	}
}
