package historygraph_test

import (
	"testing"

	"historygraph/internal/baseline"
	"historygraph/internal/delta"
	"historygraph/internal/deltagraph"
	"historygraph/internal/graph"
)

// TestPaperShapes holds the shape claims of the paper's evaluation (§7) on
// exact counters — store bytes read, plan cost, store size, pinned and pool
// bytes — at a tenth of the figure benchmarks' datasets, so no claim rests
// on a stopwatch. The figure benchmarks print the same counters at scale.
func TestPaperShapes(t *testing.T) {
	d1, d2 := datasets(0.1)
	const L = 80
	build := func(t *testing.T, events graph.EventList, opts deltagraph.Options) *deltagraph.DeltaGraph {
		t.Helper()
		if opts.Function == nil {
			opts.Function = delta.Intersection{}
		}
		if opts.LeafSize == 0 {
			opts.LeafSize = L
		}
		if opts.Arity == 0 {
			opts.Arity = 4
		}
		return mustBuild(t, events, opts)
	}
	materialize := func(t *testing.T, dg *deltagraph.DeltaGraph, policy string) {
		t.Helper()
		if err := dg.MaterializeLevel(policy); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name  string
		check func(t *testing.T)
	}{
		// The naive Log replays everything before t; DeltaGraph with its
		// root materialized reads a few deltas. The paper: 20x (D1), 23x (D2).
		{"LogVsDeltaGraph", func(t *testing.T) {
			for _, events := range []graph.EventList{d1, d2} {
				times := uniformTimes(events, 25)
				logStore, dgStore := newCountingStore(), newCountingStore()
				nl, err := baseline.BuildNaiveLog(events, logStore)
				if err != nil {
					t.Fatal(err)
				}
				dg := build(t, events, deltagraph.Options{Store: dgStore})
				materialize(t, dg, "root")
				logB := bytesRead(t, logStore, times, func(q graph.Time) error { _, e := nl.Snapshot(q, allAttrs); return e })
				dgB := bytesRead(t, dgStore, times, func(q graph.Time) error { _, e := dg.GetSnapshot(q, allAttrs); return e })
				t.Logf("%d events: log reads %d B a snapshot, DeltaGraph %d (%.1fx)", len(events), logB/25, dgB/25, float64(logB)/float64(dgB))
				if logB < 10*dgB {
					t.Errorf("%d events: log reads %d B, DeltaGraph %d: under 10x", len(events), logB, dgB)
				}
			}
		}},
		// Figure 10: each level materialized deeper costs less to retrieve
		// from and pins more memory.
		{"Materialization", func(t *testing.T) {
			times := uniformTimes(d2, 15)
			prevCost, prevPinned := int64(-1), int64(-1)
			for _, policy := range []string{"none", "root", "children", "grandchildren"} {
				dg := build(t, d2, deltagraph.Options{})
				if policy != "none" {
					materialize(t, dg, policy)
				}
				cost, pinned := meanPlanCost(t, dg, times), dg.MaterializedBytes()
				t.Logf("%s: plan cost %d B, pinned %d B", policy, cost, pinned)
				if prevCost >= 0 && (cost >= prevCost || pinned <= prevPinned) {
					t.Errorf("%s: plan cost %d B, pinned %d B after %d and %d", policy, cost, pinned, prevCost, prevPinned)
				}
				prevCost, prevPinned = cost, pinned
			}
		}},
		// Figure 8(c): one multipoint retrieval of nearby times reads less
		// than a retrieval per time, and saves more the more times.
		{"MultipointSavings", func(t *testing.T) {
			store := newCountingStore()
			dg := build(t, d1, deltagraph.Options{Store: store})
			_, last := d1.Span()
			var ratios []float64
			for _, n := range []int{2, 6} {
				ts := make([]graph.Time, n)
				for i := range ts {
					ts[i] = last/2 + graph.Time(i)*10000/12 // a month of the generator apart
				}
				single := bytesRead(t, store, ts, func(q graph.Time) error { _, e := dg.GetSnapshot(q, allAttrs); return e })
				store.read.Store(0)
				if _, err := dg.GetSnapshots(ts, allAttrs); err != nil {
					t.Fatal(err)
				}
				multi := store.read.Load()
				t.Logf("%d times: singles read %d B, multipoint %d", n, single, multi)
				if multi >= single {
					t.Errorf("%d times: multipoint read %d B, singles %d", n, multi, single)
				}
				ratios = append(ratios, float64(single)/float64(multi))
			}
			if ratios[1] <= ratios[0] {
				t.Errorf("the saving fell from %.2fx at 2 times to %.2fx at 6", ratios[0], ratios[1])
			}
		}},
		// Figure 8(d): the columnar layout lets a structure-only retrieval
		// skip the attribute columns.
		{"ColumnarSavings", func(t *testing.T) {
			store := newCountingStore()
			dg := build(t, d2, deltagraph.Options{Store: store})
			times := uniformTimes(d2, 12)
			structure := bytesRead(t, store, times, func(q graph.Time) error { _, e := dg.GetSnapshot(q, graph.AttrOptions{}); return e })
			all := bytesRead(t, store, times, func(q graph.Time) error { _, e := dg.GetSnapshot(q, allAttrs); return e })
			t.Logf("structure only %d B, +attrs %d B", structure, all)
			if 2*structure >= all {
				t.Errorf("structure only read %d B, not under half of +attrs' %d", structure, all)
			}
		}},
		// Figure 9: a higher arity stores more (not monotonically: k = 6
		// stores more than k = 8 on this trace), and a longer leaf
		// eventlist less.
		{"AritySpace", func(t *testing.T) {
			size := func(k, leaf int) int64 {
				return build(t, d1, deltagraph.Options{Arity: k, LeafSize: leaf}).Store().SizeOnDisk()
			}
			k2, k8 := size(2, L), size(8, L)
			l1, l4 := size(4, L), size(4, 4*L)
			t.Logf("k=2 %d B, k=8 %d B; L=%d %d B, L=%d %d B", k2, k8, L, l1, 4*L, l4)
			if k8 <= k2 {
				t.Errorf("k=8 stores %d B, k=2 %d", k8, k2)
			}
			if l4 >= l1 {
				t.Errorf("L=%d stores %d B, L=%d %d", 4*L, l4, L, l1)
			}
		}},
		// Figure 11(b): Mixed's r, with the root materialized, picks the end
		// of history that is cheap: r = 0.9 the newest, r = 0.1 older ones.
		{"MixedSkew", func(t *testing.T) {
			times := uniformTimes(d1, 15)
			var costs [2][]int64
			for i, r := range []float64{0.1, 0.9} {
				dg := build(t, d1, deltagraph.Options{Arity: 2, Function: delta.Mixed{R1: r, R2: r}})
				materialize(t, dg, "root")
				for _, q := range times {
					costs[i] = append(costs[i], meanPlanCost(t, dg, []graph.Time{q}))
				}
			}
			t.Logf("plan cost r=0.1 %v, r=0.9 %v", costs[0], costs[1])
			last := len(times) - 1
			if costs[1][last] >= costs[0][last] {
				t.Errorf("at the newest time r=0.9 costs %d B, r=0.1 %d", costs[1][last], costs[0][last])
			}
			older := false
			for i := 0; i <= last/2; i++ {
				older = older || costs[0][i] <= costs[1][i]
			}
			if !older {
				t.Error("r=0.1 costs more than r=0.9 at every time in the older half")
			}
		}},
		// Figure 8(a): 100 snapshots overlaid in the pool take less than the
		// same snapshots held apart.
		{"PoolBelowDisjoint", func(t *testing.T) {
			dg := build(t, d2, deltagraph.Options{})
			pool, disjoint := holdRetrievals(t, dg, uniformTimes(d2, 100))
			t.Logf("pool %d B, disjoint %d B", pool, disjoint)
			if pool >= disjoint {
				t.Errorf("the pool holds %d B, the snapshots apart %d", pool, disjoint)
			}
		}},
	} {
		t.Run(c.name, c.check)
	}
}
