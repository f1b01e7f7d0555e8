package deltagraph

import (
	"fmt"
	"iter"
	"maps"
	"path/filepath"
	"testing"

	"historygraph/internal/graph"
	"historygraph/internal/graphpool"
)

// expression copies out the graph RetrieveExpression makes of tex, and
// releases it.
func expression(dg *DeltaGraph, tex TimeExpression, opts graph.AttrOptions) (*graph.Snapshot, error) {
	id, err := dg.RetrieveExpression(tex, opts)
	if err != nil {
		return nil, err
	}
	v, err := dg.Pool().View(id)
	if err != nil {
		return nil, err
	}
	s := v.Snapshot()
	if len(s.Nodes) != v.NumNodes() || len(s.Edges) != v.NumEdges() {
		return nil, fmt.Errorf("the graph of %v counts %d nodes and %d edges, holds %d and %d", tex, v.NumNodes(), v.NumEdges(), len(s.Nodes), len(s.Edges))
	}
	return s, dg.Pool().Release(id)
}

// referenceExpression is the graph tex makes of the replays of events at its
// times, filtered to opts, combined over maps element by element. An
// attribute entry is an element whose value is part of its identity, so one
// the expression holds over is kept whether or not its element is, and of
// two values of an attribute that it holds over the later one kept wins.
func referenceExpression(events graph.EventList, tex TimeExpression, opts graph.AttrOptions) *graph.Snapshot {
	snaps := make([]*graph.Snapshot, len(tex.Times))
	for i, at := range tex.Times {
		snaps[i] = opts.FilterSnapshot(graph.SnapshotAt(events, at))
	}
	out := graph.NewSnapshot()
	satisfying(snaps, tex.Expr,
		func(s *graph.Snapshot) iter.Seq2[graph.NodeID, struct{}] { return maps.All(s.Nodes) },
		func(s *graph.Snapshot, n graph.NodeID) bool { _, ok := s.Nodes[n]; return ok },
		func(n graph.NodeID, _ struct{}) { out.Nodes[n] = struct{}{} })
	satisfying(snaps, tex.Expr,
		func(s *graph.Snapshot) iter.Seq2[graph.EdgeID, graph.EdgeInfo] { return maps.All(s.Edges) },
		func(s *graph.Snapshot, e graph.EdgeID) bool { _, ok := s.Edges[e]; return ok },
		func(e graph.EdgeID, info graph.EdgeInfo) { out.Edges[e] = info })
	attrsSatisfying(snaps, tex.Expr, func(s *graph.Snapshot) map[graph.NodeID]map[string]string { return s.NodeAttrs }, out.NodeAttrs)
	attrsSatisfying(snaps, tex.Expr, func(s *graph.Snapshot) map[graph.EdgeID]map[string]string { return s.EdgeAttrs }, out.EdgeAttrs)
	return out
}

// satisfying visits every element some snapshot holds, once, and keeps
// those whose membership across the snapshots satisfies expr: all lists a
// snapshot's elements, has tests one.
func satisfying[K comparable, V any](snaps []*graph.Snapshot, expr TimeExpr,
	all func(*graph.Snapshot) iter.Seq2[K, V], has func(*graph.Snapshot, K) bool, keep func(K, V)) {
	seen := make(map[K]struct{})
	member := make([]bool, len(snaps))
	for _, s := range snaps {
		for k, v := range all(s) {
			if _, ok := seen[k]; ok {
				continue
			}
			seen[k] = struct{}{}
			for i, si := range snaps {
				member[i] = has(si, k)
			}
			if expr.Eval(member) {
				keep(k, v)
			}
		}
	}
}

// attrEntry is one attribute entry as an element: the value is part of
// its identity.
type attrEntry[ID comparable] struct {
	id   ID
	k, v string
}

// attrsSatisfying is satisfying over the attribute entries of one kind of
// element (of picks the node or the edge attributes), kept into out.
func attrsSatisfying[ID comparable](snaps []*graph.Snapshot, expr TimeExpr,
	of func(*graph.Snapshot) map[ID]map[string]string, out map[ID]map[string]string) {
	satisfying(snaps, expr,
		func(s *graph.Snapshot) iter.Seq2[attrEntry[ID], struct{}] {
			return func(yield func(attrEntry[ID], struct{}) bool) {
				for id, attrs := range of(s) {
					for k, v := range attrs {
						if !yield(attrEntry[ID]{id, k, v}, struct{}{}) {
							return
						}
					}
				}
			}
		},
		func(s *graph.Snapshot, a attrEntry[ID]) bool { return of(s)[a.id][a.k] == a.v },
		func(a attrEntry[ID], _ struct{}) {
			if out[a.id] == nil {
				out[a.id] = make(map[string]string)
			}
			out[a.id][a.k] = a.v
		})
}

// TestExpressionMatchesReference: the graph RetrieveExpression makes in one
// walk of the pool is the reference's over the replays — for And, Or, a lone
// Not and Not under three times, structure only and with every attribute,
// with the graphs on bits below 64 and, 64 views held, past 63 — and so is
// the value of an attribute two graphs give differently, whichever way the
// times are listed. A structure-only read, released and cleaned, leaves the
// pool's ApproxBytes and Stats as the same read before it left them.
func TestExpressionMatchesReference(t *testing.T) {
	events := makeTrace(37, 3000)
	pool := graphpool.New()
	dg, err := Build(events, Options{LeafSize: 100, Arity: 2, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	first, last := events.Span()
	ts := []graph.Time{first + (last-first)/3, last - 40, last}
	exprs := []TimeExpression{
		{ts[:2], And{Var(0), Not{Var(1)}}},
		{ts[:2], Or{Var(0), Var(1)}},
		{ts[:1], Not{Var(0)}},
		{ts, Not{And{Var(0), Var(1), Var(2)}}},
		{ts, And{Or{Var(0), Var(2)}, Not{Var(1)}}},
		{[]graph.Time{ts[2], ts[0], ts[1]}, And{Var(0), Not{Or{Var(1), Var(2)}}}},
	}
	var held []graphpool.GraphID
	for _, hold := range []int{0, 64} {
		if hold > 0 {
			views := make([]graph.Time, hold)
			for i := range views {
				views[i] = first + graph.Time(i)
			}
			if held, err = dg.RetrieveMany(views, graph.AttrOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		for _, tex := range exprs {
			for _, opts := range []graph.AttrOptions{{}, allAttrs} {
				where := fmt.Sprintf("%d views held, %v over %v, %v", hold, tex.Expr, tex.Times, opts)
				bytes, st := settled(t, dg, tex, opts)
				id, err := dg.RetrieveExpression(tex, opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, row := range pool.MappingTable() {
					if row.ID == id && (row.Bits[0] < 64) != (hold == 0) {
						t.Fatalf("%s: the graph is on bit %d", where, row.Bits[0])
					}
				}
				v, err := pool.View(id)
				if err != nil {
					t.Fatal(err)
				}
				got, want := v.Snapshot(), referenceExpression(events, tex, opts)
				if !got.Equal(want) || v.NumNodes() != len(want.Nodes) || v.NumEdges() != len(want.Edges) {
					t.Fatalf("%s: %d nodes, %d edges; the reference %d, %d", where, v.NumNodes(), v.NumEdges(), len(want.Nodes), len(want.Edges))
				}
				if err := pool.Release(id); err != nil {
					t.Fatal(err)
				}
				// A structure-only read fetches no value, so once let go of
				// it leaves the pool as the same read before it left it.
				if pool.CleanNow(); opts.StructureOnly() {
					if got, after := pool.ApproxBytes(), pool.Stats(); got != bytes || after != st {
						t.Fatalf("%s: released and cleaned, the pool holds %d B, %+v; before %d B, %+v", where, got, after, bytes, st)
					}
				}
			}
		}
	}
	for _, id := range held {
		if err := pool.Release(id); err != nil {
			t.Fatal(err)
		}
	}

	// Node 1 and edge 1 give their attribute x, then y, then x again.
	change := func(at graph.Time, old, val string) []graph.Event {
		return []graph.Event{
			{Type: graph.SetNodeAttr, At: at, Node: 1, Attr: "a", Old: old, HadOld: old != "", New: val, HasNew: true},
			{Type: graph.SetEdgeAttr, At: at, Edge: 1, Node: 1, Node2: 2, Attr: "w", Old: old, HadOld: old != "", New: val, HasNew: true},
		}
	}
	values := graph.EventList{{Type: graph.AddNode, At: 1, Node: 1}, {Type: graph.AddNode, At: 1, Node: 2}, {Type: graph.AddEdge, At: 1, Edge: 1, Node: 1, Node2: 2}}
	values = append(values, change(2, "", "x")...)
	values = append(values, change(6, "x", "y")...)
	values = append(values, change(9, "y", "x")...)
	values = append(values, graph.Event{Type: graph.AddNode, At: 12, Node: 3})
	dg, err = Build(values, Options{LeafSize: 4, Arity: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		times []graph.Time
		want  string
	}{{[]graph.Time{2, 6, 9}, "y"}, {[]graph.Time{6, 2}, "x"}} {
		tex := TimeExpression{tc.times, Or{Var(0), Var(1)}}
		got, err := expression(dg, tex, allAttrs)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceExpression(values, tex, allAttrs)
		if !got.Equal(want) || want.NodeAttrs[1]["a"] != tc.want || want.EdgeAttrs[1]["w"] != tc.want {
			t.Fatalf("%v over %v: node 1 a=%q, edge 1 w=%q; the reference a=%q, w=%q, want %q",
				tex.Expr, tc.times, got.NodeAttrs[1]["a"], got.EdgeAttrs[1]["w"], want.NodeAttrs[1]["a"], want.EdgeAttrs[1]["w"], tc.want)
		}
	}
}

// settled reads tex once and lets go of it, so that the pool's record
// chunks, tables and free lists are at the read's high-water mark, and
// returns what the pool then holds.
func settled(t *testing.T, dg *DeltaGraph, tex TimeExpression, opts graph.AttrOptions) (int64, graphpool.Stats) {
	t.Helper()
	if _, err := expression(dg, tex, opts); err != nil {
		t.Fatal(err)
	}
	dg.Pool().CleanNow()
	return dg.Pool().ApproxBytes(), dg.Pool().Stats()
}

// TestBadExpressionIsRejected: an expression with a Var outside its times, or
// with a nil operand, is refused before anything is built, and the pool holds
// what it held before to the byte. Evaluated, it would fail halfway through
// writing the pool's bits.
func TestBadExpressionIsRejected(t *testing.T) {
	events := makeTrace(38, 1500)
	pool := graphpool.New()
	dg, err := Build(events, Options{LeafSize: 100, Arity: 2, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	_, last := events.Span()
	ts := []graph.Time{last / 2, last}
	pool.CleanNow()
	bytes, st := pool.ApproxBytes(), pool.Stats()
	for _, expr := range []TimeExpr{Var(2), Var(-1), And{Var(0), Not{Var(2)}}, Or{Var(1), nil}, Not{}, nil} {
		if id, err := dg.RetrieveExpression(TimeExpression{Times: ts, Expr: expr}, allAttrs); err == nil {
			t.Errorf("%#v over two times is accepted, as graph %d", expr, id)
		}
		if got, after := pool.ApproxBytes(), pool.Stats(); got != bytes || after != st {
			t.Fatalf("%#v refused, the pool holds %d B, %+v; before %d B, %+v", expr, got, after, bytes, st)
		}
	}
}

// BenchmarkGetExpression is an expression read below the serving layer:
// Var(0) ∧ ¬Var(k−1) over k times spread evenly over the repository
// benchmark's seed-1 trace, bulk-built into a FileStore as retrieve-embedded
// builds it, structure only and with every attribute, its graph copied out of
// the pool. Releasing the graph and the clean pass that reclaims it run off
// the clock.
func BenchmarkGetExpression(b *testing.B) {
	events := benchTrace(1, 1)
	fs := openFileStore(b, filepath.Join(b.TempDir(), "index"))
	defer fs.Close()
	dg, err := Build(events, Options{Store: fs})
	if err != nil {
		b.Fatal(err)
	}
	first, last := events.Span()
	for _, k := range []int{2, 4, 8} {
		ts := make([]graph.Time, k)
		for i := range ts {
			ts[i] = first + (last-first)*graph.Time(2*i+1)/graph.Time(2*k)
		}
		tex := TimeExpression{ts, And{Var(0), Not{Var(k - 1)}}}
		for _, bc := range []struct {
			name string
			opts graph.AttrOptions
		}{{"none", graph.AttrOptions{}}, {"all", allAttrs}} {
			b.Run(fmt.Sprintf("k=%d/attrs=%s", k, bc.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					id, err := dg.RetrieveExpression(tex, bc.opts)
					if err != nil {
						b.Fatal(err)
					}
					v, err := dg.Pool().View(id)
					if err != nil {
						b.Fatal(err)
					}
					if bc.opts.StructureOnly() {
						v.Structure()
					} else {
						v.Snapshot()
					}
					b.StopTimer()
					if err := dg.Pool().Release(id); err != nil {
						b.Fatal(err)
					}
					dg.Pool().CleanNow()
					b.StartTimer()
				}
			})
		}
	}
}
