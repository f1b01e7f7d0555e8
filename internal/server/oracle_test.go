package server

// The byte oracle of every snapshot-shaped answer. The reference is the path
// the server took before the walk was the pool's: structs built over
// ForEachNode, ForEachEdge, NodeAttrs and EdgeAttrs, sorted by ID, then
// encoded by wire.Binary, wire.JSON or the stream encoder. Every answer's
// bytes must equal the reference's.

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"historygraph"
	"historygraph/internal/datagen"
	"historygraph/internal/graph"
	"historygraph/internal/wire"
)

// refElements is what the reference reads: a view's per-element accessors.
type refElements interface {
	NumNodes() int
	NumEdges() int
	ForEachNode(func(historygraph.NodeID) bool)
	ForEachEdge(func(historygraph.EdgeID, historygraph.EdgeInfo) bool)
	NodeAttrs(historygraph.NodeID) map[string]string
	EdgeAttrs(historygraph.EdgeID) map[string]string
}

// refDetached gives a set-based snapshot the reference's accessors.
type refDetached struct{ s *historygraph.Snapshot }

func (d refDetached) NumNodes() int { return len(d.s.Nodes) }
func (d refDetached) NumEdges() int { return len(d.s.Edges) }

func (d refDetached) ForEachNode(fn func(historygraph.NodeID) bool) {
	for n := range d.s.Nodes {
		if !fn(n) {
			return
		}
	}
}

func (d refDetached) ForEachEdge(fn func(historygraph.EdgeID, historygraph.EdgeInfo) bool) {
	for e, info := range d.s.Edges {
		if !fn(e, info) {
			return
		}
	}
}

func (d refDetached) NodeAttrs(n historygraph.NodeID) map[string]string { return d.s.NodeAttrs[n] }
func (d refDetached) EdgeAttrs(e historygraph.EdgeID) map[string]string { return d.s.EdgeAttrs[e] }

// refInterval is the reference /interval graph and transients: a replay of
// events that applies every add and set in [from, to) to the null graph,
// with the values attrs asks for. An event that leaves the graph as it was
// — an add of an element that is there, a set to the value already held, a
// removal of a value not held — is no event of the history, as the index
// admits none.
func refInterval(events historygraph.EventList, from, to historygraph.Time, attrs string) (*historygraph.Snapshot, []historygraph.Event) {
	cur, added := graph.NewSnapshot(), graph.NewSnapshot()
	var transients []historygraph.Event
	for _, ev := range events {
		changes := true
		switch ev.Type {
		case graph.AddNode:
			_, there := cur.Nodes[ev.Node]
			changes = !there
		case graph.AddEdge:
			_, there := cur.Edges[ev.Edge]
			changes = !there
		case graph.SetNodeAttr, graph.SetEdgeAttr:
			held, had := cur.NodeAttrs[ev.Node][ev.Attr]
			if ev.Type == graph.SetEdgeAttr {
				held, had = cur.EdgeAttrs[ev.Edge][ev.Attr]
			}
			changes = had && (!ev.HasNew || held != ev.New) || !had && ev.HasNew
		}
		cur.Apply(ev)
		if !changes || ev.At < from || ev.At >= to {
			continue
		}
		switch ev.Type {
		case graph.TransientEdge, graph.TransientNode:
			transients = append(transients, ev)
		case graph.AddNode, graph.AddEdge, graph.SetNodeAttr, graph.SetEdgeAttr:
			added.Apply(ev)
		}
	}
	return historygraph.MustParseAttrOptions(attrs).FilterSnapshot(added), transients
}

// refSnapshotOf is the reference answer for src under own.
func refSnapshotOf(src refElements, at historygraph.Time, full bool, own *slotOwnership) wire.Snapshot {
	out := wire.Snapshot{At: int64(at)}
	if !full && !own.filtering() {
		out.NumNodes, out.NumEdges = src.NumNodes(), src.NumEdges()
		return out
	}
	nodes, edges := []wire.Node{}, []wire.Edge{}
	src.ForEachNode(func(n historygraph.NodeID) bool {
		if own.ownsNode(n) {
			nodes = append(nodes, wire.Node{ID: int64(n)})
		}
		return true
	})
	src.ForEachEdge(func(e historygraph.EdgeID, info historygraph.EdgeInfo) bool {
		if own.ownsNode(info.From) {
			edges = append(edges, wire.Edge{ID: int64(e), From: int64(info.From), To: int64(info.To), Directed: info.Directed})
		}
		return true
	})
	out.NumNodes, out.NumEdges = len(nodes), len(edges)
	if !full {
		return out
	}
	slices.SortStableFunc(nodes, func(a, b wire.Node) int { return cmp.Compare(a.ID, b.ID) })
	slices.SortStableFunc(edges, func(a, b wire.Edge) int { return cmp.Compare(a.ID, b.ID) })
	for i := range nodes {
		nodes[i].Attrs = src.NodeAttrs(historygraph.NodeID(nodes[i].ID))
	}
	for i := range edges {
		edges[i].Attrs = src.EdgeAttrs(historygraph.EdgeID(edges[i].ID))
	}
	out.Nodes, out.Edges = nodes, edges
	return out
}

func mustEncode(t *testing.T, codec wire.Codec, v any) []byte {
	t.Helper()
	b, err := codec.Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// refStream is the reference stream of s in runs of run elements.
func refStream(t *testing.T, s wire.Snapshot, run int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := wire.EncodeSnapshotStream(&buf, &s, run); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameBytes fails the test where got is not want.
func sameBytes(t *testing.T, where string, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		n := 0
		for n < min(len(got), len(want)) && got[n] == want[n] {
			n++
		}
		t.Fatalf("%s: %d bytes differ from the reference's %d at byte %d", where, len(got), len(want), n)
	}
}

// oracleWalk holds every form the walk writes of src under own to the
// reference: the struct answer's JSON and binary bytes, the binary body
// written from the walk (and its hit form), and the stream at two run sizes.
func oracleWalk(t *testing.T, where string, src *historygraph.HistGraph, at historygraph.Time, own *slotOwnership) {
	t.Helper()
	for _, full := range []bool{false, true} {
		where := fmt.Sprintf("%s, full %t", where, full)
		want := refSnapshotOf(src, at, full, own)
		got := snapshotOf(src, at, full, own)
		for _, codec := range wire.Codecs() {
			sameBytes(t, where+", struct as "+codec.Name(), mustEncode(t, codec, got), mustEncode(t, codec, want))
		}
		w := binarySnapshot(src, wire.Snapshot{At: int64(at), Coalesced: true}, full, own)
		flagged := want
		flagged.Coalesced = true
		sameBytes(t, where+", binary from the walk", w.Bytes(), mustEncode(t, wire.Binary{}, flagged))
		flagged.Cached = true
		sameBytes(t, where+", its hit form", w.MarkCached(), mustEncode(t, wire.Binary{}, flagged))
		if !full {
			continue
		}
		for _, run := range []int{7, 0} {
			var buf bytes.Buffer
			se := wire.NewStreamEncoder(&buf, run)
			nodes, edges, walk := walkSnapshot(src, own, true)
			if err := walk.Walk(se.RunSize(), se); err != nil {
				t.Fatal(err)
			}
			if err := se.Summary(&wire.Snapshot{At: int64(at), NumNodes: nodes, NumEdges: edges}); err != nil {
				t.Fatal(err)
			}
			sameBytes(t, fmt.Sprintf("%s, stream in runs of %d", where, run), buf.Bytes(), refStream(t, want, run))
		}
	}
}

// oracleAnswers holds the served answers of handler to the reference: each
// whole-message /snapshot, counts-only and full, in both codecs, three times
// over (a miss, then hits of whichever levels hold it), the stream, /batch,
// /expr and /interval. The reference reads the same graphs from gm, but for
// /interval's, which it replays from events, the trace gm was built from.
// The flags a cache level sets are read off each answer; with no view cache
// the third whole-message answer, the encoded level's hit, must carry Cached.
func oracleAnswers(t *testing.T, where string, gm *historygraph.GraphManager, svc *Server, events historygraph.EventList, times []historygraph.Time, attrs string, viewCache bool) {
	t.Helper()
	handler, own := svc.Handler(), svc.ownership()
	serve := func(method, url, accept string, body []byte) []byte {
		t.Helper()
		req := httptest.NewRequest(method, url, bytes.NewReader(body))
		req.Header.Set("Accept", accept)
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %s %s answered %d: %s", where, method, url, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	decode := func(codec wire.Codec, body []byte, v any) {
		t.Helper()
		if err := codec.Decode(body, v); err != nil {
			t.Fatalf("%s: %v", where, err)
		}
	}
	q := "&attrs=" + strings.ReplaceAll(attrs, "+", "%2B")
	for _, at := range times {
		h, err := gm.GetHistGraph(at, attrs)
		if err != nil {
			t.Fatal(err)
		}
		for _, full := range []bool{true, false} {
			want := refSnapshotOf(h, h.At(), full, own)
			for _, codec := range wire.Codecs() {
				for i := range 3 {
					body := serve(http.MethodGet, fmt.Sprintf("/snapshot?t=%d&full=%t%s", at, full, q), codec.ContentType(), nil)
					var flags wire.Snapshot
					decode(codec, body, &flags)
					if i == 2 && !viewCache && !flags.Cached {
						t.Fatalf("%s: the encoded level's hit at %d (%s, full %t) is not marked cached", where, at, codec.Name(), full)
					}
					want.Cached, want.Coalesced = flags.Cached, flags.Coalesced
					sameBytes(t, fmt.Sprintf("%s, /snapshot at %d as %s, full %t, answer %d", where, at, codec.Name(), full, i), body, mustEncode(t, codec, want))
				}
			}
		}
		want := refSnapshotOf(h, h.At(), true, own)
		for i := range 2 {
			body := serve(http.MethodGet, fmt.Sprintf("/snapshot?t=%d&full=1%s", at, q), wire.ContentTypeBinaryStream, nil)
			flags, err := wire.DecodeSnapshotStream(bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			want.Cached, want.Coalesced = flags.Cached, flags.Coalesced
			sameBytes(t, fmt.Sprintf("%s, stream at %d, answer %d", where, at, i), body, refStream(t, want, svc.runSize))
		}
		gm.Release(h)
	}

	list := make([]string, len(times))
	for i, at := range times {
		list[i] = fmt.Sprint(at)
	}
	for _, full := range []bool{true, false} {
		want := make([]wire.Snapshot, len(times))
		for i, at := range times {
			h, err := gm.GetHistGraph(at, attrs)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = refSnapshotOf(h, at, full, own)
			gm.Release(h)
		}
		for _, codec := range wire.Codecs() {
			body := serve(http.MethodGet, fmt.Sprintf("/batch?t=%s&full=%t%s", strings.Join(list, ","), full, q), codec.ContentType(), nil)
			var flags []wire.Snapshot
			decode(codec, body, &flags)
			for i := range want {
				want[i].Cached = flags[i].Cached
			}
			sameBytes(t, fmt.Sprintf("%s, /batch as %s, full %t", where, codec.Name(), full), body, mustEncode(t, codec, want))
		}

		req := wire.ExprRequest{Times: []int64{int64(times[1]), int64(times[len(times)-1])}, Expr: "0 & !1", Attrs: attrs, Full: full}
		tex := historygraph.TimeExpression{Times: []historygraph.Time{times[1], times[len(times)-1]}, Expr: historygraph.And{historygraph.Var(0), historygraph.Not{E: historygraph.Var(1)}}}
		h, err := gm.GetHistGraphExpr(tex, attrs)
		if err != nil {
			t.Fatal(err)
		}
		wantExpr := refSnapshotOf(h, 0, full, own)
		gm.Release(h)
		reqBody, _ := json.Marshal(req)
		for _, codec := range wire.Codecs() {
			sameBytes(t, fmt.Sprintf("%s, /expr as %s, full %t", where, codec.Name(), full),
				serve(http.MethodPost, "/expr", codec.ContentType(), reqBody), mustEncode(t, codec, wantExpr))
		}

		from, to := times[1], times[len(times)-1]
		g, transients := refInterval(events, from, to, attrs)
		sj := refSnapshotOf(refDetached{g}, 0, full, own)
		wantIv := wire.Interval{Start: int64(from), End: int64(to), NumNodes: sj.NumNodes, NumEdges: sj.NumEdges, Nodes: sj.Nodes, Edges: sj.Edges}
		for _, ev := range transients {
			if !own.filtering() || own.owns(graph.SlotOfEvent(ev)) {
				wantIv.Transients = append(wantIv.Transients, ev)
			}
		}
		for _, codec := range wire.Codecs() {
			sameBytes(t, fmt.Sprintf("%s, /interval as %s, full %t", where, codec.Name(), full),
				serve(http.MethodGet, fmt.Sprintf("/interval?from=%d&to=%d&full=%t%s", from, to, full, q), codec.ContentType(), nil), mustEncode(t, codec, wantIv))
		}
	}
}

// firstAttr returns the name of the first node attribute events set.
func firstAttr(events historygraph.EventList) string {
	for _, ev := range events {
		if ev.Type == graph.SetNodeAttr {
			return ev.Attr
		}
	}
	return "none"
}

// TestAnswersMatchReference: every snapshot-shaped answer — /snapshot whole
// in both codecs, counts only and full, the stream, /batch, /expr and
// /interval — is byte for byte the reference's, over three traces, with no
// attribute, every attribute and one, owning every slot and half of them,
// with the view cache on and off, and with 64 views held first so that the
// served ones are past bit 63. The times served include an empty graph
// (before the first event) and the head, a dependent of the current graph;
// the walk of the current graph itself, the head and an empty graph are
// held to the reference directly, and so is SnapshotToJSON of the head
// detached.
func TestAnswersMatchReference(t *testing.T) {
	traces := []struct {
		name   string
		events historygraph.EventList
	}{
		{"testEvents", testEvents()},
		{"MessyTrace", datagen.MessyTrace(11, 2000)},
		{"routableMessy", datagen.RoutableMessyTrace(12, 2000)},
	}
	half, halfOwned := SlotsJSON{Epoch: 1}, &slotOwnership{epoch: 1}
	for s := 0; s < graph.NumSlots; s += 2 {
		half.Slots, halfOwned.owned[s] = append(half.Slots, s), true
	}
	for _, tr := range traces {
		gm, err := historygraph.BuildFrom(tr.events, historygraph.Options{LeafEventlistSize: 128, CleanerInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		first, last := tr.events.Span()
		times := []historygraph.Time{first - 1, first + (last-first)/3, first + (last-first)*2/3, last}
		for _, attrs := range []string{"", "+node:all+edge:all", "+node:" + firstAttr(tr.events)} {
			for _, owned := range []*slotOwnership{nil, halfOwned} {
				where := fmt.Sprintf("%s, attrs %q, filtered %t", tr.name, attrs, owned.filtering())
				oracleWalk(t, where+", the current graph", gm.CurrentGraph(), 0, owned)
				head, err := gm.GetHistGraph(last, attrs)
				if err != nil {
					t.Fatal(err)
				}
				if !head.DependsOnCurrent() {
					t.Fatalf("%s: the head read does not depend on the current graph", where)
				}
				oracleWalk(t, where+", the head", head, last, owned)
				if owned == nil {
					// SnapshotToJSON of the head detached, one node's values
					// an empty map: empty stays apart from nil.
					det := head.Snapshot()
					for n := range det.Nodes {
						det.NodeAttrs[n] = map[string]string{}
						break
					}
					for _, full := range []bool{false, true} {
						for _, codec := range wire.Codecs() {
							sameBytes(t, fmt.Sprintf("%s, the head detached as %s, full %t", where, codec.Name(), full),
								mustEncode(t, codec, SnapshotToJSON(det, last, full)), mustEncode(t, codec, refSnapshotOf(refDetached{det}, last, full, nil)))
						}
					}
				}
				gm.Release(head)
				empty, err := gm.GetHistGraph(first-1, attrs)
				if err != nil {
					t.Fatal(err)
				}
				if empty.NumNodes() != 0 {
					t.Fatalf("%s: the graph before the first event has %d nodes", where, empty.NumNodes())
				}
				oracleWalk(t, where+", an empty graph", empty, 0, owned)
				gm.Release(empty)
			}
			for _, hold := range []int{0, 64} {
				var held []*historygraph.HistGraph
				if hold > 0 {
					ts := make([]historygraph.Time, hold)
					for i := range ts {
						ts[i] = first + historygraph.Time(i)
					}
					if held, err = gm.GetHistGraphs(ts, ""); err != nil {
						t.Fatal(err)
					}
				}
				for _, viewCache := range []bool{true, false} {
					for _, slots := range []*SlotsJSON{nil, &half} {
						cfg := Config{StreamRun: 7}
						if !viewCache {
							cfg.CacheSize = -1
						}
						svc := New(gm, cfg)
						if slots != nil {
							if err := svc.SetSlots(*slots); err != nil {
								t.Fatal(err)
							}
						}
						where := fmt.Sprintf("%s, attrs %q, %d held, view cache %t, filtered %t", tr.name, attrs, hold, viewCache, slots != nil)
						oracleAnswers(t, where, gm, svc, tr.events, times, attrs, viewCache)
						svc.Close()
					}
				}
				for _, h := range held {
					gm.Release(h)
				}
			}
		}
		gm.Close()
	}
}
