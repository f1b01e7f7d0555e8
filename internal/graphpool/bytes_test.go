package graphpool

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"historygraph/internal/graph"
)

// The shape of the repository benchmark's graph (benchmark/workloads.go):
// 4 000 authors with ten attributes each, 16 000 co-authorship edges, and
// the 32 structure-only views retrieve-embedded holds for heap_live_mb.
const (
	shapeNodes, shapeAttrs, shapeEdges, shapeViews = 4000, 10, 16000, 32
)

func shapeNodeEvents(rng *rand.Rand) (evs []graph.Event) {
	for n := graph.NodeID(1); n <= shapeNodes; n++ {
		evs = append(evs, graph.Event{Type: graph.AddNode, Node: n})
		for a := 0; a < shapeAttrs; a++ {
			evs = append(evs, graph.Event{Type: graph.SetNodeAttr, Node: n, Attr: fmt.Sprintf("k%d", a), New: fmt.Sprintf("v%d", rng.Intn(1000)), HasNew: true})
		}
	}
	return evs
}

func shapeEdgeEvents(rng *rand.Rand) (evs []graph.Event) {
	for e := graph.EdgeID(1); e <= shapeEdges; e++ {
		evs = append(evs, graph.Event{Type: graph.AddEdge, Edge: e, Node: graph.NodeID(1 + rng.Intn(shapeNodes)), Node2: graph.NodeID(1 + rng.Intn(shapeNodes))})
	}
	return evs
}

// shapeHistory returns the structure of the shaped graph as of shapeViews
// evenly spread moments of its growth.
func shapeHistory(nodes, edges []graph.Event) []*graph.Snapshot {
	var out []*graph.Snapshot
	s := graph.NewSnapshot()
	ni, ei := 0, 0
	for v := 1; v <= shapeViews; v++ {
		for ; ni < len(nodes)*v/shapeViews; ni++ {
			if nodes[ni].Type == graph.AddNode {
				s.Apply(nodes[ni])
			}
		}
		for ; ei < len(edges)*v/shapeViews; ei++ {
			s.Apply(edges[ei])
		}
		out = append(out, s.Clone())
	}
	return out
}

// heapGrowth returns the live heap build leaves behind: HeapAlloc after it
// and a collection, less HeapAlloc after a collection before it. inputs are
// what build reads; they are kept alive across both readings, so that
// their collection is not counted against the growth.
func heapGrowth(build func(), inputs ...any) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(inputs)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// TestApproxBytesTracksHeap pins ApproxBytes — what graphpool.bytes_per_view,
// dg_pool_bytes and BenchmarkFig8aGraphPoolOverlay's pool-B report — to the heap the
// pool really holds, on the benchmark's shape: within 15 % of the
// runtime's own count.
func TestApproxBytesTracksHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	nodes, edges := shapeNodeEvents(rng), shapeEdgeEvents(rng)
	history := shapeHistory(nodes, edges)
	var p *Pool
	heap := heapGrowth(func() {
		p = New()
		for _, ev := range nodes {
			p.ApplyEvent(ev)
		}
		for _, ev := range edges {
			p.ApplyEvent(ev)
		}
		// Every moment twice: the last two of the 64 views take bits 64 and
		// 65, and each element they contain carries a word beyond the
		// inline one, which the estimate must count too.
		for round := range 2 {
			for i, s := range history {
				p.OverlaySnapshot(s, graph.Time(round*shapeViews+i))
			}
		}
	}, nodes, edges, history)
	// The strings are the events' own, outside the measured growth (how a
	// byte of string is allocated differs under the race detector): what is
	// compared is the layout. The pool holds each once.
	est := p.ApproxBytes()
	for s := range p.strIDs {
		est -= int64(len(s))
	}
	if st := p.Stats(); st.Bits != 2+2*shapeViews {
		t.Fatalf("the shape should need %d bits (the inline word and two bits beyond it), has %d", 2+2*shapeViews, st.Bits)
	}
	t.Logf("ApproxBytes less the value strings %d, heap %d (%+.1f %%)", est, heap, 100*float64(est-heap)/float64(heap))
	if est < heap*85/100 || est > heap*115/100 {
		t.Errorf("ApproxBytes = %d, the heap holds %d: off by more than 15 %%", est, heap)
	}
	runtime.KeepAlive(p)
}

// TestPoolBytesPerElement is the golden cost behind heap_live_mb, as
// TestGoldenCheckpointBytes is behind durable_bytes_per_event: what a node
// with ten attributes and what a bare edge cost on the heap, measured, under
// ceilings a layout regression breaks: 277 B and 42 B with the records in
// chunks, named by 4-byte indices, which the adjacency lists hold and the
// tables that find a record by id (idTable), 16-byte attribute values that
// name their strings in one table, each string once, and 24-byte edge
// records, a bitmap's spill slot named by its inline word; the ceilings a
// tenth above that. The bytes of the strings are the events' own and not in
// the measure. With a 4-byte spill index beside the inline word, 24-byte
// values and 32-byte edge records, 357 B and 50 B (ceilings 393 and 55).
// With a 16-byte string header on each value, 418 B and 50 B
// (the node ceiling 460 B); with Go maps from ids to the indices, 447 B and 78 B; with a
// node record a heap object of its own, without its id, and 8-byte edge ids
// in the adjacency lists, 429 B and 86 B. With a map of one-element slices of pointers to
// 48-byte values per element and every bitmap word allocated apart, the same
// measurement read 1 510 B a node and 153 B an edge; with the adjacency lists
// in a map of their own, growing by doubling, and an empty attribute-list
// header on every edge, 501 B and 143 B; with the adjacency on the node
// record, 525 B and 102 B, when a bitmap was a bitset.Bits (16 B, its words
// past bit 63 behind a pointer), an attribute value 40 B and an edge record
// 48 B, the id's values on it.
func TestPoolBytesPerElement(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	nodes, edges := shapeNodeEvents(rng), shapeEdgeEvents(rng)
	p := New()
	apply := func(evs []graph.Event) func() {
		return func() {
			for _, ev := range evs {
				p.ApplyEvent(ev)
			}
		}
	}
	perNode := float64(heapGrowth(apply(nodes), nodes, edges)) / shapeNodes
	perEdge := float64(heapGrowth(apply(edges), edges)) / shapeEdges
	t.Logf("%.0f B per node with %d attributes, %.0f B per bare edge", perNode, shapeAttrs, perEdge)
	const nodeCeiling, edgeCeiling = 305, 46
	if perNode > nodeCeiling {
		t.Errorf("a node with %d attributes costs %.0f B of heap, ceiling %d", shapeAttrs, perNode, nodeCeiling)
	}
	if perEdge > edgeCeiling {
		t.Errorf("a bare edge costs %.0f B of heap, ceiling %d", perEdge, edgeCeiling)
	}
	runtime.KeepAlive(p)
}

// TestRecordLayout guards the layout the heap figures above rest on: an
// attribute value is 16 B and an edge record 24 B, and neither holds a
// pointer, so the collector never scans one; a node record is 56 B; and
// every record begins with its id. With a 4-byte spill index beside the
// inline word (and an edge record's two flags as bools) they were 24 B and
// 32 B; with the bitmap a bitset.Bits, its words past bit 63 behind a
// pointer, and an edge id's values on its record, 40 B and 48 B; with the
// value's string on it, an attribute value was 32 B.
func TestRecordLayout(t *testing.T) {
	if got := unsafe.Sizeof(attrVal{}); got != 16 {
		t.Errorf("an attribute value is %d B, want 16", got)
	}
	if got := unsafe.Sizeof(poolEdge{}); got != 24 {
		t.Errorf("an edge record is %d B, want 24", got)
	}
	if got := unsafe.Sizeof(poolNode{}); got != 56 {
		t.Errorf("a node record is %d B, want 56", got)
	}
	var pointerFree func(reflect.Type) bool
	pointerFree = func(typ reflect.Type) bool {
		switch typ.Kind() {
		case reflect.Struct:
			for i := range typ.NumField() {
				if !pointerFree(typ.Field(i).Type) {
					return false
				}
			}
			return true
		case reflect.Array:
			return pointerFree(typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.String, reflect.Interface, reflect.Func, reflect.Chan:
			return false
		}
		return true
	}
	// An idTable reads a record's id in place, as the int64 it begins with.
	for _, typ := range []reflect.Type{reflect.TypeOf(poolNode{}), reflect.TypeOf(poolEdge{})} {
		if f := typ.Field(0); f.Name != "id" || f.Offset != 0 || f.Type.Kind() != reflect.Int64 {
			t.Errorf("a %s begins with %s %s at %d, want its id, an int64, at 0", typ.Name(), f.Name, f.Type, f.Offset)
		}
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(poolEdge{}), reflect.TypeOf(attrVal{})} {
		for i := range typ.NumField() {
			if f := typ.Field(i); !pointerFree(f.Type) {
				t.Errorf("%s field %s (%s) holds a pointer", typ.Name(), f.Name, f.Type)
			}
		}
	}
}
