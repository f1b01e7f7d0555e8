package deltagraph

import (
	"container/heap"
	"math"

	"historygraph/internal/graph"
)

// The DeltaGraph skeleton is the in-memory weighted graph over index nodes
// (Section 3.2.2): it records the structure and per-component delta sizes
// but none of the delta payloads, and is what the query planner searches.

// edgeKind classifies skeleton edges.
type edgeKind uint8

const (
	// kindDelta is a directed parent→child edge carrying a delta.
	kindDelta edgeKind = iota
	// kindEventFwd applies leaf-eventlist i forward: leaf i → leaf i+1.
	kindEventFwd
	// kindEventBwd applies leaf-eventlist i backward: leaf i+1 → leaf i.
	kindEventBwd
	// kindMat is a zero-weight super-root → materialized-node edge.
	kindMat
)

// componentSizes holds encoded byte sizes per stored component:
// [0]=struct, [1]=nodeattr, [2]=edgeattr, [3]=transient, then one entry per
// registered aux index.
type componentSizes []int64

// skelNode is one DeltaGraph node: a leaf (implicit snapshot), an interior
// node, or the super-root.
type skelNode struct {
	id    int
	level int // 0 = leaf, increasing upward; superRoot has the top level + 1
	// at is the snapshot timepoint for leaves (the time of the last event
	// the leaf includes); interior nodes keep the span covered.
	at       graph.Time
	spanEnd  graph.Time
	size     int // element count of the node's graph at build time
	children []int
	// Materialization state (Section 4.5): the graph is DeltaGraph.matGraphs'
	// (none for the empty anchor leaf).
	materialized bool
}

// skelEdge is one skeleton edge with its delta/eventlist identity and
// per-component sizes.
type skelEdge struct {
	from, to int
	kind     edgeKind
	deltaID  uint64 // storage id of the delta or eventlist payload
	sizes    componentSizes
	counts   int // total record/event count (plan statistics)
	// evIndex is the eventlist ordinal for eventlist edges (-1 otherwise).
	evIndex int
}

type skeleton struct {
	nodes     []*skelNode
	edges     []*skelEdge
	out       [][]int // node id -> indices into edges
	superRoot int
	leaves    []int // leaf node ids in chronological order
}

func newSkeleton() *skeleton {
	s := &skeleton{superRoot: -1}
	return s
}

func (s *skeleton) addNode(n *skelNode) int {
	n.id = len(s.nodes)
	s.nodes = append(s.nodes, n)
	s.out = append(s.out, nil)
	return n.id
}

func (s *skeleton) addEdge(e *skelEdge) int {
	idx := len(s.edges)
	s.edges = append(s.edges, e)
	s.out[e.from] = append(s.out[e.from], idx)
	return idx
}

// leafTime returns the snapshot timepoint of leaf i.
func (s *skeleton) leafTime(i int) graph.Time { return s.nodes[s.leaves[i]].at }

// leafTimes returns the snapshot timepoint of every leaf in order.
func (s *skeleton) leafTimes() []graph.Time {
	ts := make([]graph.Time, len(s.leaves))
	for i := range s.leaves {
		ts[i] = s.leafTime(i)
	}
	return ts
}

// locate returns the index i of the last leaf with time <= t, or -1 when t
// precedes the first leaf (impossible in practice: leaf 0 is the empty
// graph before any event).
func (s *skeleton) locate(t graph.Time) int {
	lo, hi := 0, len(s.leaves)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.leafTime(mid) <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// weightSelector maps an edge to its planning weight for a given query.
type weightSelector struct {
	wantStruct    bool
	wantNodeAttr  bool
	wantEdgeAttr  bool
	auxComponents []int // indices (4+i) of aux components to fetch
	// perFetchCost models the fixed cost of one key-value store read
	// ("a more realistic cost model where using a higher number of
	// queries to fetch the same amount of information takes more time",
	// Section 5.4).
	perFetchCost int64
	// skipMat excludes materialization shortcuts (aux queries: pinned
	// snapshots hold graph content only), except the empty anchor leaf,
	// which holds all there is of either.
	skipMat bool
	// noBackward excludes undoing eventlists (aux events carry no old
	// values, so they are forward-only).
	noBackward bool
}

func selectorFor(opts graph.AttrOptions, aux []int) weightSelector {
	return weightSelector{
		wantStruct:    true,
		wantNodeAttr:  opts.AnyNodeAttrs(),
		wantEdgeAttr:  opts.AnyEdgeAttrs(),
		auxComponents: aux,
		perFetchCost:  64,
	}
}

func (w weightSelector) weight(e *skelEdge) int64 {
	if e.kind == kindMat {
		return 0
	}
	total := w.perFetchCost
	if w.wantStruct {
		total += e.sizes[0]
	}
	if w.wantNodeAttr {
		total += e.sizes[1]
	}
	if w.wantEdgeAttr {
		total += e.sizes[2]
	}
	for _, c := range w.auxComponents {
		if c < len(e.sizes) {
			total += e.sizes[c]
		}
	}
	return total
}

// dijkstraItem is a priority-queue entry.
type dijkstraItem struct {
	node int
	dist int64
}

type dijkstraPQ []dijkstraItem

func (p dijkstraPQ) Len() int            { return len(p) }
func (p dijkstraPQ) Less(i, j int) bool  { return p[i].dist < p[j].dist }
func (p dijkstraPQ) Swap(i, j int)       { p[i], p[j] = p[j], p[i] }
func (p *dijkstraPQ) Push(x interface{}) { *p = append(*p, x.(dijkstraItem)) }
func (p *dijkstraPQ) Pop() interface{} {
	old := *p
	n := len(old)
	item := old[n-1]
	*p = old[:n-1]
	return item
}

// shortestPaths runs Dijkstra over the skeleton with the given weights from
// the super-root and from more sources, each at its distance. It returns dist
// and predecessor-edge-index arrays; a source has none.
func (s *skeleton) shortestPaths(sources []dijkstraItem, w weightSelector) ([]int64, []int) {
	dist := make([]int64, len(s.nodes))
	prev := make([]int, len(s.nodes))
	for i := range dist {
		dist[i] = math.MaxInt64
		prev[i] = -1
	}
	pq := append(dijkstraPQ{{node: s.superRoot}}, sources...)
	for _, src := range pq {
		dist[src.node] = src.dist
	}
	heap.Init(&pq)
	for pq.Len() > 0 {
		item := heap.Pop(&pq).(dijkstraItem)
		if item.dist > dist[item.node] {
			continue
		}
		for _, ei := range s.out[item.node] {
			e := s.edges[ei]
			if e == nil {
				continue
			}
			if (w.skipMat && e.kind == kindMat && e.to != s.leaves[0]) || (w.noBackward && e.kind == kindEventBwd) {
				continue
			}
			nd := item.dist + w.weight(e)
			if nd < dist[e.to] {
				dist[e.to] = nd
				prev[e.to] = ei
				heap.Push(&pq, dijkstraItem{node: e.to, dist: nd})
			}
		}
	}
	return dist, prev
}
