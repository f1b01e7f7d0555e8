package deltagraph

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"historygraph/internal/delta"
	"historygraph/internal/graph"
	"historygraph/internal/graphpool"
	"historygraph/internal/kvstore"
)

// This file is retrieval. A snapshot, many snapshots, a node to materialize, an
// aux snapshot and an interval are all answered the same way:
//
//   - A step is "apply this payload": a graph to start from (the current
//     graph, or one a materialized or pending node holds in the pool), a
//     delta, or an eventlist (stored, or the in-memory recent one) applied or
//     undone and clipped to (lo, hi].
//     leafSteps yields the steps between any two times along the leaf level,
//     with their costs.
//   - A plan is a tree of steps hanging off the null graph. A singlepoint
//     query (Section 4.3) is the cheapest of "a graph that can be had whole on
//     either side of t, then along the leaf level to t", over one run of
//     Dijkstra; the index is held queryable while it grows (Section 6) by its
//     pending nodes, each a graph in the pool that a route may start from,
//     and every permanent node below them through the stored deltas. A
//     multipoint query (Section 4.4) joins its timepoints to the null graph
//     and to their neighbours in time by a minimum spanning tree (the
//     Steiner-tree 2-approximation); materialization has skeleton nodes for
//     targets. Plans that share steps share them in the tree.
//   - One executor walks the tree once, copying what it builds where the tree
//     branches. Nothing stored is read twice in one call. It builds graphs
//     under construction in the GraphPool: Retrieve, RetrieveMany and
//     materialization answer with them, RetrieveExpression with the one graph
//     a walk of the pool evaluates them into, and the calls that hand back
//     maps (GetSnapshot, GetSnapshots) copy each out and release it. An aux
//     query walks the same tree over aux snapshots (aux.go).

const bytesPerRecentEvent = 24 // planning estimate for in-memory events

// bytesPerRecord is the planning estimate for a record set from memory that
// a stored delta record would set, in the bytes that record is stored in:
// the structure column of the benchmark's whole graph as one delta is 81.6 kB
// for about 20 000 elements (pendingStep).
const bytesPerRecord = 4

type stepKind uint8

const (
	fromPinned  stepKind = iota // start from the graph a materialized or pending node holds
	fromCurrent                 // start from the current graph
	applyDelta                  // a stored delta
	applyList                   // a stored leaf-eventlist
	applyRecent                 // the in-memory eventlist past the last leaf
)

// A step is "apply this payload" to whatever is being built. Two steps that do
// the same thing compare equal, which is how plans come to share them.
type step struct {
	kind stepKind
	// edge holds the payload: the delta edge of applyDelta, the forward
	// eventlist edge of applyList.
	edge *skelEdge
	// node is the node whose graph fromPinned starts from.
	node int
	// An eventlist step applies the events in (lo, hi]; with back set it
	// undoes them, newest first.
	lo, hi graph.Time
	back   bool
	// cost is the planner's estimate in bytes, records the number of records
	// or events the step is expected to apply.
	cost    int64
	records int
}

// route is a run of steps: from the null graph to the graph at a time or a
// node, or from one time to another along the leaf level.
type route []step

func (r route) cost() (bytes int64) {
	for _, st := range r {
		bytes += st.cost
	}
	return bytes
}

func (r route) records() (n int) {
	for _, st := range r {
		n += st.records
	}
	return n
}

// undone returns the steps that take back what r did: eventlist steps only.
func undone(r route) route {
	u := slices.Clone(r)
	slices.Reverse(u)
	for i := range u {
		u[i].back = !u[i].back
	}
	return u
}

// leafSteps returns the steps that carry a graph as of time from to time to
// along the leaf level, in either direction. It is the only code that knows
// how leaves, eventlist edges and the recent eventlist line up: stored
// eventlist i holds the events in (leaf i's time, leaf i+1's time], the recent
// eventlist those after the last leaf.
func (dg *DeltaGraph) leafSteps(from, to graph.Time, sel weightSelector) (route, error) {
	if from > to {
		r, err := dg.leafSteps(to, from, sel)
		return undone(r), err
	}
	var steps route
	last := len(dg.skel.leaves) - 1
	for i := dg.skel.locate(from); from < to && i < last && dg.skel.leafTime(i) < to; i++ {
		st, err := dg.listStep(i, from, to, sel)
		if err != nil {
			return nil, err
		}
		steps = append(steps, st)
	}
	if tail := max(from, dg.skel.leafTime(last)); tail < to {
		n := dg.recent.search(to) - dg.recent.search(tail)
		steps = append(steps, step{kind: applyRecent, lo: tail, hi: to, cost: int64(n) * bytesPerRecentEvent, records: n})
	}
	return steps, nil
}

// listStep is the step over stored eventlist i clipped to (lo, hi], costed as
// the share of the list's time span that the clip covers. The span starts at
// the list's leaf, except that eventlist 0, whose leaf stands before all time,
// starts just before its first event.
func (dg *DeltaGraph) listStep(i int, lo, hi graph.Time, sel weightSelector) (step, error) {
	e := dg.eventEdge(i)
	if e == nil {
		return step{}, fmt.Errorf("deltagraph: missing eventlist %d", i)
	}
	start, end := max(dg.skel.leafTime(i), dg.firstTime-1), dg.skel.leafTime(i+1)
	lo, hi = max(lo, start), max(min(hi, end), start)
	span := float64(end - start)
	share := float64(hi-start)/span - float64(lo-start)/span
	return step{kind: applyList, edge: e, lo: lo, hi: hi,
		cost: int64(share * float64(sel.weight(e))), records: int(share * float64(e.counts))}, nil
}

// hopStep is the step that crosses skeleton edge e.
func (dg *DeltaGraph) hopStep(e *skelEdge, sel weightSelector) (step, error) {
	switch e.kind {
	case kindMat:
		return step{kind: fromPinned, node: e.to}, nil
	case kindDelta:
		return step{kind: applyDelta, edge: e, cost: sel.weight(e), records: e.counts}, nil
	}
	st, err := dg.listStep(e.evIndex, math.MinInt64, graph.MaxTime, sel)
	st.back = e.kind == kindEventBwd
	return st, err
}

// eventEdge returns the forward eventlist edge for ordinal i.
func (dg *DeltaGraph) eventEdge(i int) *skelEdge {
	leaf := dg.skel.leaves[i]
	for _, ei := range dg.skel.out[leaf] {
		e := dg.skel.edges[ei]
		if e != nil && e.kind == kindEventFwd && e.evIndex == i {
			return e
		}
	}
	return nil
}

// pendingNode returns the pending node with skeleton id node, nil if it is
// not pending.
func (dg *DeltaGraph) pendingNode(node int) *pendingChild {
	for _, level := range dg.pending {
		for i := range level {
			if level[i].node == node {
				return &level[i]
			}
		}
	}
	return nil
}

// pendingStep is the step that starts from pending node c's graph, costed as
// the copy it is: a record an element of the graph, or of its nodes and edges
// for a read that wants no attribute. An aux query copies the node's aux
// snapshot instead, a record a pair.
func (dg *DeltaGraph) pendingStep(c *pendingChild, sel weightSelector) step {
	var n int
	switch {
	case !sel.wantStruct:
		for _, comp := range sel.auxComponents {
			n += len(c.aux[comp-int(kvstore.ComponentAuxBase)])
		}
	case sel.wantNodeAttr || sel.wantEdgeAttr:
		n = c.size
	default:
		n = c.graph.NumNodes() + c.graph.NumEdges()
	}
	return step{kind: fromPinned, node: c.node, cost: int64(n) * bytesPerRecord}
}

// planner finds routes from the null graph for one query, over one run of
// Dijkstra from the super-root and every pending node, each at the cost of
// its pending step (made when the first route needs it: a query at the head
// does not).
type planner struct {
	dg       *DeltaGraph
	sel      weightSelector
	dist     []int64
	prevEdge []int
}

// reach returns the cheapest route from the null graph to a skeleton node's
// graph, nil if there is none.
func (p *planner) reach(node int) (route, error) {
	dg, skel := p.dg, p.dg.skel
	if p.dist == nil {
		var sources []dijkstraItem
		for _, level := range dg.pending {
			for i := range level {
				sources = append(sources, dijkstraItem{level[i].node, dg.pendingStep(&level[i], p.sel).cost})
			}
		}
		p.dist, p.prevEdge = skel.shortestPaths(sources, p.sel)
	}
	if p.dist[node] == math.MaxInt64 {
		return nil, nil
	}
	var r route
	at := node
	for p.prevEdge[at] != -1 {
		e := skel.edges[p.prevEdge[at]]
		st, err := dg.hopStep(e, p.sel)
		if err != nil {
			return nil, err
		}
		r = append(r, st)
		at = e.from
	}
	if c := dg.pendingNode(at); c != nil { // the route starts at a pending node
		r = append(r, dg.pendingStep(c, p.sel))
	}
	slices.Reverse(r)
	return r, nil
}

// routeTo returns the cheapest route from the null graph to the graph at t.
func (p *planner) routeTo(t graph.Time) (route, error) {
	dg := p.dg
	if t >= dg.lastTime {
		return route{{kind: fromCurrent}}, nil // the head: the current graph as it stands
	}
	// The graph at t lies between two graphs that can be had whole: the leaf at
	// or before t, and the leaf after it or, past the last leaf, the current
	// graph. The route is one of them and then the leaf level to t, whichever
	// costs less; at equal cost the current graph (nothing to fetch), then the
	// earlier leaf.
	li, last := dg.skel.locate(t), len(dg.skel.leaves)-1
	type whole struct {
		node int // -1: the current graph
		at   graph.Time
	}
	sides := []whole{{dg.skel.leaves[li], dg.skel.leafTime(li)}}
	if li < last {
		sides = append(sides, whole{dg.skel.leaves[li+1], dg.skel.leafTime(li + 1)})
	} else {
		sides = slices.Insert(sides, 0, whole{-1, dg.lastTime})
	}
	var best route
	for _, side := range sides {
		if side.at > t && p.sel.noBackward {
			continue
		}
		r := route{{kind: fromCurrent}}
		if side.node >= 0 {
			var err error
			if r, err = p.reach(side.node); err != nil {
				return nil, err
			} else if r == nil {
				continue
			}
		}
		walk, err := dg.leafSteps(side.at, t, p.sel)
		if err != nil {
			return nil, err
		}
		if r = append(r, walk...); best == nil || r.cost() < best.cost() {
			best = r
		}
	}
	if best == nil {
		return nil, fmt.Errorf("deltagraph: no route to time %d", t)
	}
	return best, nil
}

// planNode is one node of a plan: the state of the build after step, which
// the callers' positions in outs asked for and which the kids build on.
type planNode struct {
	step step
	kids []*planNode
	outs []int
}

// insert hangs a route off the tree, sharing the steps it has in common with
// the routes already there, and marks its end as wanted at position out.
func (n *planNode) insert(r route, out int) {
	for _, st := range r {
		i := slices.IndexFunc(n.kids, func(k *planNode) bool { return k.step == st })
		if i < 0 {
			i = len(n.kids)
			n.kids = append(n.kids, &planNode{step: st})
		}
		n = n.kids[i]
	}
	n.outs = append(n.outs, out)
}

// execute walks a plan once from state s, the tree's root: every step is
// applied once, and the state is forked only where more than one of outs and
// kids needs it. What is built (a graph, an aux snapshot) is the caller's:
// apply may change the state it is given in place and return it.
func execute[S any](n *planNode, s S, fork func(S) S, apply func(S, step) (S, error), out []S) error {
	uses := len(n.outs) + len(n.kids)
	take := func() S {
		if uses--; uses == 0 {
			return s
		}
		return fork(s)
	}
	for _, o := range n.outs {
		out[o] = take()
	}
	for _, kid := range n.kids {
		ks, err := apply(take(), kid.step)
		if err != nil {
			return err
		}
		if err := execute(kid, ks, fork, apply, out); err != nil {
			return err
		}
	}
	return nil
}

// planLocked plans the graphs at ts as one tree (Section 4.4), and counts
// those built from a source (IndexStats.PlanExecutions). The terminal
// graph joins every timepoint to the null graph, at the cost of its own
// cheapest route, and to its neighbour in time, at the cost of the leaf level
// between them; a minimum spanning tree of it decides which timepoints are
// built from the null graph and which from a neighbour. A neighbour's link
// also pays for the copy the executor forks of the graph it starts from,
// costed as a copy of the current graph is. (A route from the null graph that
// shares its start with another forks too; the tree charges it neither that
// nor credits it the steps it shares.) It returns the tree, whose outs are
// positions in ts, and for every timepoint built from the null graph its
// route, at its position.
func (dg *DeltaGraph) planLocked(ts []graph.Time, sel weightSelector) (*planNode, []route, error) {
	p := planner{dg: dg, sel: sel}
	m := len(ts)
	order := make([]int, m) // timepoints by time; i below is a position in order
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return ts[order[a]] < ts[order[b]] })

	type link struct {
		cost int64
		a, b int // b == m: the null graph
	}
	links := make([]link, 0, 2*m)
	fork := int64(dg.cur.NumNodes()+dg.cur.NumEdges()) * bytesPerRecord
	if sel.wantNodeAttr || sel.wantEdgeAttr {
		fork = int64(dg.curSize) * bytesPerRecord
	}
	direct := make([]route, m) // from the null graph to i
	hops := make([]route, m-1) // from i to i+1
	var err error
	for i, oi := range order {
		if direct[i], err = p.routeTo(ts[oi]); err != nil {
			return nil, nil, err
		}
		links = append(links, link{direct[i].cost(), i, m})
	}
	for i := range hops {
		if hops[i], err = dg.leafSteps(ts[order[i]], ts[order[i+1]], sel); err != nil {
			return nil, nil, err
		}
		links = append(links, link{hops[i].cost() + fork, i, i + 1})
	}

	// Kruskal. A hop in the tree joins two neighbours; so the timepoints fall
	// into runs of neighbours, and each run has exactly one timepoint joined
	// to the null graph, which the others are built from.
	sort.Slice(links, func(a, b int) bool { return links[a].cost < links[b].cost })
	set := make([]int, m+1)
	for i := range set {
		set[i] = i
	}
	find := func(x int) int {
		for set[x] != x {
			set[x] = set[set[x]]
			x = set[x]
		}
		return x
	}
	routes := make([]route, m) // by position in ts
	joined := make([]bool, m)  // joined[i]: i and i+1 are
	for _, l := range links {
		if ra, rb := find(l.a), find(l.b); ra != rb {
			set[ra] = rb
			if l.b == m {
				routes[order[l.a]] = direct[l.a]
			} else {
				joined[l.a] = true
			}
		}
	}
	paths := make([]route, m) // all the steps from the null graph to i
	for i, oi := range order {
		if routes[oi] == nil {
			continue
		}
		paths[i] = direct[i]
		for j := i; j > 0 && joined[j-1]; j-- {
			paths[j-1] = append(slices.Clip(paths[j]), undone(hops[j-1])...)
		}
		for j := i; j < m-1 && joined[j]; j++ {
			paths[j+1] = append(slices.Clip(paths[j]), hops[j]...)
		}
	}
	tree := &planNode{}
	for i, oi := range order {
		tree.insert(paths[i], oi)
		if routes[oi] != nil {
			dg.planExecs.Add(1)
		}
	}
	return tree, routes, nil
}

// graphRun applies steps to graphs under construction in the pool under one
// fetch spec, for one call. It keeps the stored eventlists it has fetched and
// the recent chunks it has decoded: a list can stand in several steps of a
// plan, clipped differently (a delta cannot: every node of the skeleton is
// reached by one path of the shortest-path tree).
type graphRun struct {
	dg     *DeltaGraph
	spec   fetchSpec
	lists  map[*skelEdge]graph.EventList
	recent []graph.EventList // the recent chunks decoded so far (recentList.events)
	// The options the graphs are retrieved with, whether a graph stays a
	// dependent of the graph its route starts from, and every graph under
	// construction begun so far.
	attrs     graph.AttrOptions
	dependent bool
	begun     []*graphpool.Build
}

// events returns an eventlist step's events, oldest first.
func (r *graphRun) events(st step) (graph.EventList, error) {
	if st.kind == applyRecent {
		l := &r.dg.recent
		if r.recent == nil {
			r.recent = make([]graph.EventList, len(l.chunks)+1)
		}
		return l.events(l.search(st.lo), l.search(st.hi), r.recent)
	}
	evs, ok := r.lists[st.edge]
	if !ok {
		var err error
		if evs, err = r.dg.fetchEvents(st.edge, r.spec); err != nil {
			return nil, err
		}
		if r.lists == nil {
			r.lists = make(map[*skelEdge]graph.EventList)
		}
		r.lists[st.edge] = evs
	}
	return evs[evs.SearchTime(st.lo):evs.SearchTime(st.hi)], nil
}

// pinned returns the pool graph a fromPinned step starts from: the graph a
// materialized or pending node holds, NoDependency for the empty anchor leaf,
// which has none.
func (dg *DeltaGraph) pinned(st step) (graphpool.GraphID, error) {
	if id, ok := dg.matGraphs[st.node]; ok {
		return id, nil
	}
	if c := dg.pendingNode(st.node); c != nil {
		return c.graph.ID(), nil
	}
	if st.node == dg.skel.leaves[0] {
		return graphpool.NoDependency, nil
	}
	return 0, fmt.Errorf("deltagraph: node %d not materialized", st.node)
}

// begin begins a graph under construction in the pool, at from.
func (r *graphRun) begin(from graphpool.GraphID) (*graphpool.Build, error) {
	b, err := r.dg.pool.NewBuild(from, r.dependent, r.attrs)
	if err == nil {
		r.begun = append(r.begun, b)
	}
	return b, err
}

// fork is the pool's Fork for execute; nil, the null graph not begun yet,
// stays nil.
func (r *graphRun) fork(b *graphpool.Build) *graphpool.Build {
	if b == nil {
		return nil
	}
	b = b.Fork()
	r.begun = append(r.begun, b)
	return b
}

// build applies one step to b, a graph under construction (nil: the null
// graph, which the first step that writes begins). Fetching and decoding hold
// no pool lock; the step's bit writes do. Transient events change no graph.
func (r *graphRun) build(b *graphpool.Build, st step) (*graphpool.Build, error) {
	switch st.kind {
	case fromPinned:
		id, err := r.dg.pinned(st)
		if err != nil {
			return nil, err
		}
		return r.begin(id)
	case fromCurrent:
		return r.begin(graphpool.CurrentGraph)
	}
	if b == nil {
		var err error
		if b, err = r.begin(graphpool.NoDependency); err != nil {
			return nil, err
		}
	}
	if st.kind == applyDelta {
		parts, err := r.dg.fetchDelta(st.edge, r.spec)
		b.ApplyDelta(parts...)
		return b, err
	}
	evs, err := r.events(st)
	b.ApplyEvents(evs, st.back)
	return b, err
}

// buildLocked runs a plan in the pool and commits what it builds: a graph of
// the given kind for each position of the tree's outs, retrieved for the time
// at that position of ts, a dependent of the graph its route starts from if
// dependent is set, else explicit. If any step fails it gives up every graph
// it began.
func (dg *DeltaGraph) buildLocked(tree *planNode, ts []graph.Time, kind graphpool.GraphKind, opts graph.AttrOptions, dependent bool) ([]graphpool.GraphID, error) {
	run := graphRun{dg: dg, spec: specFor(opts), attrs: opts, dependent: dependent}
	builds := make([]*graphpool.Build, len(ts))
	if err := execute(tree, nil, run.fork, run.build, builds); err != nil {
		for _, b := range run.begun {
			b.Abort()
		}
		return nil, err
	}
	ids := make([]graphpool.GraphID, len(ts))
	for i, b := range builds {
		ids[i] = b.Commit(kind, ts[i])
	}
	return ids, nil
}

// GetSnapshot retrieves the graph as of time t with the requested
// attribute options (the paper's GetHistGraph returning a plain snapshot).
func (dg *DeltaGraph) GetSnapshot(t graph.Time, opts graph.AttrOptions) (*graph.Snapshot, error) {
	snaps, err := dg.GetSnapshots([]graph.Time{t}, opts)
	if err != nil {
		return nil, err
	}
	return snaps[0], nil
}

// PlanCost returns the planner's estimated cost for a singlepoint query;
// the experiment harness uses it to study weight distributions.
func (dg *DeltaGraph) PlanCost(t graph.Time, opts graph.AttrOptions) (int64, error) {
	if err := dg.rlockBuilt(); err != nil {
		return 0, err
	}
	defer dg.mu.RUnlock()
	p := planner{dg: dg, sel: selectorFor(opts, nil)}
	r, err := p.routeTo(t)
	return r.cost(), err
}

// GetSnapshots retrieves many snapshots with multi-query optimization
// (Section 4.4): snapshots close in time are derived from each other through
// eventlist segments instead of each paying a full root-to-leaf path, and
// those that do pay it share the part they have in common. Results are
// returned in the order of ts.
//
// Each graph is built in the pool and copied out, its structure alone for a
// read that wants no attribute, then released: a clean pass reclaims it, or
// alloc before it hands out a bit past 63. A single time is built as Retrieve
// builds it, so that a read near the head or a materialized node is a
// dependent graph that touches only its exceptions, and one at the head
// touches no element at all.
func (dg *DeltaGraph) GetSnapshots(ts []graph.Time, opts graph.AttrOptions) ([]*graph.Snapshot, error) {
	if err := dg.rlockBuilt(); err != nil {
		return nil, err
	}
	defer dg.mu.RUnlock()
	var ids []graphpool.GraphID
	var err error
	switch len(ts) {
	case 0:
		return nil, nil
	case 1:
		ids = []graphpool.GraphID{0}
		ids[0], err = dg.retrieveLocked(ts[0], opts)
	default:
		ids, err = dg.retrieveManyLocked(ts, opts)
	}
	if err != nil {
		return nil, err
	}
	snaps := make([]*graph.Snapshot, len(ids))
	for i, id := range ids {
		v, err := dg.pool.View(id)
		if err != nil {
			return nil, err
		}
		if opts.StructureOnly() {
			snaps[i] = v.Structure()
		} else {
			snaps[i] = v.Snapshot()
		}
		if err := dg.pool.Release(id); err != nil {
			return nil, err
		}
	}
	return snaps, nil
}

// IntervalResult is the answer to GetHistGraphInterval: the graph over all
// elements added during [Start, End), a graph in the pool that its caller
// releases, plus the transient events in that window (which no snapshot
// query returns, by definition).
type IntervalResult struct {
	Start, End graph.Time
	Graph      *graphpool.View
	Transients []graph.Event
}

// GetInterval retrieves all elements added during [ts, te) and the
// transient events that occurred in that window. The graph is built in the
// pool from the null graph: the adds and sets of the leaf level's events in
// the window (value removals included, deletes left out), each step's under
// one hold of the pool's write lock, with the values opts does not ask for
// kept out by the build (Build.ApplyAdds).
func (dg *DeltaGraph) GetInterval(ts, te graph.Time, opts graph.AttrOptions) (*IntervalResult, error) {
	if te <= ts {
		return nil, fmt.Errorf("deltagraph: empty interval [%d, %d)", ts, te)
	}
	if err := dg.rlockBuilt(); err != nil {
		return nil, err
	}
	defer dg.mu.RUnlock()
	// [ts, te) is (ts-1, te-1]: the leaf level between those two times.
	from := ts - 1
	if ts == math.MinInt64 {
		from = ts
	}
	steps, err := dg.leafSteps(from, te-1, selectorFor(opts, nil))
	if err != nil {
		return nil, err
	}
	b, _ := dg.pool.NewBuild(graphpool.NoDependency, false, opts) // the null graph depends on no graph that could be gone
	run := graphRun{dg: dg, spec: specFor(opts)}
	run.spec.transient = true
	res := &IntervalResult{Start: ts, End: te}
	for _, st := range steps {
		evs, err := run.events(st)
		if err != nil {
			b.Abort()
			return nil, err
		}
		for _, ev := range evs {
			if ev.Type.IsTransient() {
				res.Transients = append(res.Transients, ev)
			}
		}
		b.ApplyAdds(evs)
	}
	res.Graph, _ = dg.pool.View(b.Commit(graphpool.KindHistorical, ts)) // active: just committed
	return res, nil
}

// TimeExpr is a Boolean expression over the timepoints of a
// TimeExpression query; Var(i) refers to the i-th timepoint.
type TimeExpr interface {
	Eval(member []bool) bool
}

// Var selects membership at timepoint i.
type Var int

// Eval implements TimeExpr.
func (v Var) Eval(member []bool) bool { return member[int(v)] }

// Not negates a TimeExpr.
type Not struct{ E TimeExpr }

// Eval implements TimeExpr.
func (n Not) Eval(member []bool) bool { return !n.E.Eval(member) }

// And is the conjunction of TimeExprs.
type And []TimeExpr

// Eval implements TimeExpr.
func (a And) Eval(member []bool) bool {
	for _, e := range a {
		if !e.Eval(member) {
			return false
		}
	}
	return true
}

// Or is the disjunction of TimeExprs.
type Or []TimeExpr

// Eval implements TimeExpr.
func (o Or) Eval(member []bool) bool {
	for _, e := range o {
		if e.Eval(member) {
			return true
		}
	}
	return false
}

// TimeExpression is a multinomial Boolean expression over k timepoints
// (e.g. t1 ∧ ¬t2: valid at t1 but not at t2).
type TimeExpression struct {
	Times []graph.Time
	Expr  TimeExpr
}

// checkExpr rejects an expression with a nil operand or a Var outside
// [0, k), which would fail its Eval halfway through a walk.
func checkExpr(e TimeExpr, k int) error {
	switch e := e.(type) {
	case nil:
		return fmt.Errorf("deltagraph: nil operand in a TimeExpression")
	case Var:
		if e < 0 || int(e) >= k {
			return fmt.Errorf("deltagraph: TimeExpression variable %d outside [0, %d)", e, k)
		}
	case Not:
		return checkExpr(e.E, k)
	case And:
		return checkExpr(Or(e), k) // the same operands
	case Or:
		for _, o := range e {
			if err := checkExpr(o, k); err != nil {
				return err
			}
		}
	}
	return nil
}

// exprRule is a TimeExpr as a rule on the pool's walk over the graphs at its
// times (delta.Differential). An element is in the graph it makes when the
// expression holds over which of the graphs hold it, and so is an attribute
// value, whose value is part of its identity. The rule is not element-wise,
// so the walk visits only what some graph holds.
type exprRule struct {
	expr   TimeExpr
	member []bool // one for each time
}

func (exprRule) Name() string      { return "expression" }
func (exprRule) Elementwise() bool { return false }

// Member implements delta.Differential: the element as the first graph that
// holds it holds it.
func (r exprRule) Member(_ graph.ElementKind, _ int64, kids []int32) int32 {
	for i, k := range kids {
		r.member[i] = k != delta.Absent
	}
	if i := slices.Index(r.member, true); i >= 0 && r.expr.Eval(r.member) {
		return kids[i]
	}
	return delta.Absent
}

// Value implements delta.Differential: of the values the expression holds
// over, the one whose first holder comes latest among the times.
func (r exprRule) Value(_ graph.ElementKind, _ int64, _ string, _, vals []int32) int32 {
	v := delta.Absent
	for i, val := range vals {
		for j, other := range vals {
			r.member[j] = other == val
		}
		if val != delta.Absent && slices.Index(vals, val) == i && r.expr.Eval(r.member) {
			v = val
		}
	}
	return v
}

// RetrieveExpression loads into the pool the hypothetical graph whose
// elements satisfy the TimeExpression and returns its graph ID: the graphs at
// its times are built as RetrieveMany builds them and evaluated into one in
// one walk of the pool, which lets go of them (graphpool.Pool.Evaluate).
func (dg *DeltaGraph) RetrieveExpression(tex TimeExpression, opts graph.AttrOptions) (graphpool.GraphID, error) {
	if len(tex.Times) == 0 {
		return 0, fmt.Errorf("deltagraph: empty TimeExpression")
	}
	if err := checkExpr(tex.Expr, len(tex.Times)); err != nil {
		return 0, err
	}
	ids, err := dg.RetrieveMany(tex.Times, opts)
	if err != nil {
		return 0, err
	}
	return dg.pool.Evaluate(ids, exprRule{tex.Expr, make([]bool, len(ids))}, opts)
}

// Retrieve loads the snapshot at t into the GraphPool and returns its
// graph ID. When the route starts at the current graph or at a materialized
// node that is not pending and the applied records are a small fraction of
// the base size, the snapshot is overlaid as a dependent graph — the paper's
// bit-pair optimization. A pending node's graph is let go of when the node
// gets a parent, so no graph depends on it.
func (dg *DeltaGraph) Retrieve(t graph.Time, opts graph.AttrOptions) (graphpool.GraphID, error) {
	if err := dg.rlockBuilt(); err != nil {
		return 0, err
	}
	// Held through the commit: a dependent of the current graph is registered
	// against the current graph it was built on.
	defer dg.mu.RUnlock()
	return dg.retrieveLocked(t, opts)
}

// retrieveLocked is Retrieve under the read lock.
func (dg *DeltaGraph) retrieveLocked(t graph.Time, opts graph.AttrOptions) (graphpool.GraphID, error) {
	if t >= dg.lastTime {
		// The head (routeTo) is the current graph as it stands: a dependent of
		// it with no exceptions, which touches no element.
		dg.planExecs.Add(1)
		b, err := dg.pool.NewBuild(graphpool.CurrentGraph, true, opts)
		if err != nil {
			return 0, err
		}
		return b.Commit(graphpool.KindHistorical, t), nil
	}
	tree, routes, err := dg.planLocked([]graph.Time{t}, selectorFor(opts, nil))
	if err != nil {
		return 0, err
	}
	// Dependent-overlay decision from the route (Section 6).
	r, baseSize := routes[0], 0
	switch r[0].kind {
	case fromCurrent:
		baseSize = dg.curSize
	case fromPinned:
		if _, ok := dg.matGraphs[r[0].node]; ok && dg.pendingNode(r[0].node) == nil {
			baseSize = dg.skel.nodes[r[0].node].size
		}
	}
	dependent := baseSize > 0 && float64(r.records()) <= dg.opts.DependentMaxRatio*float64(baseSize)
	ids, err := dg.buildLocked(tree, []graph.Time{t}, graphpool.KindHistorical, opts, dependent)
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// RetrieveMany loads many snapshots into the pool using multipoint
// retrieval, returning graph IDs in the order of ts. Every graph is overlaid
// explicitly.
func (dg *DeltaGraph) RetrieveMany(ts []graph.Time, opts graph.AttrOptions) ([]graphpool.GraphID, error) {
	if len(ts) == 0 {
		return nil, nil
	}
	if err := dg.rlockBuilt(); err != nil {
		return nil, err
	}
	defer dg.mu.RUnlock()
	return dg.retrieveManyLocked(ts, opts)
}

// retrieveManyLocked is RetrieveMany under the read lock.
func (dg *DeltaGraph) retrieveManyLocked(ts []graph.Time, opts graph.AttrOptions) ([]graphpool.GraphID, error) {
	tree, _, err := dg.planLocked(ts, selectorFor(opts, nil))
	if err != nil {
		return nil, err
	}
	return dg.buildLocked(tree, ts, graphpool.KindHistorical, opts, false)
}
