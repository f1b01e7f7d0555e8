package deltagraph

import (
	"fmt"
	"math"
	"sort"

	"historygraph/internal/delta"
	"historygraph/internal/graph"
	"historygraph/internal/graphpool"
)

// This file implements snapshot retrieval: singlepoint queries (Section
// 4.3, Dijkstra over the skeleton), multipoint queries (Section 4.4,
// Steiner-tree 2-approximation), interval queries, TimeExpression queries,
// and retrieval into the GraphPool with the dependent-graph optimization.

const bytesPerRecentEvent = 24 // planning estimate for in-memory events

// queryPlan describes how to construct the snapshot at one timepoint.
type queryPlan struct {
	// startCurrent means: begin from a copy of the in-memory current
	// graph and walk backward through the recent eventlist.
	startCurrent bool
	hops         []planHop
	// Range applied after the hops (and after startCurrent): events in
	// (rangeFrom, rangeTo] forward, or (rangeTo, rangeFrom] backward.
	rangeFrom, rangeTo graph.Time
	cost               int64
	// base for the dependent-graph optimization: the materialized
	// skeleton node the plan starts from, if any.
	baseNode *skelNode
	// appliedRecords counts delta/eventlist records the plan expects to
	// apply (decides dependent overlays).
	appliedRecords int
}

// planLocked computes the minimum-cost plan for a singlepoint query.
// Caller holds at least the read lock.
func (dg *DeltaGraph) planLocked(t graph.Time, sel weightSelector) (queryPlan, error) {
	if t >= dg.lastTime {
		// The head: the current graph as it stands, nothing to undo.
		return queryPlan{startCurrent: true, rangeFrom: dg.lastTime, rangeTo: t}, nil
	}
	lastLeaf := dg.skel.leaves[len(dg.skel.leaves)-1]
	lastLeafTime := dg.skel.nodes[lastLeaf].at

	dist, prev := dg.skel.shortestPaths(dg.skel.superRoot, sel)

	if t >= lastLeafTime {
		// Tail region: after the last leaf only the in-memory recent
		// eventlist exists. Choose between walking forward from the
		// last leaf and walking backward from the current graph.
		fwdCount := dg.recent.SearchTime(t)
		bwdCount := len(dg.recent) - fwdCount
		fwdCost := dist[lastLeaf] + int64(fwdCount)*bytesPerRecentEvent
		bwdCost := int64(bwdCount) * bytesPerRecentEvent
		if dist[lastLeaf] == math.MaxInt64 || bwdCost <= fwdCost {
			return queryPlan{
				startCurrent: true,
				rangeFrom:    dg.lastTime, rangeTo: t,
				cost:           bwdCost,
				appliedRecords: bwdCount,
			}, nil
		}
		hops := dg.skel.pathTo(lastLeaf, prev)
		return queryPlan{
			hops:      hops,
			rangeFrom: lastLeafTime, rangeTo: t,
			cost:           fwdCost,
			baseNode:       dg.planBase(hops),
			appliedRecords: dg.planRecords(hops) + fwdCount,
		}, nil
	}

	li := dg.skel.locate(t)
	if li < 0 {
		return queryPlan{}, fmt.Errorf("deltagraph: no data at time %d", t)
	}
	leaf := dg.skel.leaves[li]
	leafTime := dg.skel.nodes[leaf].at
	if dist[leaf] == math.MaxInt64 {
		return queryPlan{}, fmt.Errorf("deltagraph: leaf unreachable (index not sealed?)")
	}
	if leafTime == t {
		hops := dg.skel.pathTo(leaf, prev)
		return queryPlan{hops: hops, rangeFrom: t, rangeTo: t, cost: dist[leaf],
			baseNode: dg.planBase(hops), appliedRecords: dg.planRecords(hops)}, nil
	}
	// Between leaf li and li+1: enter the eventlist forward from the left
	// leaf or backward from the right leaf, whichever is cheaper.
	next := dg.skel.leaves[li+1]
	nextTime := dg.skel.nodes[next].at
	evEdge := dg.eventEdge(li)
	frac := float64(t-leafTime) / float64(nextTime-leafTime)
	evW := sel.weight(evEdge)
	fwdCost := dist[leaf] + int64(frac*float64(evW))
	bwdCost := dist[next] + int64((1-frac)*float64(evW))
	if fwdCost <= bwdCost || dist[next] == math.MaxInt64 {
		hops := dg.skel.pathTo(leaf, prev)
		return queryPlan{hops: hops, rangeFrom: leafTime, rangeTo: t, cost: fwdCost,
			baseNode: dg.planBase(hops), appliedRecords: dg.planRecords(hops) + int(frac*float64(evEdge.counts))}, nil
	}
	hops := dg.skel.pathTo(next, prev)
	return queryPlan{hops: hops, rangeFrom: nextTime, rangeTo: t, cost: bwdCost,
		baseNode: dg.planBase(hops), appliedRecords: dg.planRecords(hops) + int((1-frac)*float64(evEdge.counts))}, nil
}

// planBase returns the materialized node a plan starts from, if its first
// hop is a materialization edge.
func (dg *DeltaGraph) planBase(hops []planHop) *skelNode {
	if len(hops) > 0 && hops[0].edge.kind == kindMat {
		return dg.skel.nodes[hops[0].edge.to]
	}
	return nil
}

// planRecords sums the record counts along a plan's hops.
func (dg *DeltaGraph) planRecords(hops []planHop) int {
	n := 0
	for _, h := range hops {
		n += h.edge.counts
	}
	return n
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

// executePlan materializes the plan into a snapshot.
func (dg *DeltaGraph) executePlan(p queryPlan, spec fetchSpec) (*graph.Snapshot, error) {
	dg.planExecs.Add(1)
	var s *graph.Snapshot
	if p.startCurrent {
		s = dg.current.Clone()
	} else {
		s = graph.NewSnapshot()
	}
	for _, hop := range p.hops {
		if err := dg.applyHop(s, hop, spec); err != nil {
			return nil, err
		}
	}
	if p.rangeFrom != p.rangeTo {
		if err := dg.applyRangeLocked(s, p.rangeFrom, p.rangeTo, spec); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// applyHop applies one skeleton edge to the snapshot under construction.
func (dg *DeltaGraph) applyHop(s *graph.Snapshot, hop planHop, spec fetchSpec) error {
	e := hop.edge
	switch e.kind {
	case kindMat:
		node := dg.skel.nodes[e.to]
		if node.matSnapshot == nil {
			return fmt.Errorf("deltagraph: node %d not materialized", e.to)
		}
		*s = *node.matSnapshot.Clone()
	case kindDelta:
		d, err := dg.fetchDelta(e, spec)
		if err != nil {
			return err
		}
		d.Apply(s)
	case kindEventFwd:
		evs, err := dg.fetchEvents(e, spec)
		if err != nil {
			return err
		}
		s.ApplyAll(evs)
	case kindEventBwd:
		evs, err := dg.fetchEvents(e, spec)
		if err != nil {
			return err
		}
		s.UnapplyAll(evs)
	}
	return nil
}

// applyRangeLocked advances the snapshot s from time `from` to time `to`
// by applying leaf-eventlist segments (and the in-memory recent eventlist)
// forward or backward. Transient events never modify s.
func (dg *DeltaGraph) applyRangeLocked(s *graph.Snapshot, from, to graph.Time, spec fetchSpec) error {
	if from == to {
		return nil
	}
	lastLeafTime := dg.skel.nodes[dg.skel.leaves[len(dg.skel.leaves)-1]].at
	if to > from {
		// Forward over eventlists overlapping (from, to].
		li := dg.skel.locate(from)
		for li < len(dg.skel.leaves)-1 {
			nextTime := dg.skel.nodes[dg.skel.leaves[li+1]].at
			if dg.skel.nodes[dg.skel.leaves[li]].at > to {
				break
			}
			e := dg.eventEdge(li)
			if e == nil {
				return fmt.Errorf("deltagraph: missing eventlist %d", li)
			}
			evs, err := dg.fetchEvents(e, spec)
			if err != nil {
				return err
			}
			lo := evs.SearchTime(from)
			hi := evs.SearchTime(to)
			s.ApplyAll(evs[lo:hi])
			if nextTime >= to {
				return nil
			}
			li++
		}
		// Tail: recent in-memory events.
		if to > lastLeafTime {
			lo := dg.recent.SearchTime(from)
			hi := dg.recent.SearchTime(to)
			for _, ev := range dg.recent[lo:hi] {
				if dg.filterSpec(ev, spec) {
					s.Apply(ev)
				}
			}
		}
		return nil
	}
	// Backward: un-apply events in (to, from], newest first.
	if from > lastLeafTime {
		lo := dg.recent.SearchTime(to)
		hi := dg.recent.SearchTime(from)
		seg := dg.recent[lo:hi]
		for i := len(seg) - 1; i >= 0; i-- {
			if dg.filterSpec(seg[i], spec) {
				s.Unapply(seg[i])
			}
		}
		if to >= lastLeafTime {
			return nil
		}
		from = lastLeafTime
	}
	li := dg.skel.locate(from)
	if dg.skel.nodes[dg.skel.leaves[li]].at == from {
		li--
	}
	for li >= 0 {
		leafTime := dg.skel.nodes[dg.skel.leaves[li]].at
		e := dg.eventEdge(li)
		if e == nil {
			return fmt.Errorf("deltagraph: missing eventlist %d", li)
		}
		evs, err := dg.fetchEvents(e, spec)
		if err != nil {
			return err
		}
		lo := evs.SearchTime(to)
		hi := evs.SearchTime(from)
		seg := evs[lo:hi]
		for i := len(seg) - 1; i >= 0; i-- {
			s.Unapply(seg[i])
		}
		if leafTime <= to {
			return nil
		}
		li--
	}
	return nil
}

// filterSpec applies the columnar filter to in-memory events (on-disk
// events are filtered by fetching only the needed columns).
func (dg *DeltaGraph) filterSpec(ev graph.Event, spec fetchSpec) bool {
	switch eventColumn(ev) {
	case 1:
		return spec.nodeAttr
	case 2:
		return spec.edgeAttr
	case 3:
		return spec.transient
	default:
		return true
	}
}

// GetSnapshot retrieves the graph as of time t with the requested
// attribute options (the paper's GetHistGraph returning a plain snapshot).
func (dg *DeltaGraph) GetSnapshot(t graph.Time, opts graph.AttrOptions) (*graph.Snapshot, error) {
	if err := dg.rlockAt(t); err != nil {
		return nil, err
	}
	defer dg.mu.RUnlock()
	s, _, err := dg.getSnapshotLocked(t, opts)
	return s, err
}

func (dg *DeltaGraph) getSnapshotLocked(t graph.Time, opts graph.AttrOptions) (*graph.Snapshot, queryPlan, error) {
	sel := selectorFor(opts, nil)
	p, err := dg.planLocked(t, sel)
	if err != nil {
		return nil, p, err
	}
	s, err := dg.executePlan(p, specFor(opts))
	if err != nil {
		return nil, p, err
	}
	return opts.FilterSnapshot(s), p, nil
}

// PlanCost returns the planner's estimated cost for a singlepoint query;
// the experiment harness uses it to study weight distributions.
func (dg *DeltaGraph) PlanCost(t graph.Time, opts graph.AttrOptions) (int64, error) {
	if err := dg.rlockAt(t); err != nil {
		return 0, err
	}
	defer dg.mu.RUnlock()
	p, err := dg.planLocked(t, selectorFor(opts, nil))
	return p.cost, err
}

// GetSnapshots retrieves many snapshots with multi-query optimization
// (Section 4.4): terminals are connected by a Steiner tree over the
// skeleton, so snapshots close in time are derived from each other through
// eventlist segments instead of each paying a full root-to-leaf path.
// Results are returned in the order of ts.
func (dg *DeltaGraph) GetSnapshots(ts []graph.Time, opts graph.AttrOptions) ([]*graph.Snapshot, error) {
	if err := dg.rlockAt(ts...); err != nil {
		return nil, err
	}
	defer dg.mu.RUnlock()
	return dg.getSnapshotsLocked(ts, opts)
}

func (dg *DeltaGraph) getSnapshotsLocked(ts []graph.Time, opts graph.AttrOptions) ([]*graph.Snapshot, error) {
	if len(ts) == 0 {
		return nil, nil
	}
	if len(ts) == 1 {
		s, _, err := dg.getSnapshotLocked(ts[0], opts)
		return []*graph.Snapshot{s}, err
	}
	sel := selectorFor(opts, nil)
	spec := specFor(opts)

	// Sort terminals by time, remembering the output order.
	order := make([]int, len(ts))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return ts[order[a]] < ts[order[b]] })

	// Metric: a_i = cost from super-root, b_i = cost from terminal i to
	// terminal i+1 along the leaf level.
	m := len(ts)
	rootCost := make([]int64, m)
	plans := make([]queryPlan, m)
	for i, oi := range order {
		p, err := dg.planLocked(ts[oi], sel)
		if err != nil {
			return nil, err
		}
		plans[i] = p
		rootCost[i] = p.cost
	}
	stepCost := make([]int64, m-1)
	for i := 0; i+1 < m; i++ {
		stepCost[i] = dg.rangeCostLocked(ts[order[i]], ts[order[i+1]], sel)
	}

	// Kruskal over the star+path terminal graph: edges (root, i) with
	// cost a_i and (i, i+1) with cost b_i.
	type medge struct {
		cost int64
		a, b int // b == -1 means the super-root
	}
	edges := make([]medge, 0, 2*m)
	for i := 0; i < m; i++ {
		edges = append(edges, medge{rootCost[i], i, -1})
	}
	for i := 0; i+1 < m; i++ {
		edges = append(edges, medge{stepCost[i], i, i + 1})
	}
	sort.Slice(edges, func(a, b int) bool { return edges[a].cost < edges[b].cost })
	parent := make([]int, m+1) // m is the super-root in union-find terms
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	fromRoot := make([]bool, m)
	nextOf := make(map[int][]int) // terminal -> neighbors in tree (by index)
	for _, e := range edges {
		bIdx := e.b
		if bIdx == -1 {
			bIdx = m
		}
		ra, rb := find(e.a), find(bIdx)
		if ra == rb {
			continue
		}
		parent[ra] = rb
		if e.b == -1 {
			fromRoot[e.a] = true
		} else {
			nextOf[e.a] = append(nextOf[e.a], e.b)
			nextOf[e.b] = append(nextOf[e.b], e.a)
		}
	}

	// Realize the tree: BFS from every root-attached terminal, deriving
	// neighbors by eventlist ranges.
	snaps := make([]*graph.Snapshot, m)
	var queue []int
	for i := 0; i < m; i++ {
		if fromRoot[i] {
			s, err := dg.executePlan(plans[i], spec)
			if err != nil {
				return nil, err
			}
			snaps[i] = s
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		for _, j := range nextOf[i] {
			if snaps[j] != nil {
				continue
			}
			s := snaps[i].Clone()
			if err := dg.applyRangeLocked(s, ts[order[i]], ts[order[j]], spec); err != nil {
				return nil, err
			}
			snaps[j] = s
			queue = append(queue, j)
		}
	}
	out := make([]*graph.Snapshot, len(ts))
	for i, oi := range order {
		if snaps[i] == nil {
			return nil, fmt.Errorf("deltagraph: internal: terminal %d not realized", i)
		}
		out[oi] = opts.FilterSnapshot(snaps[i])
	}
	return out, nil
}

// rangeCostLocked estimates the bytes needed to move a snapshot from time
// a to time b along the leaf level.
func (dg *DeltaGraph) rangeCostLocked(a, b graph.Time, sel weightSelector) int64 {
	if a > b {
		a, b = b, a
	}
	var total int64
	la, lb := dg.skel.locate(a), dg.skel.locate(b)
	for i := la; i <= lb && i < len(dg.skel.leaves)-1; i++ {
		e := dg.eventEdge(i)
		if e == nil {
			continue
		}
		w := sel.weight(e)
		leafT := dg.skel.nodes[dg.skel.leaves[i]].at
		nextT := dg.skel.nodes[dg.skel.leaves[i+1]].at
		span := float64(nextT - leafT)
		lo, hi := leafT, nextT
		if a > lo {
			lo = a
		}
		if b < hi {
			hi = b
		}
		if hi <= lo || span <= 0 {
			continue
		}
		total += int64(float64(w) * float64(hi-lo) / span)
	}
	// Recent tail.
	lastLeafTime := dg.skel.nodes[dg.skel.leaves[len(dg.skel.leaves)-1]].at
	if b > lastLeafTime {
		lo := dg.recent.SearchTime(max(a, lastLeafTime))
		hi := dg.recent.SearchTime(b)
		total += int64(hi-lo) * bytesPerRecentEvent
	}
	return total
}

// IntervalResult is the answer to GetHistGraphInterval: the graph over all
// elements added during [Start, End), plus the transient events in that
// window (which no snapshot query returns, by definition).
type IntervalResult struct {
	Start, End graph.Time
	Graph      *graph.Snapshot
	Transients []graph.Event
}

// GetInterval retrieves all elements added during [ts, te) and the
// transient events that occurred in that window.
func (dg *DeltaGraph) GetInterval(ts, te graph.Time, opts graph.AttrOptions) (*IntervalResult, error) {
	if te <= ts {
		return nil, fmt.Errorf("deltagraph: empty interval [%d, %d)", ts, te)
	}
	dg.mu.RLock()
	defer dg.mu.RUnlock()
	spec := specFor(opts)
	spec.transient = true
	res := &IntervalResult{Start: ts, End: te, Graph: graph.NewSnapshot()}
	collect := func(evs graph.EventList) {
		for _, ev := range evs {
			if ev.At < ts || ev.At >= te {
				continue
			}
			switch ev.Type {
			case graph.TransientEdge, graph.TransientNode:
				res.Transients = append(res.Transients, ev)
			case graph.AddNode, graph.AddEdge, graph.SetNodeAttr, graph.SetEdgeAttr:
				if opts.FilterEvent(ev) {
					res.Graph.Apply(ev)
				}
			}
		}
	}
	// Eventlist i covers (leafTime_i, leafTime_i+1]; events at exactly ts
	// can sit in the eventlist ending at ts, so start one step earlier.
	li := dg.skel.locate(ts - 1)
	if li < 0 {
		li = 0
	}
	for i := li; i < len(dg.skel.leaves)-1; i++ {
		if dg.skel.nodes[dg.skel.leaves[i]].at >= te {
			break
		}
		e := dg.eventEdge(i)
		if e == nil {
			continue
		}
		evs, err := dg.fetchEvents(e, spec)
		if err != nil {
			return nil, err
		}
		collect(evs)
	}
	collect(dg.recent)
	opts.FilterSnapshot(res.Graph)
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

// GetExpression retrieves the hypothetical graph whose elements satisfy
// the TimeExpression: the snapshots at every timepoint are fetched with
// multipoint retrieval and combined element-wise. Attribute entries are
// treated as elements (identity includes the value).
func (dg *DeltaGraph) GetExpression(tex TimeExpression, opts graph.AttrOptions) (*graph.Snapshot, error) {
	if len(tex.Times) == 0 || tex.Expr == nil {
		return nil, fmt.Errorf("deltagraph: empty TimeExpression")
	}
	if err := dg.rlockAt(tex.Times...); err != nil {
		return nil, err
	}
	snaps, err := dg.getSnapshotsLocked(tex.Times, opts)
	dg.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	out := graph.NewSnapshot()
	member := make([]bool, len(snaps))
	// Nodes.
	seenN := make(map[graph.NodeID]struct{})
	for _, s := range snaps {
		for n := range s.Nodes {
			if _, ok := seenN[n]; ok {
				continue
			}
			seenN[n] = struct{}{}
			for i, si := range snaps {
				_, member[i] = si.Nodes[n]
			}
			if tex.Expr.Eval(member) {
				out.Nodes[n] = struct{}{}
			}
		}
	}
	// Edges.
	seenE := make(map[graph.EdgeID]struct{})
	for _, s := range snaps {
		for e, info := range s.Edges {
			if _, ok := seenE[e]; ok {
				continue
			}
			seenE[e] = struct{}{}
			for i, si := range snaps {
				_, member[i] = si.Edges[e]
			}
			if tex.Expr.Eval(member) {
				out.Edges[e] = info
			}
		}
	}
	// Attribute entries: identity is (id, attr, value).
	type nkey struct {
		n    graph.NodeID
		k, v string
	}
	seenNA := make(map[nkey]struct{})
	for _, s := range snaps {
		for n, attrs := range s.NodeAttrs {
			for k, v := range attrs {
				key := nkey{n, k, v}
				if _, ok := seenNA[key]; ok {
					continue
				}
				seenNA[key] = struct{}{}
				for i, si := range snaps {
					member[i] = si.NodeAttrs[n][k] == v
				}
				if tex.Expr.Eval(member) {
					if out.NodeAttrs[n] == nil {
						out.NodeAttrs[n] = make(map[string]string)
					}
					out.NodeAttrs[n][k] = v
				}
			}
		}
	}
	type ekey struct {
		e    graph.EdgeID
		k, v string
	}
	seenEA := make(map[ekey]struct{})
	for _, s := range snaps {
		for e, attrs := range s.EdgeAttrs {
			for k, v := range attrs {
				key := ekey{e, k, v}
				if _, ok := seenEA[key]; ok {
					continue
				}
				seenEA[key] = struct{}{}
				for i, si := range snaps {
					member[i] = si.EdgeAttrs[e][k] == v
				}
				if tex.Expr.Eval(member) {
					if out.EdgeAttrs[e] == nil {
						out.EdgeAttrs[e] = make(map[string]string)
					}
					out.EdgeAttrs[e][k] = v
				}
			}
		}
	}
	return out, nil
}

// Retrieve loads the snapshot at t into the GraphPool and returns its
// graph ID. When the plan starts at a materialized node (or the current
// graph) and the applied records are a small fraction of the base size,
// the snapshot is overlaid as a dependent graph — the paper's bit-pair
// optimization.
func (dg *DeltaGraph) Retrieve(t graph.Time, opts graph.AttrOptions) (graphpool.GraphID, error) {
	if dg.pool == nil {
		return 0, fmt.Errorf("deltagraph: no GraphPool attached")
	}
	if err := dg.rlockAt(t); err != nil {
		return 0, err
	}
	s, p, err := dg.getSnapshotLocked(t, opts)
	if err != nil {
		dg.mu.RUnlock()
		return 0, err
	}
	// Dependent-overlay decision from the plan (Section 6).
	var (
		baseSnap *graph.Snapshot
		baseID   graphpool.GraphID
		haveBase bool
	)
	switch {
	case p.startCurrent:
		baseSnap, baseID, haveBase = dg.current, graphpool.CurrentGraph, true
	case p.baseNode != nil:
		if id, ok := dg.matGraphs[p.baseNode.id]; ok {
			baseSnap, baseID, haveBase = p.baseNode.matSnapshot, id, true
		}
	}
	if haveBase {
		baseSize := baseSnap.Size()
		if baseSize > 0 && float64(p.appliedRecords) <= dg.opts.DependentMaxRatio*float64(baseSize) {
			exc := delta.Compute(s, opts.FilterSnapshot(baseSnap.Clone()))
			dg.mu.RUnlock()
			return dg.pool.OverlayDependent(baseID, exc, t, opts)
		}
	}
	dg.mu.RUnlock()
	return dg.pool.OverlaySnapshot(s, t), nil
}

// RetrieveMany loads many snapshots into the pool using multipoint
// retrieval, returning graph IDs in the order of ts.
func (dg *DeltaGraph) RetrieveMany(ts []graph.Time, opts graph.AttrOptions) ([]graphpool.GraphID, error) {
	if dg.pool == nil {
		return nil, fmt.Errorf("deltagraph: no GraphPool attached")
	}
	if err := dg.rlockAt(ts...); err != nil {
		return nil, err
	}
	snaps, err := dg.getSnapshotsLocked(ts, opts)
	dg.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	ids := make([]graphpool.GraphID, len(snaps))
	for i, s := range snaps {
		ids[i] = dg.pool.OverlaySnapshot(s, ts[i])
	}
	return ids, nil
}
