package deltagraph

import (
	"slices"
	"sync"
	"time"

	"historygraph/internal/delta"
	"historygraph/internal/graph"
	"historygraph/internal/graphpool"
	"historygraph/internal/kvstore"
)

// This file contains the index-construction machinery: leaf cuts and interior
// node creation (Section 4.6's single-pass bottom-up bulkload). Between full
// arity-k groups the index is kept queryable by its pending nodes, each an
// explicit graph in the pool (Section 6) that a read starts from as it starts
// from a materialized node (retrieve.go).
//
// A parent costs one walk of the pool and builds no map. The differential
// function decides each element of a parent from that element in its
// children (delta.Differential), so one walk over the pool's bits
// (graphpool.Pool.Combine) decides the parent where some child differs from
// the current graph, holds it as the current graph everywhere else — there
// the children equal the current graph, hence each other, hence the parent —
// and writes each child's delta records as it goes. No delta between
// them has a record where nothing differs, so the records are the very ones
// delta.Compute would find between the whole graphs, and once sorted they
// encode to the same bytes. A function that is not element-wise (Empty) is
// decided against the null graph instead.
//
// A cut holds no more bits at any moment than it does after it: a leaf that
// completes a group is read from the current graph and never gets a bit of
// its own, and a parent is written over one of its children, on that
// child's bit. Appends never touch a pending node: an explicit graph's bit
// does not follow bit 0.

// cutLeafLocked turns the recent eventlist into a new leaf: it creates the
// leaf skeleton node, queues the leaf-eventlist for the builder to store on
// the edges to and from the previous leaf, and bubbles complete arity-k groups
// upward.
func (dg *DeltaGraph) cutLeafLocked() error {
	if dg.recent.len() == 0 {
		return nil
	}
	defer func(start time.Time) { dg.cutTimes = append(dg.cutTimes, time.Since(start)) }(time.Now())
	events, err := dg.recent.all()
	if err == nil {
		err = dg.publishStoredLocked()
	}
	if err != nil {
		return err
	}
	leaf := dg.skel.addNode(&skelNode{level: 0, at: dg.lastTime, size: dg.curSize})
	prevLeaf := dg.skel.leaves[len(dg.skel.leaves)-1]
	dg.skel.leaves = append(dg.skel.leaves, leaf)

	evIndex := len(dg.skel.leaves) - 2 // eventlist ordinal between prevLeaf and leaf
	if evIndex == 0 {
		dg.firstTime = events[0].At
	}
	id, auxEvents := dg.nextDeltaID, dg.auxRecent
	dg.nextDeltaID++
	dg.build.enqueue(func() ([]*skelEdge, error) {
		sizes, err := dg.putEvents(id, events, auxEvents)
		if err != nil {
			return nil, err
		}
		return []*skelEdge{
			{from: prevLeaf, to: leaf, kind: kindEventFwd, deltaID: id, sizes: sizes, counts: len(events), evIndex: evIndex},
			{from: leaf, to: prevLeaf, kind: kindEventBwd, deltaID: id, sizes: sizes, counts: len(events), evIndex: evIndex},
		}, nil
	})

	// The leaf is the current graph. It is copied onto a bit of its own only
	// if it has to wait for siblings; one that completes a group is read where
	// it is.
	auxCopies := make([]AuxSnapshot, len(dg.auxCur))
	for i, a := range dg.auxCur {
		auxCopies[i] = a.clone()
	}
	c := pendingChild{node: leaf, size: dg.curSize, graph: dg.cur, aux: auxCopies}
	if len(dg.pending[0])+1 < dg.opts.Arity {
		c.graph = dg.commitLocked(graphpool.CurrentGraph, nil)
	}
	dg.pending[0] = append(dg.pending[0], c)
	dg.recent = newRecentList(dg.opts.LeafSize)
	dg.auxRecent = make([][]AuxEvent, len(dg.auxes))
	dg.pool.ClearRecent() // deleted elements are in the queued eventlist, which reads wait for
	dg.promoteLocked(0)
	return nil
}

// commitLocked enters a pending node's graph into the pool: the graph from
// (the current graph, or with graphpool.NoDependency the null graph) copied
// onto a bit of its own, with d, if any, applied to it. It returns the
// graph's view.
func (dg *DeltaGraph) commitLocked(from graphpool.GraphID, d *delta.Delta) *graphpool.View {
	b, err := dg.pool.NewBuild(from, false, allAttrOptions)
	if err != nil {
		panic(err) // from is the current graph or the null graph, which are always there
	}
	if d != nil {
		b.ApplyDelta(d)
	}
	v, err := dg.pool.View(b.Commit(graphpool.KindMaterialized, 0))
	if err != nil {
		panic(err) // just committed
	}
	return v
}

// promoteLocked creates a permanent parent whenever a level has a full
// arity-k group, recursively upward. The group is deleted from its level, not
// sliced off it: a slice cut down to nothing still points at its array.
func (dg *DeltaGraph) promoteLocked(level int) {
	for len(dg.pending) <= level+1 {
		dg.pending = append(dg.pending, nil)
	}
	for len(dg.pending[level]) >= dg.opts.Arity {
		group := dg.pending[level][:dg.opts.Arity]
		parent := dg.makeParentLocked(level, group)
		dg.pending[level] = slices.Delete(dg.pending[level], 0, dg.opts.Arity)
		dg.pending[level+1] = append(dg.pending[level+1], parent)
		level++
		for len(dg.pending) <= level+1 {
			dg.pending = append(dg.pending, nil)
		}
	}
}

// makeParentLocked builds one interior node: parent graph = f(children),
// with one delta edge to each child (Section 4.2), both made in one walk of
// the pool (graphpool.Pool.Combine). The children are let go of there,
// unless a materialization pins them: the parent is written over one of
// them, on its bit, and the others' bits are reclaimed at once, so what only
// they held leaves the pool then, not whenever a cleaner runs.
func (dg *DeltaGraph) makeParentLocked(level int, group []pendingChild) pendingChild {
	ids, spent := make([]graphpool.GraphID, len(group)), make([]bool, len(group))
	for i, c := range group {
		id, pinned := dg.matGraphs[c.node]
		ids[i], spent[i] = c.graph.ID(), c.graph != dg.cur && (!pinned || id != c.graph.ID())
	}
	made, err := dg.pool.Combine(ids, spent, dg.opts.Function)
	if err != nil {
		panic(err) // the index holds every pending node's graph, and none has a dependent (Retrieve)
	}
	parent := pendingChild{size: group[0].size + made.Grow, graph: made.Parent}
	parent.aux = make([]AuxSnapshot, len(dg.auxes))
	for i, aux := range dg.auxes {
		children := make([]AuxSnapshot, len(group))
		for j, c := range group {
			children[j] = c.aux[i]
		}
		parent.aux[i] = aux.AuxDF(children)
	}

	first := dg.skel.nodes[group[0].node]
	last := dg.skel.nodes[group[len(group)-1].node]
	node := &skelNode{
		level:   level + 1,
		at:      first.at,
		spanEnd: last.spanEnd,
		size:    parent.size,
	}
	if last.spanEnd == 0 {
		node.spanEnd = last.at
	}
	parent.node = dg.skel.addNode(node)
	// What is left, sorting and storing the delta to each child, reads the
	// walk's records, the aux snapshots and the node, none of which changes
	// again: it runs on the builder. group is a window on a pending level,
	// which moves under it, so the children's aux snapshots are copied out.
	kidAux, parentAux := make([][]AuxSnapshot, len(group)), parent.aux
	for i, c := range group {
		node.children, kidAux[i] = append(node.children, c.node), c.aux
	}
	firstID := dg.nextDeltaID
	dg.nextDeltaID += uint64(len(group))
	dg.build.enqueue(func() ([]*skelEdge, error) {
		edges := make([]*skelEdge, len(made.Deltas))
		for i, kid := range node.children {
			d := made.Deltas[i]
			d.SortStable()
			auxDeltas := make([]auxDelta, len(parentAux))
			for j := range auxDeltas {
				auxDeltas[j] = computeAuxDelta(kidAux[i][j], parentAux[j])
			}
			id := firstID + uint64(i)
			sizes, err := dg.putDelta(id, d, auxDeltas)
			if err != nil {
				return nil, err
			}
			edges[i] = &skelEdge{from: node.id, to: kid, kind: kindDelta, deltaID: id, sizes: sizes, counts: d.Len(), evIndex: -1}
		}
		return edges, nil
	})
	return parent
}

// --- payload storage -------------------------------------------------

// putCol writes one component of payload (p, id) and adds its size to
// sizes, which is indexed like kvstore.Component.
func putCol(store kvstore.Store, p int, id uint64, c kvstore.Component, buf []byte, sizes componentSizes) error {
	sizes[c] += int64(len(buf))
	return store.Put(kvstore.EncodeKey(p, id, c), buf)
}

// putCols writes the non-empty columns of one partition-local delta under
// (p, id); the structure column also when empty, if always is set.
func putCols(store kvstore.Store, p int, id uint64, d *delta.Delta, always bool, sizes componentSizes) error {
	if d.StructLen() > 0 || always {
		if err := putCol(store, p, id, kvstore.ComponentStruct, delta.EncodeStructCol(d), sizes); err != nil {
			return err
		}
	}
	if d.NodeAttrLen() > 0 {
		if err := putCol(store, p, id, kvstore.ComponentNodeAttr, delta.EncodeNodeAttrCol(d), sizes); err != nil {
			return err
		}
	}
	if d.EdgeAttrLen() > 0 {
		return putCol(store, p, id, kvstore.ComponentEdgeAttr, delta.EncodeEdgeAttrCol(d), sizes)
	}
	return nil
}

// putDelta writes a delta's columns (split across partitions) under id into
// the index store, and returns their per-component byte sizes.
func (dg *DeltaGraph) putDelta(id uint64, d *delta.Delta, auxDeltas []auxDelta) (componentSizes, error) {
	sizes := make(componentSizes, 4+len(dg.auxes))
	for p, part := range d.Split(dg.opts.Partitions) {
		if err := putCols(dg.store, p, id, part, dg.opts.Partitions == 1, sizes); err != nil {
			return nil, err
		}
	}
	// Aux columns are not node-partitioned (their keys are opaque): they
	// live in partition 0.
	for i, ad := range auxDeltas {
		if ad.empty() {
			continue
		}
		if err := putCol(dg.store, 0, id, kvstore.ComponentAuxBase+kvstore.Component(i), encodeAuxDelta(ad), sizes); err != nil {
			return nil, err
		}
	}
	return sizes, nil
}

// putEvents persists leaf-eventlist id, columnar: structure, node-attr,
// edge-attr and transient events are separate components, plus one aux
// eventlist per registered index.
func (dg *DeltaGraph) putEvents(id uint64, events graph.EventList, auxEvents [][]AuxEvent) (componentSizes, error) {
	sizes := make(componentSizes, 4+len(dg.auxes))
	// Split events by partition, then by column (indexed like
	// kvstore.Component). Each list is counted first and carved out of one
	// array at its exact size: an event is copied once, into its list.
	parts := dg.opts.Partitions
	counts := make([][4]int, parts)
	for _, ev := range events {
		counts[graph.PartitionOfEvent(ev, parts)][eventColumn(ev)]++
	}
	cols := make([][4]graph.EventList, parts)
	free := make(graph.EventList, len(events))
	for p := range cols {
		for c, n := range counts[p] {
			cols[p][c], free = free[:0:n], free[n:]
		}
	}
	for _, ev := range events {
		p, c := graph.PartitionOfEvent(ev, parts), eventColumn(ev)
		cols[p][c] = append(cols[p][c], ev)
	}
	for p := range cols {
		for c, col := range cols[p] {
			if len(col) == 0 && !(parts == 1 && c == 0) {
				continue
			}
			if err := putCol(dg.store, p, id, kvstore.Component(c), delta.EncodeEvents(col), sizes); err != nil {
				return nil, err
			}
		}
	}
	for i, evs := range auxEvents {
		if len(evs) == 0 {
			continue
		}
		if err := putCol(dg.store, 0, id, kvstore.ComponentAuxBase+kvstore.Component(i), encodeAuxEvents(evs), sizes); err != nil {
			return nil, err
		}
	}
	return sizes, nil
}

// eventColumn maps an event to its storage column, numbered like the
// kvstore.Component that holds it.
func eventColumn(ev graph.Event) int {
	switch ev.Type {
	case graph.SetNodeAttr:
		return 1
	case graph.SetEdgeAttr:
		return 2
	case graph.TransientEdge, graph.TransientNode:
		return 3
	default:
		return 0
	}
}

// fetchSpec names the components a retrieval needs.
type fetchSpec struct {
	nodeAttr  bool
	edgeAttr  bool
	transient bool
}

func specFor(opts graph.AttrOptions) fetchSpec {
	return fetchSpec{nodeAttr: opts.AnyNodeAttrs(), edgeAttr: opts.AnyEdgeAttrs()}
}

// deltaComps lists the delta columns a fetch spec needs.
func deltaComps(spec fetchSpec, events bool) []kvstore.Component {
	comps := []kvstore.Component{kvstore.ComponentStruct}
	if spec.nodeAttr {
		comps = append(comps, kvstore.ComponentNodeAttr)
	}
	if spec.edgeAttr {
		comps = append(comps, kvstore.ComponentEdgeAttr)
	}
	if events && spec.transient {
		comps = append(comps, kvstore.ComponentTransient)
	}
	return comps
}

// decodeCol decodes one stored delta column into d.
func decodeCol(comp kvstore.Component, buf []byte, d *delta.Delta) error {
	switch comp {
	case kvstore.ComponentStruct:
		return delta.DecodeStructCol(buf, d)
	case kvstore.ComponentNodeAttr:
		return delta.DecodeNodeAttrCol(buf, d)
	default:
		return delta.DecodeEdgeAttrCol(buf, d)
	}
}

// fetchDelta loads the requested columns of the delta on edge e, one part a
// partition. When the index is partitioned, both the reads and the decoding
// run in one goroutine per partition ("machine"), mirroring the paper's
// distributed retrieval where each machine reconstructs its piece
// independently.
func (dg *DeltaGraph) fetchDelta(e *skelEdge, spec fetchSpec) ([]*delta.Delta, error) {
	return fetchPerPartition(dg, e, deltaComps(spec, false), decodeCol)
}

// applyParts applies a delta fetched a part a partition to s: every part's
// deletions before any part's additions, as delta.Delta.Apply orders one
// delta's, since an edge id a delta moves from one pair to another is deleted
// in its old From's part and added in its new one's.
func applyParts(s *graph.Snapshot, parts ...*delta.Delta) {
	for _, d := range parts {
		(&delta.Delta{DelNodes: d.DelNodes, DelEdges: d.DelEdges, DelNodeAttrs: d.DelNodeAttrs, DelEdgeAttrs: d.DelEdgeAttrs}).Apply(s)
	}
	for _, d := range parts {
		(&delta.Delta{AddNodes: d.AddNodes, AddEdges: d.AddEdges, SetNodeAttrs: d.SetNodeAttrs, SetEdgeAttrs: d.SetEdgeAttrs}).Apply(s)
	}
}

// fetchEvents loads the requested columns of the leaf-eventlist on edge e
// and merges them into one chronologically ordered list.
func (dg *DeltaGraph) fetchEvents(e *skelEdge, spec fetchSpec) (graph.EventList, error) {
	comps := deltaComps(spec, true)
	parts, err := fetchPerPartition(dg, e, comps, func(_ kvstore.Component, buf []byte, cols *[]graph.EventList) error {
		col, err := delta.DecodeEvents(nil, buf)
		*cols = append(*cols, col)
		return err
	})
	if err != nil {
		return nil, err
	}
	var cols []graph.EventList
	for _, part := range parts {
		cols = append(cols, *part...)
	}
	return mergeColumns(cols), nil
}

// mergeColumns merges cols, each in time order, into one list in time order
// in a single pass. Equal times keep the order of cols, so the list is their
// concatenation stably sorted by time. A lone non-empty column is returned as
// it is; cols' entries are resliced as they are consumed.
func mergeColumns(cols []graph.EventList) graph.EventList {
	n, nonEmpty := 0, 0
	var lone graph.EventList
	for _, c := range cols {
		if len(c) > 0 {
			n, nonEmpty, lone = n+len(c), nonEmpty+1, c
		}
	}
	if nonEmpty < 2 {
		return lone
	}
	out := make(graph.EventList, 0, n)
	for len(out) < n {
		// The column with the earliest head, the first such on a tie, takes
		// its events while each goes before an earlier column's head and not
		// after a later one's.
		best := -1
		for i, c := range cols {
			if len(c) > 0 && (best < 0 || c[0].At < cols[best][0].At) {
				best = i
			}
		}
		before, notAfter := graph.MaxTime, graph.MaxTime
		for j, c := range cols {
			switch {
			case len(c) == 0 || j == best:
			case j < best:
				before = min(before, c[0].At)
			default:
				notAfter = min(notAfter, c[0].At)
			}
		}
		run, k := cols[best], 1
		for k < len(run) && run[k].At < before && run[k].At <= notAfter {
			k++
		}
		out = append(out, run[:k]...)
		cols[best] = run[k:]
	}
	return out
}

// fetchPerPartition fetches and decodes the named components of edge e's
// payload from every partition, one goroutine per partition, decoding with
// decode into a fresh T per partition.
func fetchPerPartition[T any](dg *DeltaGraph, e *skelEdge, comps []kvstore.Component,
	decode func(kvstore.Component, []byte, *T) error) ([]*T, error) {

	P := dg.opts.Partitions
	parts := make([]*T, P)
	fetchOne := func(p int) error {
		parts[p] = new(T)
		for _, c := range comps {
			buf, err := dg.store.Get(kvstore.EncodeKey(p, e.deltaID, c))
			if err != nil {
				if err == kvstore.ErrNotFound {
					continue
				}
				return err
			}
			if err := decode(c, buf, parts[p]); err != nil {
				return err
			}
		}
		return nil
	}
	if P == 1 {
		if err := fetchOne(0); err != nil {
			return nil, err
		}
		return parts, nil
	}
	var wg sync.WaitGroup
	errs := make([]error, P)
	for p := 0; p < P; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			errs[p] = fetchOne(p)
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return parts, nil
}

// Flush waits for the builder, then syncs the store. (The skeleton itself is
// persisted by Checkpoint; see persist.go.)
func (dg *DeltaGraph) Flush() error {
	dg.build.wait() // off the lock, so reads go on meanwhile
	dg.mu.Lock()
	defer dg.unlock()
	if err := dg.publishLocked(); err != nil {
		return err
	}
	return dg.store.Sync()
}

// Close waits for the builder to store what the leaf cuts queued and returns
// the first error a put met. Close the store after it, not before: it is the
// caller's. The index stays usable.
func (dg *DeltaGraph) Close() error { return dg.build.wait() }

// --- the builder -----------------------------------------------------
//
// A leaf cut keeps under the write lock only what must see the current
// graph: it takes the leaf's events, reserves their payload ids, adds the
// skeleton nodes and walks the pool for each new parent's graph and delta
// records. The rest — sorting the records and the aux deltas to every child, and encoding,
// compressing and putting every permanent payload, leaf-eventlists included —
// it queues for one builder goroutine, which runs the queue one job at a
// time, in id order: the store holds the records in the order a cut that did
// it all would have put them. The goroutine starts when a job is queued and
// exits when the queue is empty, so an index at rest holds none.
//
// An edge enters the skeleton under the write lock, and only once its payload
// is stored: the builder hands back the edges it stored for, and the next
// holder of the write lock publishes them (publishStoredLocked at every cut,
// publishLocked wherever the whole skeleton is needed). A reader that plans
// over the skeleton or reads stored payloads takes rlockBuilt.

// storeJob is one queued payload: run stores it and returns the edges that
// carry it.
type storeJob struct {
	run  func() ([]*skelEdge, error)
	done chan struct{} // closed once run has returned
}

type builder struct {
	mu      sync.Mutex
	queue   []storeJob
	last    chan struct{} // the newest job's done
	running bool          // a goroutine drains the queue
	stored  []*skelEdge   // in id order, not yet in the skeleton
	err     error         // the first failed put's; every job after it is dropped
}

// enqueue queues run, starting the builder goroutine if none runs.
func (b *builder) enqueue(run func() ([]*skelEdge, error)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.last = make(chan struct{})
	b.queue = append(b.queue, storeJob{run, b.last})
	if !b.running {
		b.running = true
		go b.drain()
	}
}

// drain runs the queue one job at a time, in order, and exits when it is
// empty.
func (b *builder) drain() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for len(b.queue) > 0 {
		job := b.queue[0]
		b.queue[0], b.queue = storeJob{}, b.queue[1:]
		if b.err == nil {
			b.mu.Unlock()
			edges, err := job.run()
			b.mu.Lock()
			b.stored, b.err = append(b.stored, edges...), err
		}
		close(job.done)
	}
	b.queue, b.running = nil, false
}

// wait returns once every job queued before it is done, with the first put
// error. It waits for those jobs, not for an empty queue, which a steady
// appender may never leave.
func (b *builder) wait() error {
	b.mu.Lock()
	last := b.last
	b.mu.Unlock()
	<-last
	return b.failed()
}

// failed returns the first put error.
func (b *builder) failed() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

// settled reports whether every queued payload is stored and published. With
// the read lock held nothing can be queued or published meanwhile.
func (b *builder) settled() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	select {
	case <-b.last:
		return len(b.stored) == 0
	default:
		return false
	}
}

// publishStoredLocked adds the edges the builder has stored so far to the
// skeleton, without waiting for the rest, and returns the first put error.
func (dg *DeltaGraph) publishStoredLocked() error {
	b := &dg.build
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, e := range b.stored {
		dg.skel.addEdge(e)
	}
	b.stored = nil
	return b.err
}

// publishLocked waits for the builder to finish the queue (holding the write
// lock: only a cut queues, and none can) and adds every edge it stored to the
// skeleton.
func (dg *DeltaGraph) publishLocked() error {
	if err := dg.build.wait(); err != nil {
		return err
	}
	return dg.publishStoredLocked()
}

// rlockBuilt takes the read lock with every queued payload stored and its
// edges in the skeleton, for a caller that reads stored payloads or plans over
// the skeleton's edges. It takes the write lock only if there is something to
// publish.
func (dg *DeltaGraph) rlockBuilt() error {
	err := dg.build.wait()
	dg.mu.RLock()
	for err == nil && !dg.build.settled() {
		dg.mu.RUnlock()
		dg.mu.Lock()
		err = dg.publishLocked()
		dg.unlock()
		dg.mu.RLock() // a cut may have slipped in: look again
	}
	if err != nil {
		dg.mu.RUnlock()
	}
	return err
}
