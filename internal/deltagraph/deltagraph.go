// Package deltagraph implements DeltaGraph (Section 4 of Khurana &
// Deshpande, ICDE 2013): a hierarchical, tunable index over the historical
// trace of a graph that supports efficient retrieval of snapshots as of
// arbitrary past time points.
//
// The lowest level of the index corresponds to equi-spaced snapshots of the
// network (never stored explicitly); interior nodes are synthetic graphs
// built by a differential function over their children; every edge carries
// the delta that constructs its target from its source. A snapshot query is
// answered by the lowest-weight path from the empty super-root, the current
// graph or a pending node's graph to the query point (Dijkstra over the
// in-memory skeleton); a multipoint query by a
// Steiner tree (2-approximation) over the same skeleton. Either is a tree of
// steps, each "apply this payload", that one executor walks once, reading no
// stored payload twice (retrieve.go). Deltas are stored columnar in a
// key-value store, optionally hash-partitioned across storage units, and
// arbitrary index nodes can be materialized in memory at runtime to cut
// latencies: materializing is the same kind of query, with nodes for targets.
//
// The current graph has one home, the GraphPool's bits 0 and 1 (Section 6):
// the index reads it through the pool's current-graph view and keeps no copy.
// Only this package writes those bits (an Admission, ClearRecent,
// LoadCurrent), always under the index's write lock, so holding the index's
// lock either way holds the current graph still. Locks are taken index first,
// pool second, everywhere; the pool's cleaner takes the pool's alone. An
// append holds the pool's write lock across a whole batch, so nothing under
// it may call a View method (AppendAllCounted).
package deltagraph

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"historygraph/internal/delta"
	"historygraph/internal/graph"
	"historygraph/internal/graphpool"
	"historygraph/internal/kvstore"
)

// Options configures DeltaGraph construction (Section 4.6: eventlist size
// L, arity k, the differential function, and the partitioning).
type Options struct {
	// LeafSize is L, the number of events per leaf-eventlist. A leaf cut
	// is extended to the next timestamp boundary so equal-time events
	// never straddle leaves. Zero means defaultLeafSize; an index opened
	// from a checkpoint keeps the L the checkpoint records.
	LeafSize int
	// Arity is k, the fan-out of interior nodes.
	Arity int
	// Function is the differential function; nil means Intersection.
	Function delta.Differential
	// Partitions is the number of horizontal partitions (storage
	// "machines"); 0 or 1 disables partitioning. When >1, Store must be
	// a *kvstore.Partitioned with at least that many partitions.
	Partitions int
	// Store is the persistent backend. nil means a fresh in-memory store.
	Store kvstore.Store
	// Pool holds the current graph (bits 0/1: the index keeps no other copy
	// and is the only writer of them) and receives retrieved snapshots and
	// materialized nodes. nil means a pool of the index's own, which Pool
	// returns. An index does not share its pool with another index.
	Pool *graphpool.Pool
	// DependentMaxRatio bounds the dependent-graph optimization: a
	// retrieved snapshot is overlaid as exceptions against a materialized
	// base when the exception count is at most this fraction of the base
	// size. Zero means 0.25.
	DependentMaxRatio float64
	// AuxIndexes are user-defined auxiliary indexes (Section 4.7),
	// registered before any event is appended.
	AuxIndexes []AuxIndex
}

// defaultLeafSize is L when Options leave it zero. One level fewer than at
// 4096 stores the benchmark's seed-1 trace in 5.59 B an event, not 7.15
// (testdata/paper_sweep.golden), for an open leaf of up to twice the events.
const defaultLeafSize = 8192

func (o *Options) fill() error {
	if o.LeafSize <= 0 {
		o.LeafSize = defaultLeafSize
	}
	if o.Arity < 2 {
		o.Arity = 2
	}
	if o.Function == nil {
		o.Function = delta.Intersection{}
	}
	if o.Partitions < 1 {
		o.Partitions = 1
	}
	if o.Store == nil {
		if o.Partitions > 1 {
			o.Store = kvstore.NewMemPartitioned(o.Partitions)
		} else {
			o.Store = kvstore.NewMemStore()
		}
	}
	if o.Partitions > 1 {
		ps, ok := o.Store.(*kvstore.Partitioned)
		if !ok {
			return errors.New("deltagraph: Partitions > 1 requires a *kvstore.Partitioned store")
		}
		if ps.NumPartitions() < o.Partitions {
			return fmt.Errorf("deltagraph: store has %d partitions, need %d", ps.NumPartitions(), o.Partitions)
		}
	}
	if o.DependentMaxRatio <= 0 {
		o.DependentMaxRatio = 0.25
	}
	if o.Pool == nil {
		o.Pool = graphpool.New()
	}
	return nil
}

// pendingChild is a node awaiting a permanent parent. Its graph is an
// explicit graph in the pool, on a bit of its own, which the index holds
// until the node gets a parent, so the differential function can combine it
// with its future siblings; its aux snapshots are retained whole.
type pendingChild struct {
	node  int
	size  int // element count of the node's graph
	graph *graphpool.View
	aux   []AuxSnapshot
}

// DeltaGraph is the index. It is safe for concurrent use: queries and
// Checkpoint take the read lock; Append, materialization and Flush take the
// write lock. Payloads a leaf cut queues are stored by the builder goroutine
// (builder.go), which takes neither. The pending nodes change only under the
// write lock, so a read sees one set of them throughout.
type DeltaGraph struct {
	mu    sync.RWMutex
	opts  Options
	skel  *skeleton
	store kvstore.Store
	pool  *graphpool.Pool

	nextDeltaID uint64
	build       builder // stores the payloads leaf cuts queue, in id order

	// Builder state (Section 4.6 bulk construction + live updates).
	cur      *graphpool.View // the graph after every appended event: the pool's bit 0
	curSize  int             // its graph.Snapshot.Size, kept by AppendAllCounted
	recent   recentList      // events after the last leaf cut
	lastTime graph.Time      // timestamp of the newest appended event
	// firstTime is the timestamp of the first event of stored eventlist 0.
	// The list's leaf, the empty anchor, stands before all time, so the
	// planner takes the list's span in time from here (listStep).
	firstTime graph.Time
	pending   [][]pendingChild

	// SetObserver's callback, and the leaf cuts under the write lock that it
	// has not been told of yet (unlock tells it).
	onCut    func(time.Duration)
	cutTimes []time.Duration

	// Materialization: skeleton node -> pool graph id.
	matGraphs map[int]graphpool.GraphID

	auxes     []AuxIndex
	auxCur    []AuxSnapshot
	auxRecent [][]AuxEvent

	// Checkpoint state (persist.go): ckptMu serializes checkpoints, which
	// hold mu only for reading; the newest durable checkpoint's payload ids
	// run from ckptFirstID down to ckptNextID+1.
	ckptMu                  sync.Mutex
	ckptFirstID, ckptNextID uint64
	ckptBytes               atomic.Int64

	// planExecs counts the graphs snapshot queries built from a source
	// (IndexStats.PlanExecutions; atomic: bumped under the read lock by
	// concurrent retrievals). The serving layer uses it to observe how many
	// retrievals its coalescing and caching avoided.
	planExecs atomic.Int64
}

// New creates an empty DeltaGraph ready for Append.
func New(opts Options) (*DeltaGraph, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	dg := &DeltaGraph{
		opts:        opts,
		skel:        newSkeleton(),
		store:       opts.Store,
		pool:        opts.Pool,
		cur:         opts.Pool.Current(),
		recent:      newRecentList(opts.LeafSize),
		nextDeltaID: 1,
		ckptFirstID: metaDeltaID - 1,
		ckptNextID:  metaDeltaID - 1,
		matGraphs:   make(map[int]graphpool.GraphID),
		auxes:       opts.AuxIndexes,
	}
	dg.build.last = make(chan struct{}) // no job yet: as if one were done
	close(dg.build.last)
	dg.skel.superRoot = dg.skel.addNode(&skelNode{level: math.MaxInt32, at: graph.MaxTime})
	// Leaf 0 is the empty graph "before time": it anchors queries that
	// precede the first cut. It stays out of the interior hierarchy and
	// is permanently materialized (the empty graph is free to hold), so
	// the super-root reaches it at zero cost.
	leaf0 := dg.skel.addNode(&skelNode{level: 0, at: math.MinInt64, materialized: true})
	dg.skel.leaves = append(dg.skel.leaves, leaf0)
	dg.skel.addEdge(&skelEdge{from: dg.skel.superRoot, to: leaf0, kind: kindMat, sizes: make(componentSizes, 4), evIndex: -1})
	dg.pending = append(dg.pending, nil)
	dg.auxCur = dg.emptyAux()
	dg.auxRecent = make([][]AuxEvent, len(dg.auxes))
	return dg, nil
}

func (dg *DeltaGraph) emptyAux() []AuxSnapshot {
	aux := make([]AuxSnapshot, len(dg.auxes))
	for i := range aux {
		aux[i] = AuxSnapshot{}
	}
	return aux
}

// Build bulk-constructs a DeltaGraph from a chronological event trace in a
// single pass (Section 4.6) and returns once the builder has stored every
// payload.
func Build(events graph.EventList, opts Options) (*DeltaGraph, error) {
	dg, err := New(opts)
	if err != nil {
		return nil, err
	}
	if err := dg.AppendAll(events); err != nil {
		return nil, err
	}
	dg.build.wait() // off the lock; a put error is publishLocked's
	dg.mu.Lock()
	defer dg.unlock()
	return dg, dg.publishLocked()
}

// Append records one event: it updates the current graph (the pool's
// current-graph bits), appends to the recent eventlist, and — when the
// recent eventlist reaches L and the timestamp advances — cuts a new leaf
// and extends the index (Section 6, "Updates to the Current graph").
func (dg *DeltaGraph) Append(ev graph.Event) error {
	_, err := dg.AppendAllCounted(graph.EventList{ev})
	return err
}

// AppendAll appends a run of events.
func (dg *DeltaGraph) AppendAll(events graph.EventList) error {
	_, err := dg.AppendAllCounted(events)
	return err
}

// AppendAllCounted is AppendAll reporting how many events of the run were
// applied before the first failure (== len(events) on success). Events
// apply one at a time, so on error a prefix of exactly that length has
// landed — recovery paths (the replication WAL drain) use the count to
// resume precisely instead of re-applying or skipping the prefix.
//
// This is the one place events enter the index: the facade, the server, WAL
// replay, follower apply and migration ingest all end here. The run is
// admitted under one hold of the pool's write lock (graphpool.Admission),
// let go of only around a leaf cut, which calls into the pool, and, when aux
// indexes are registered, around each event: CreateAuxEvents reads the graph
// before the event through dg.cur, whose methods take the pool's read lock.
func (dg *DeltaGraph) AppendAllCounted(events graph.EventList) (int, error) {
	dg.mu.Lock()
	defer dg.unlock()
	if err := dg.publishStoredLocked(); err != nil { // a put the builder failed
		return 0, err
	}
	adm := dg.pool.Admit()
	defer adm.Pause()
	for i, ev := range events {
		if ev.At < dg.lastTime {
			return i, fmt.Errorf("deltagraph: event at %d is older than last event at %d", ev.At, dg.lastTime)
		}
		if dg.recent.len() >= dg.opts.LeafSize && ev.At > dg.lastTime {
			adm.Pause()
			err := dg.cutLeafLocked()
			adm.Resume()
			if err != nil {
				return i, err
			}
		}
		dg.lastTime = ev.At
		grow, changes := adm.Check(&ev)
		if !changes {
			// Acknowledged, and the clock has moved; but an event that leaves
			// the graph as it was must leave its history as it was too. Played
			// backward, a second add of a live node would delete it from every
			// snapshot before the add.
			continue
		}
		if len(dg.auxes) > 0 {
			adm.Pause()
			dg.auxEventsLocked(ev)
			adm.Resume()
		}
		adm.Apply(ev)
		dg.curSize += grow
		dg.recent.add(ev)
	}
	return len(events), nil
}

// auxEventsLocked derives each aux index's events from ev, against the graph
// before it, and applies them to the index's aux snapshot. The pool's lock
// must not be held: CreateAuxEvents reads the current graph's view.
func (dg *DeltaGraph) auxEventsLocked(ev graph.Event) {
	for i, aux := range dg.auxes {
		auxEvs := aux.CreateAuxEvents(ev, dg.cur, dg.auxCur[i])
		for _, ae := range auxEvs {
			dg.auxCur[i].apply(ae)
		}
		dg.auxRecent[i] = append(dg.auxRecent[i], auxEvs...)
	}
}

// SetObserver registers a callback for the cost of construction that a
// caller can feel: cut is given the time every leaf cut held the write lock,
// after the lock is released. It may be nil.
func (dg *DeltaGraph) SetObserver(cut func(time.Duration)) {
	dg.mu.Lock()
	defer dg.mu.Unlock()
	dg.onCut = cut
}

// unlock releases the write lock, then tells the observer of the leaf cuts
// that happened under it.
func (dg *DeltaGraph) unlock() {
	onCut, cuts := dg.onCut, dg.cutTimes
	dg.cutTimes = nil
	dg.mu.Unlock()
	if onCut != nil {
		for _, d := range cuts {
			onCut(d)
		}
	}
}

// LastTime returns the timestamp of the newest event in the index.
func (dg *DeltaGraph) LastTime() graph.Time {
	dg.mu.RLock()
	defer dg.mu.RUnlock()
	return dg.lastTime
}

// Store returns the backing key-value store (for space accounting).
func (dg *DeltaGraph) Store() kvstore.Store { return dg.store }

// Pool returns the index's GraphPool: Options.Pool, or the one New made.
func (dg *DeltaGraph) Pool() *graphpool.Pool { return dg.pool }

// auxComponentIDs returns the store components of all registered aux
// indexes (used by the weight selector and fetch paths).
func (dg *DeltaGraph) auxComponentIDs() []int {
	ids := make([]int, len(dg.auxes))
	for i := range dg.auxes {
		ids[i] = int(kvstore.ComponentAuxBase) + i
	}
	return ids
}
