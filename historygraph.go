// Package historygraph is a graph database for historical graph data: it
// stores the entire evolution history of a network and retrieves one or
// many snapshots — the graph as of arbitrary past time points — fast
// enough for interactive analysis, while maintaining the current graph for
// ongoing updates.
//
// It is a from-scratch Go reproduction of Khurana & Deshpande, "Efficient
// Snapshot Retrieval over Historical Graph Data" (ICDE 2013): the
// DeltaGraph hierarchical index (internal/deltagraph) persists the history
// as columnar deltas in a key-value store (internal/kvstore), and the
// GraphPool (internal/graphpool) holds the retrieved snapshots overlaid
// non-redundantly in memory.
//
// Basic use:
//
//	gm, _ := historygraph.Open(historygraph.Options{})
//	gm.Append(historygraph.Event{Type: historygraph.AddNode, At: 1, Node: 23})
//	...
//	h, _ := gm.GetHistGraph(t, "+node:name")
//	for _, n := range h.Nodes() {
//	    _ = h.Neighbors(n)
//	}
//	gm.Release(h)
package historygraph

import (
	"fmt"
	"time"

	"historygraph/internal/delta"
	"historygraph/internal/deltagraph"
	"historygraph/internal/graph"
	"historygraph/internal/graphpool"
	"historygraph/internal/kvstore"
)

// Re-exported core types. The data model lives in internal/graph; these
// aliases form the public surface.
type (
	// NodeID identifies a node for the lifetime of the database.
	NodeID = graph.NodeID
	// EdgeID identifies an edge for the lifetime of the database.
	EdgeID = graph.EdgeID
	// Time is a discrete timestamp.
	Time = graph.Time
	// Event is one atomic change to the network.
	Event = graph.Event
	// EventType enumerates event kinds.
	EventType = graph.EventType
	// EventList is a chronological run of events.
	EventList = graph.EventList
	// Snapshot is a set-based graph as of one time point.
	Snapshot = graph.Snapshot
	// EdgeInfo is an edge's endpoints and direction.
	EdgeInfo = graph.EdgeInfo
	// HistGraph is a retrieved historical graph: a live read view into
	// the GraphPool.
	HistGraph = graphpool.View
	// GraphID identifies an active graph in the pool.
	GraphID = graphpool.GraphID
	// TimeExpression is a Boolean expression over timepoints.
	TimeExpression = deltagraph.TimeExpression
	// TimeExpr is a node of a TimeExpression.
	TimeExpr = deltagraph.TimeExpr
	// Var selects membership at the i-th timepoint of a TimeExpression.
	Var = deltagraph.Var
	// Not negates a TimeExpr.
	Not = deltagraph.Not
	// And conjoins TimeExprs.
	And = deltagraph.And
	// Or disjoins TimeExprs.
	Or = deltagraph.Or
	// IntervalResult answers GetHistGraphInterval.
	IntervalResult = deltagraph.IntervalResult
	// AuxIndex is a user-defined auxiliary index (Section 4.7). Its
	// CreateAuxEvents is handed the graph before the event as a *HistGraph:
	// the current graph's handle in the GraphPool, not a copy, and valid
	// only for the length of the call.
	AuxIndex = deltagraph.AuxIndex
	// AuxSnapshot is auxiliary key-value state as of a time point.
	AuxSnapshot = deltagraph.AuxSnapshot
	// AuxEvent is a change to auxiliary state.
	AuxEvent = deltagraph.AuxEvent
	// IndexStats summarizes the DeltaGraph shape.
	IndexStats = deltagraph.IndexStats
	// PoolStats summarizes GraphPool contents.
	PoolStats = graphpool.Stats
)

// Event types, re-exported.
const (
	AddNode       = graph.AddNode
	DelNode       = graph.DelNode
	AddEdge       = graph.AddEdge
	DelEdge       = graph.DelEdge
	SetNodeAttr   = graph.SetNodeAttr
	SetEdgeAttr   = graph.SetEdgeAttr
	TransientEdge = graph.TransientEdge
	TransientNode = graph.TransientNode
)

// Aux event operations, re-exported.
const (
	AuxSet = deltagraph.AuxSet
	AuxDel = deltagraph.AuxDel
)

// Options configures a GraphManager.
type Options struct {
	// LeafEventlistSize is the DeltaGraph L parameter (default 8192). An
	// index opened from a checkpoint keeps the L it was built with.
	LeafEventlistSize int
	// Arity is the DeltaGraph k parameter (default 2).
	Arity int
	// DifferentialFunction names the function: "intersection" (default),
	// "union", "balanced", "empty", "skewed:R", "mixed:R1:R2",
	// "rightskewed:R", "leftskewed:R".
	DifferentialFunction string
	// Partitions spreads storage across that many horizontal partitions
	// (0/1 = unpartitioned).
	Partitions int
	// StorePath persists the index under this path prefix ("" keeps the
	// index in memory). With Partitions > 1 one file per partition is
	// created: <path>.p0, <path>.p1, ...
	StorePath string
	// AuxIndexes registers auxiliary indexes before any event is added.
	AuxIndexes []AuxIndex
	// CleanerInterval is the lazy GraphPool cleaner period (default 1s).
	CleanerInterval time.Duration
}

func (o Options) store() (kvstore.Store, error) {
	parts := o.Partitions
	if parts < 1 {
		parts = 1
	}
	if o.StorePath == "" {
		if parts > 1 {
			return kvstore.NewMemPartitioned(parts), nil
		}
		return kvstore.NewMemStore(), nil
	}
	if parts == 1 {
		return kvstore.OpenFileStore(o.StorePath, kvstore.FileOptions{})
	}
	stores := make([]kvstore.Store, parts)
	for i := range stores {
		s, err := kvstore.OpenFileStore(fmt.Sprintf("%s.p%d", o.StorePath, i), kvstore.FileOptions{})
		if err != nil {
			for _, prev := range stores[:i] {
				prev.Close()
			}
			return nil, err
		}
		stores[i] = s
	}
	return kvstore.NewPartitioned(stores), nil
}

func (o Options) deltagraphOptions(store kvstore.Store, pool *graphpool.Pool) (deltagraph.Options, error) {
	fn := delta.Differential(nil)
	if o.DifferentialFunction != "" {
		var err error
		fn, err = delta.ByName(o.DifferentialFunction)
		if err != nil {
			return deltagraph.Options{}, err
		}
	}
	return deltagraph.Options{
		LeafSize:   o.LeafEventlistSize,
		Arity:      o.Arity,
		Function:   fn,
		Partitions: o.Partitions,
		Store:      store,
		Pool:       pool,
		AuxIndexes: o.AuxIndexes,
	}, nil
}

// GraphManager is the top-level handle: it owns the DeltaGraph index, the
// GraphPool, and the background cleaner, and exposes the paper's
// programmatic API (Section 3.2.1).
//
// A GraphManager is safe for concurrent use: retrievals take the index's
// read lock and may run in parallel, while Append/AppendAll serialize
// against them. Long-lived callers that hold views across requests (the
// internal/server hot-snapshot cache) should Pin them so the lazy cleaner
// cannot reclaim a released view mid-read.
type GraphManager struct {
	dg      *deltagraph.DeltaGraph
	pool    *graphpool.Pool
	store   kvstore.Store
	cleaner *graphpool.Cleaner
}

// Open creates an empty historical graph database.
func Open(opts Options) (*GraphManager, error) {
	store, err := opts.store()
	if err != nil {
		return nil, err
	}
	pool := graphpool.New()
	dgOpts, err := opts.deltagraphOptions(store, pool)
	if err != nil {
		store.Close()
		return nil, err
	}
	dg, err := deltagraph.New(dgOpts)
	if err != nil {
		store.Close()
		return nil, err
	}
	return newManager(dg, pool, store, opts), nil
}

// BuildFrom bulk-loads a chronological event trace (Section 4.6) and
// returns a queryable database once every payload is stored.
func BuildFrom(events EventList, opts Options) (*GraphManager, error) {
	store, err := opts.store()
	if err != nil {
		return nil, err
	}
	pool := graphpool.New()
	dgOpts, err := opts.deltagraphOptions(store, pool)
	if err != nil {
		store.Close()
		return nil, err
	}
	dg, err := deltagraph.Build(events, dgOpts)
	if err != nil {
		store.Close()
		return nil, err
	}
	return newManager(dg, pool, store, opts), nil
}

// Load reopens a database previously persisted with Checkpoint.
func Load(opts Options) (*GraphManager, error) {
	if opts.StorePath == "" {
		return nil, fmt.Errorf("historygraph: Load requires StorePath")
	}
	store, err := opts.store()
	if err != nil {
		return nil, err
	}
	pool := graphpool.New()
	dg, err := deltagraph.Open(deltagraph.Options{
		Store: store, Pool: pool, AuxIndexes: opts.AuxIndexes,
	})
	if err != nil {
		store.Close()
		return nil, err
	}
	return newManager(dg, pool, store, opts), nil
}

func newManager(dg *deltagraph.DeltaGraph, pool *graphpool.Pool, store kvstore.Store, opts Options) *GraphManager {
	interval := opts.CleanerInterval
	if interval <= 0 {
		interval = time.Second
	}
	gm := &GraphManager{dg: dg, pool: pool, store: store, cleaner: graphpool.NewCleaner(pool, interval)}
	gm.cleaner.Start()
	return gm
}

// Append records one event against the current graph and the index.
func (gm *GraphManager) Append(ev Event) error { return gm.dg.Append(ev) }

// AppendAll records a run of events.
func (gm *GraphManager) AppendAll(events EventList) error { return gm.dg.AppendAll(events) }

// AppendAllCounted is AppendAll reporting how many events applied before
// the first failure (== len(events) on success); the replication
// subsystem's recovery uses the count to resume exactly where a partial
// apply stopped.
func (gm *GraphManager) AppendAllCounted(events EventList) (int, error) {
	return gm.dg.AppendAllCounted(events)
}

// GetHistGraph retrieves the graph as of time t into the GraphPool. The
// attrOptions string follows the paper's Table 1 syntax (e.g.
// "+node:all-node:salary+edge:name"; "" fetches structure only).
func (gm *GraphManager) GetHistGraph(t Time, attrOptions string) (*HistGraph, error) {
	opts, err := graph.ParseAttrOptions(attrOptions)
	if err != nil {
		return nil, err
	}
	return gm.view(gm.dg.Retrieve(t, opts))
}

// view is a view of the graph a retrieval answered with.
func (gm *GraphManager) view(id GraphID, err error) (*HistGraph, error) {
	if err != nil {
		return nil, err
	}
	return gm.pool.View(id)
}

// GetHistGraphs retrieves many snapshots with multi-query optimization
// (Section 4.4).
func (gm *GraphManager) GetHistGraphs(ts []Time, attrOptions string) ([]*HistGraph, error) {
	opts, err := graph.ParseAttrOptions(attrOptions)
	if err != nil {
		return nil, err
	}
	ids, err := gm.dg.RetrieveMany(ts, opts)
	if err != nil {
		return nil, err
	}
	out := make([]*HistGraph, len(ids))
	for i, id := range ids {
		if out[i], err = gm.pool.View(id); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// GetHistSnapshots retrieves many detached set-based snapshots with the
// shared-delta multi-query plan optimization (Section 4.4): each is built in
// the GraphPool, copied out and released there, for the cleaner to reclaim.
func (gm *GraphManager) GetHistSnapshots(ts []Time, attrOptions string) ([]*Snapshot, error) {
	opts, err := graph.ParseAttrOptions(attrOptions)
	if err != nil {
		return nil, err
	}
	return gm.dg.GetSnapshots(ts, opts)
}

// GetHistSnapshot retrieves a detached set-based snapshot, built in the
// GraphPool, copied out and released there — useful for bulk analysis that
// changes or keeps the graph apart from the pool.
func (gm *GraphManager) GetHistSnapshot(t Time, attrOptions string) (*Snapshot, error) {
	opts, err := graph.ParseAttrOptions(attrOptions)
	if err != nil {
		return nil, err
	}
	return gm.dg.GetSnapshot(t, opts)
}

// GetHistGraphExpr retrieves into the GraphPool the hypothetical graph
// matching a TimeExpression (e.g. t1 ∧ ¬t2), the paper's
// GetHistGraph(TimeExpression): a node, an edge or an attribute value is in
// it when the expression holds over which of the graphs at the times hold
// it. It is evaluated in one walk of the pool over those graphs, which lets
// go of them. Release it as GetHistGraph's.
func (gm *GraphManager) GetHistGraphExpr(tex TimeExpression, attrOptions string) (*HistGraph, error) {
	opts, err := graph.ParseAttrOptions(attrOptions)
	if err != nil {
		return nil, err
	}
	return gm.view(gm.dg.RetrieveExpression(tex, opts))
}

// GetHistGraphInterval retrieves into the GraphPool the graph of all
// elements added during [ts, te), plus the transient events in that window.
// Release its Graph as GetHistGraph's.
func (gm *GraphManager) GetHistGraphInterval(ts, te Time, attrOptions string) (*IntervalResult, error) {
	opts, err := graph.ParseAttrOptions(attrOptions)
	if err != nil {
		return nil, err
	}
	return gm.dg.GetInterval(ts, te, opts)
}

// GetAuxSnapshot reconstructs a registered auxiliary index's state as of
// time t.
func (gm *GraphManager) GetAuxSnapshot(name string, t Time) (AuxSnapshot, error) {
	return gm.dg.GetAuxSnapshot(name, t)
}

// CurrentGraph returns a live view of the current graph.
func (gm *GraphManager) CurrentGraph() *HistGraph { return gm.pool.Current() }

// Release declares a retrieved historical graph no longer needed; the lazy
// cleaner reclaims it.
func (gm *GraphManager) Release(h *HistGraph) error { return gm.pool.Release(h.ID()) }

// Pin takes a reference on a retrieved historical graph: a pinned graph
// survives the cleaner even after Release, so a cache can keep serving it
// while concurrent readers finish. Every Pin must be paired with Unpin.
func (gm *GraphManager) Pin(h *HistGraph) error { return gm.pool.Pin(h.ID()) }

// Unpin drops a reference taken with Pin.
func (gm *GraphManager) Unpin(h *HistGraph) error { return gm.pool.Unpin(h.ID()) }

// LastTime returns the timestamp of the newest event in the database (0
// when empty).
func (gm *GraphManager) LastTime() Time { return gm.dg.LastTime() }

// ForceClean runs a GraphPool cleanup pass immediately (instead of waiting
// for the background cleaner) and returns the number of elements evicted.
func (gm *GraphManager) ForceClean() int { return gm.cleaner.ForceClean() }

// Materialize applies a materialization policy: "root", "children",
// "grandchildren", or "leaves" (total materialization).
func (gm *GraphManager) Materialize(policy string) error { return gm.dg.MaterializeLevel(policy) }

// DeltaGraph exposes the underlying index for advanced use (plan costs,
// custom materialization).
func (gm *GraphManager) DeltaGraph() *deltagraph.DeltaGraph { return gm.dg }

// Pool exposes the underlying GraphPool.
func (gm *GraphManager) Pool() *graphpool.Pool { return gm.pool }

// IndexStats reports the DeltaGraph shape and cost.
func (gm *GraphManager) IndexStats() IndexStats { return gm.dg.Stats() }

// ObserveIndex registers a callback for the index builder's stall: cut
// receives the time each leaf cut held the index write lock (see
// deltagraph.DeltaGraph.SetObserver).
func (gm *GraphManager) ObserveIndex(cut func(time.Duration)) { gm.dg.SetObserver(cut) }

// PoolStats reports GraphPool contents.
func (gm *GraphManager) PoolStats() PoolStats { return gm.pool.Stats() }

// Checkpoint persists the index state so Load can reopen it.
func (gm *GraphManager) Checkpoint() error { return gm.dg.Checkpoint() }

// Close checkpoints nothing: it waits for the index's builder to store what
// the leaf cuts queued, stops the cleaner, and closes the store. Call
// Checkpoint first to make the index reloadable.
func (gm *GraphManager) Close() error {
	err := gm.dg.Close()
	gm.cleaner.Stop()
	if cerr := gm.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// MustParseAttrOptions re-exports the attr_options parser for callers that
// need programmatic option structs.
func MustParseAttrOptions(s string) graph.AttrOptions { return graph.MustParseAttrOptions(s) }

// ParseAttrOptions validates and parses a Table 1 attr_options string.
func ParseAttrOptions(s string) (graph.AttrOptions, error) { return graph.ParseAttrOptions(s) }
