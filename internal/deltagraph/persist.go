package deltagraph

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"historygraph/internal/delta"
	"historygraph/internal/graph"
	"historygraph/internal/graphpool"
	"historygraph/internal/kvstore"
)

// Checkpoint/Open persist the in-memory DeltaGraph state — the permanent
// skeleton, builder state (pending nodes, recent eventlist), and
// materialization set — into the same key-value store that holds the deltas,
// so an index can be closed and reopened for querying and further appends. A
// checkpoint stores only what the permanent payloads cannot rebuild: a set of
// payload records (pending nodes' graphs through the delta column codec, the
// recent eventlist through the event codec, all in partition 0) followed by
// one small JSON meta record that names them and is the commit point.
//
// The pending nodes' subtrees cover the leaves in order, oldest and highest
// level first, and walkPending reaches each node's first leaf from the node
// before it over permanent payloads. A pending node's payload is
// delta.Compute(node, base), the base being its first leaf or, where that is
// lighter in records, the null graph (persistedChild.OnLeaf); a delta with no
// records is not written. A pending leaf is its own first leaf, and a node
// over a history that only grew equals it, so most write nothing. The current
// graph is not stored either: it is the last pending node's last leaf plus the
// recent eventlist. Checkpoint and Open compute the same bases by the same
// walk, so every rebuilt graph is exact whatever an eventlist replay yields.

const (
	metaDeltaID   = math.MaxUint64
	metaComponent = kvstore.Component(250)
	// Version of the checkpoint layout. 2: graphs are codec payloads beside
	// the JSON meta record. 3: those payloads,
	// and every other in the store, are in stored format 3 (delta/codec.go).
	// 4: a pending node's payload may be a delta from the current graph, so a
	// v3 checkpoint is a v4 one with every node on the null graph. 5: the
	// current graph is not stored, and a pending node's payload is a delta
	// from its first leaf or the null graph. Open reads all three.
	checkpointVersion = 5
)

type persistedNode struct {
	ID           int        `json:"id"`
	Level        int        `json:"level"`
	At           graph.Time `json:"at"`
	SpanEnd      graph.Time `json:"span_end,omitempty"`
	Size         int        `json:"size,omitempty"`
	Children     []int      `json:"children,omitempty"`
	Materialized bool       `json:"materialized,omitempty"`
}

type persistedEdge struct {
	From    int     `json:"from"`
	To      int     `json:"to"`
	Kind    uint8   `json:"kind"`
	DeltaID uint64  `json:"delta_id"`
	Sizes   []int64 `json:"sizes"`
	Counts  int     `json:"counts"`
	EvIndex int     `json:"ev_index"`
}

type persistedChild struct {
	Node int `json:"node"`
	// SnapID is the payload id of the node's graph; 0 (layout 5) when the
	// graph is its base.
	SnapID uint64 `json:"snap_id"`
	// The payload builds the graph from the current graph (OnCurrent, layout
	// 4), from the node's first leaf (OnLeaf, layout 5), or else from the
	// null graph.
	OnCurrent bool          `json:"on_current,omitempty"`
	OnLeaf    bool          `json:"on_leaf,omitempty"`
	Aux       []AuxSnapshot `json:"aux,omitempty"`
}

type persistedIndex struct {
	Version     int             `json:"version"`
	LeafSize    int             `json:"leaf_size"`
	Arity       int             `json:"arity"`
	Partitions  int             `json:"partitions"`
	Function    string          `json:"function"`
	NextDeltaID uint64          `json:"next_delta_id"`
	LastTime    graph.Time      `json:"last_time"`
	Nodes       []persistedNode `json:"nodes"`
	Edges       []persistedEdge `json:"edges"`
	Leaves      []int           `json:"leaves"`
	// CurrentID is the payload whose transient component is the recent
	// eventlist, when that is not empty. Before layout 5 its other components
	// are the current graph.
	CurrentID uint64             `json:"current_id"`
	Pending   [][]persistedChild `json:"pending"`
	// Payload ids descend from metaDeltaID-1. This checkpoint's are
	// FirstID down to NextID+1; PrevFirstID down to FirstID+1 were those of
	// the checkpoint it replaced, deleted once this meta is durable (Open
	// repeats the delete in case a crash came first).
	FirstID      uint64        `json:"first_id"`
	NextID       uint64        `json:"next_id"`
	PrevFirstID  uint64        `json:"prev_first_id"`
	PayloadBytes int64         `json:"payload_bytes"`
	AuxNames     []string      `json:"aux_names,omitempty"`
	AuxCur       []AuxSnapshot `json:"aux_cur,omitempty"`
	AuxRecent    [][]AuxEvent  `json:"aux_recent,omitempty"`
}

var metaKey = kvstore.EncodeKey(0, metaDeltaID, metaComponent)

// Checkpoint persists the index state into the store so Open can restore
// it. Call it after bulk construction or periodically during appends. It
// waits for the builder, then only reads the index, so queries keep running;
// appends wait.
func (dg *DeltaGraph) Checkpoint() error {
	dg.ckptMu.Lock()
	defer dg.ckptMu.Unlock()
	if err := dg.rlockBuilt(); err != nil {
		return err
	}
	defer dg.mu.RUnlock()
	pi := persistedIndex{
		Version:     checkpointVersion,
		LeafSize:    dg.opts.LeafSize,
		Arity:       dg.opts.Arity,
		Partitions:  dg.opts.Partitions,
		Function:    dg.opts.Function.Name(),
		NextDeltaID: dg.nextDeltaID,
		LastTime:    dg.lastTime,
		Leaves:      dg.skel.leaves,
		FirstID:     dg.ckptNextID,
		NextID:      dg.ckptNextID,
		PrevFirstID: dg.ckptFirstID,
		AuxCur:      dg.auxCur,
		AuxRecent:   dg.auxRecent,
	}
	for _, a := range dg.auxes {
		pi.AuxNames = append(pi.AuxNames, a.Name())
	}

	sizes := make(componentSizes, 4)
	newID := func() (uint64, error) {
		id := pi.NextID
		pi.NextID--
		// A checkpoint that a crash cut short may have left columns here.
		return id, dg.dropPayloads(id, id-1)
	}
	var err error
	if pi.CurrentID, err = newID(); err == nil && dg.recent.len() > 0 {
		var recent graph.EventList
		if recent, err = dg.recent.all(); err == nil {
			err = putCol(dg.store, 0, pi.CurrentID, kvstore.ComponentTransient, delta.EncodeEvents(recent), sizes)
		}
	}
	if err != nil {
		return err
	}
	pi.Pending = make([][]persistedChild, len(dg.pending))
	_, err = dg.walkPending(func(level, i int, leaf *graph.Snapshot) (*graph.Snapshot, error) {
		c := dg.pending[level][i]
		g := c.graph.Snapshot() // the walk goes on from the node's graph
		pc, d := persistedChild{Node: c.node, Aux: c.aux, OnLeaf: true}, delta.Compute(g, leaf)
		if d.Len() > c.size {
			d, pc.OnLeaf = delta.FromSnapshot(g), false
		}
		var err error
		if d.Len() > 0 {
			if pc.SnapID, err = newID(); err == nil {
				err = putCols(dg.store, 0, pc.SnapID, d, true, sizes)
			}
		}
		pi.Pending[level] = append(pi.Pending[level], pc)
		return g, err
	})
	if err != nil {
		return err
	}
	for _, n := range sizes {
		pi.PayloadBytes += n
	}

	for _, n := range dg.skel.nodes {
		if n.level < 0 {
			continue
		}
		pi.Nodes = append(pi.Nodes, persistedNode{
			ID: n.id, Level: n.level, At: n.at, SpanEnd: n.spanEnd, Size: n.size,
			Children: n.children, Materialized: n.materialized,
		})
	}
	for _, e := range dg.skel.edges {
		if e == nil || e.kind == kindMat {
			continue // materialization edges are rebuilt by Open
		}
		pi.Edges = append(pi.Edges, persistedEdge{
			From: e.from, To: e.to, Kind: uint8(e.kind),
			DeltaID: e.deltaID, Sizes: e.sizes, Counts: e.counts, EvIndex: e.evIndex,
		})
	}
	buf, err := json.Marshal(pi)
	if err != nil {
		return err
	}
	// The meta record is the commit point. In one log file it is durable
	// only if every record before it is; other partitions' files must be
	// synced first.
	if dg.opts.Partitions > 1 {
		if err := dg.store.Sync(); err != nil {
			return err
		}
	}
	if err := dg.store.Put(metaKey, buf); err != nil {
		return err
	}
	if err := dg.store.Sync(); err != nil {
		return err
	}
	dg.ckptFirstID, dg.ckptNextID = pi.FirstID, pi.NextID
	dg.ckptBytes.Store(pi.PayloadBytes + int64(len(buf)))
	if err := dg.dropPayloads(pi.PrevFirstID, pi.FirstID); err != nil {
		return fmt.Errorf("deltagraph: checkpoint committed; deleting the one before it: %w", err)
	}
	return nil
}

// dropPayloads deletes the checkpoint payloads with ids from hi down to
// lo+1 (absent keys are no-ops).
func (dg *DeltaGraph) dropPayloads(hi, lo uint64) error {
	for id := hi; id > lo; id-- {
		for c := kvstore.ComponentStruct; c <= kvstore.ComponentTransient; c++ {
			if err := dg.store.Delete(kvstore.EncodeKey(0, id, c)); err != nil {
				return err
			}
		}
	}
	return nil
}

// loadDelta reads a graph payload written by Checkpoint: the delta that builds
// the graph from its base (id 0: none, the graph is its base).
func (dg *DeltaGraph) loadDelta(id uint64) (*delta.Delta, error) {
	d := &delta.Delta{}
	for c := kvstore.ComponentStruct; c <= kvstore.ComponentEdgeAttr && id != 0; c++ {
		buf, err := dg.store.Get(kvstore.EncodeKey(0, id, c))
		if err == kvstore.ErrNotFound && c != kvstore.ComponentStruct {
			continue // empty attribute column
		}
		if err == nil {
			err = decodeCol(c, buf, d)
		}
		if err != nil {
			return nil, fmt.Errorf("deltagraph: checkpoint payload %d/%s: %w", id, c, err)
		}
	}
	return d, nil
}

// allColumns fetches every column that makes a graph.
var allColumns = fetchSpec{nodeAttr: true, edgeAttr: true}

// walkPending takes a graph from the null graph through every pending node,
// oldest first (the highest level first, each level in order), and on to the
// last leaf, which it returns. For each node it hands fn the node's first
// leaf, which fn may change, and goes on from the graph fn returns, which
// must be the node's: the oldest node's first leaf is stored eventlist 0
// applied to the null graph, a later node's is the node before it taken to
// its last leaf (toLastLeaf) and through the stored eventlist after that. The
// walk reads permanent payloads only, which no checkpoint deletes.
func (dg *DeltaGraph) walkPending(fn func(level, i int, w *graph.Snapshot) (*graph.Snapshot, error)) (*graph.Snapshot, error) {
	w, prev := graph.NewSnapshot(), dg.skel.leaves[0] // the anchor leaf: the null graph
	for level := len(dg.pending) - 1; level >= 0; level-- {
		for i, c := range dg.pending[level] {
			if err := dg.toLastLeaf(prev, w); err != nil {
				return nil, err
			}
			// The stored eventlist that ends at the node's first leaf, whose
			// time the node has.
			list := dg.skel.locate(dg.skel.nodes[c.node].at) - 1
			e := dg.eventEdge(list)
			if e == nil {
				return nil, fmt.Errorf("deltagraph: missing eventlist %d", list)
			}
			evs, err := dg.fetchEvents(e, allColumns)
			if err != nil {
				return nil, err
			}
			for _, ev := range evs {
				w.Apply(ev)
			}
			if w, err = fn(level, i, w); err != nil {
				return nil, err
			}
			prev = c.node
		}
	}
	return w, dg.toLastLeaf(prev, w)
}

// toLastLeaf takes w, node's graph, down the node's right edge of permanent
// deltas to its last leaf.
func (dg *DeltaGraph) toLastLeaf(node int, w *graph.Snapshot) error {
	for n := dg.skel.nodes[node]; n.level > 0; {
		child := n.children[len(n.children)-1]
		i := slices.IndexFunc(dg.skel.out[n.id], func(ei int) bool {
			e := dg.skel.edges[ei]
			return e != nil && e.kind == kindDelta && e.to == child
		})
		if i < 0 {
			return fmt.Errorf("deltagraph: no delta from node %d to %d", n.id, child)
		}
		parts, err := dg.fetchDelta(dg.skel.edges[dg.skel.out[n.id][i]], allColumns)
		if err != nil {
			return err
		}
		applyParts(w, parts...)
		n = dg.skel.nodes[child]
	}
	return nil
}

// Open restores a checkpointed index from the store. The options must
// supply the same aux index implementations (by name); Store is required;
// other option fields are taken from the checkpoint.
func Open(opts Options) (*DeltaGraph, error) {
	if opts.Store == nil {
		return nil, fmt.Errorf("deltagraph: Open requires a Store")
	}
	buf, err := opts.Store.Get(metaKey)
	if err != nil {
		return nil, fmt.Errorf("deltagraph: no checkpoint found: %w", err)
	}
	var pi persistedIndex
	if err := json.Unmarshal(buf, &pi); err != nil {
		return nil, fmt.Errorf("deltagraph: corrupt checkpoint: %w", err)
	}
	if pi.Version < 3 || pi.Version > checkpointVersion {
		return nil, fmt.Errorf("deltagraph: checkpoint has format v%d, this build reads only v3–v%d: "+
			"replay the WAL into an empty store, or rebuild the index from its trace with dgload",
			pi.Version, checkpointVersion)
	}
	if len(pi.AuxNames) != len(opts.AuxIndexes) {
		return nil, fmt.Errorf("deltagraph: checkpoint has %d aux indexes, options provide %d", len(pi.AuxNames), len(opts.AuxIndexes))
	}
	for i, name := range pi.AuxNames {
		if opts.AuxIndexes[i].Name() != name {
			return nil, fmt.Errorf("deltagraph: aux index %d is %q in checkpoint, %q in options", i, name, opts.AuxIndexes[i].Name())
		}
	}
	if opts.Function, err = delta.ByName(pi.Function); err != nil {
		return nil, err
	}
	opts.LeafSize, opts.Arity, opts.Partitions = pi.LeafSize, pi.Arity, pi.Partitions
	dg, err := New(opts) // the super-root and the anchor leaf come from here
	if err != nil {
		return nil, err
	}
	dg.lastTime, dg.nextDeltaID = pi.LastTime, pi.NextDeltaID
	dg.ckptFirstID, dg.ckptNextID = pi.FirstID, pi.NextID
	dg.ckptBytes.Store(pi.PayloadBytes + int64(len(buf)))
	if pi.AuxCur != nil {
		dg.auxCur = pi.AuxCur
	}
	if pi.AuxRecent != nil {
		dg.auxRecent = pi.AuxRecent
	}
	var recent graph.EventList
	buf, err = dg.store.Get(kvstore.EncodeKey(0, pi.CurrentID, kvstore.ComponentTransient))
	if err == nil {
		recent, err = delta.DecodeEvents(nil, buf)
	}
	if err != nil && err != kvstore.ErrNotFound { // not found: the eventlist was empty
		return nil, fmt.Errorf("deltagraph: checkpoint recent eventlist: %w", err)
	}
	for _, ev := range recent {
		dg.recent.add(ev)
	}

	// Rebuild the permanent skeleton with its original node IDs.
	var pinned []int
	for _, n := range pi.Nodes {
		for len(dg.skel.nodes) <= n.ID {
			dg.skel.addNode(&skelNode{level: -1}) // tombstone unless restored
		}
		if n.ID == dg.skel.superRoot || n.ID == dg.skel.leaves[0] {
			continue
		}
		*dg.skel.nodes[n.ID] = skelNode{id: n.ID, level: n.Level, at: n.At, spanEnd: n.SpanEnd, size: n.Size, children: n.Children}
		if n.Materialized {
			pinned = append(pinned, n.ID)
		}
	}
	for _, e := range pi.Edges {
		dg.skel.addEdge(&skelEdge{from: e.From, to: e.To, kind: edgeKind(e.Kind), deltaID: e.DeltaID, sizes: e.Sizes, counts: e.Counts, evIndex: e.EvIndex})
	}
	dg.skel.leaves = pi.Leaves
	if len(dg.skel.leaves) > 1 {
		// The checkpoint does not say when the history starts; eventlist 0 does.
		e := dg.eventEdge(0)
		if e == nil {
			return nil, fmt.Errorf("deltagraph: corrupt checkpoint: no eventlist 0")
		}
		first, err := dg.fetchEvents(e, fetchSpec{nodeAttr: true, edgeAttr: true, transient: true})
		if err != nil {
			return nil, fmt.Errorf("deltagraph: eventlist 0: %w", err)
		}
		if len(first) == 0 {
			return nil, fmt.Errorf("deltagraph: corrupt checkpoint: eventlist 0 is empty")
		}
		dg.firstTime = first[0].At
	}

	// Restore builder pending state, each graph committed to the pool as it
	// is rebuilt.
	dg.pending = make([][]pendingChild, len(pi.Pending))
	for level, row := range pi.Pending {
		for _, c := range row {
			if c.Aux == nil {
				c.Aux = dg.emptyAux()
			}
			dg.pending[level] = append(dg.pending[level], pendingChild{node: c.Node, size: dg.skel.nodes[c.Node].size, aux: c.Aux})
		}
	}
	cur := graph.NewSnapshot()
	if pi.Version < 5 {
		// The current graph is stored whole, and every node from it or from
		// the null graph.
		d, err := dg.loadDelta(pi.CurrentID)
		if err != nil {
			return nil, err
		}
		d.Apply(cur)
		dg.pool.LoadCurrent(cur)
		for level, row := range pi.Pending {
			for i, c := range row {
				if d, err = dg.loadDelta(c.SnapID); err != nil {
					return nil, err
				}
				from := graphpool.NoDependency
				if c.OnCurrent {
					from = graphpool.CurrentGraph
				}
				dg.pending[level][i].graph = dg.commitLocked(from, d)
			}
		}
	} else {
		// The walk ends at the last leaf, and the recent eventlist takes that
		// to the current graph.
		cur, err = dg.walkPending(func(level, i int, w *graph.Snapshot) (*graph.Snapshot, error) {
			c := pi.Pending[level][i]
			d, err := dg.loadDelta(c.SnapID)
			if err != nil {
				return nil, err
			}
			if !c.OnLeaf {
				w = graph.NewSnapshot()
			}
			d.Apply(w)
			whole := delta.FromSnapshot(w)
			dg.pending[level][i].graph = dg.commitLocked(graphpool.NoDependency, whole)
			return w, nil
		})
		if err != nil {
			return nil, err
		}
		for _, ev := range recent {
			cur.Apply(ev)
		}
		dg.pool.LoadCurrent(cur)
	}
	dg.curSize = cur.Size()
	if err := dg.dropPayloads(pi.PrevFirstID, pi.FirstID); err != nil {
		return nil, err
	}
	if err := dg.materializeLocked(pinned); err != nil {
		return nil, fmt.Errorf("deltagraph: re-materializing nodes %v: %w", pinned, err)
	}
	return dg, nil
}
