package deltagraph

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"

	"historygraph/internal/delta"
	"historygraph/internal/graph"
	"historygraph/internal/kvstore"
)

// Checkpoint/Open persist the in-memory DeltaGraph state — the permanent
// skeleton, builder state (pending nodes, recent eventlist, current graph),
// and materialization set — into the same key-value store that holds the
// deltas, so an index can be closed and reopened for querying and further
// appends. A checkpoint is a set of payload records (every graph through the
// delta column codec, the recent eventlist through the event codec, all in
// partition 0) followed by one small JSON meta record that names them and is
// the commit point. The provisional spine is derived from the pending nodes:
// it is not stored, and not rebuilt before a read of the reopened index asks
// for it.
//
// Every graph payload is delta.Compute(graph, base) through putCols. The
// current graph's base is the null graph. A pending node's is whichever of the
// null graph and the current graph is nearer, in records: the builder holds the
// node as a patch against the current graph, so the delta from there costs what
// the two differ in, which for a node cut recently is a fraction of the node
// and for an old intersection (small itself, far from a grown current graph)
// is several times the node. persistedChild.OnCurrent records the choice.

const (
	metaDeltaID   = math.MaxUint64
	metaComponent = kvstore.Component(250)
	// Version of the checkpoint layout. 2: graphs are codec payloads beside
	// the JSON meta record, and the spine is not stored. 3: those payloads,
	// and every other in the store, are in stored format 3 (delta/codec.go).
	// 4: a pending node's payload may be a delta from the current graph, so a
	// v3 checkpoint is a v4 one with every node on the null graph and Open
	// reads both.
	checkpointVersion = 4
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
	Node   int    `json:"node"`
	SnapID uint64 `json:"snap_id"` // payload id of the node's graph
	// OnCurrent: the payload builds the graph from the current graph, not
	// from the null graph.
	OnCurrent bool          `json:"on_current,omitempty"`
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
	// CurrentID is the payload id of the current graph; the recent
	// eventlist, when not empty, is that payload's transient component.
	CurrentID uint64             `json:"current_id"`
	Pending   [][]persistedChild `json:"pending"`
	// RematRoot: the provisional root was materialized; Open pins the
	// rebuilt one.
	RematRoot bool `json:"remat_root,omitempty"`
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
// only reads the index, so queries keep running; appends wait. It never
// seals a stale spine.
func (dg *DeltaGraph) Checkpoint() error {
	dg.ckptMu.Lock()
	defer dg.ckptMu.Unlock()
	dg.mu.RLock()
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
		RematRoot:   dg.rematRoot,
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
	putGraph := func(g, base *graph.Snapshot) (uint64, error) {
		id := pi.NextID
		pi.NextID--
		// A checkpoint that a crash cut short may have left columns here.
		if err := dg.dropPayloads(id, id-1); err != nil {
			return 0, err
		}
		return id, putCols(dg.store, 0, id, delta.Compute(g, base), true, sizes)
	}
	var err error
	cur := dg.cur.Snapshot() // one copy out of the pool for everything below
	if pi.CurrentID, err = putGraph(cur, graph.NewSnapshot()); err == nil && len(dg.recent) > 0 {
		err = putCol(dg.store, 0, pi.CurrentID, kvstore.ComponentTransient, delta.EncodeEvents(dg.recent), sizes)
	}
	if err != nil {
		return err
	}
	for _, level := range dg.pending {
		row := make([]persistedChild, 0, len(level))
		for _, c := range level {
			// A node held from the null graph is stored from it, as it is. For
			// another the delta from the null graph has c.size records; the one
			// from the current graph has them on the patch's elements alone,
			// where both graphs cut down to those elements give the same delta.
			// g becomes the node's graph (there or whole), from is its base.
			pc, g, from := persistedChild{Node: c.node, Aux: c.aux}, graph.NewSnapshot(), graph.NewSnapshot()
			if !c.onNull {
				fromCurrent := 0
				for x, im := range c.patch {
					fromCurrent += im.records(imageIn(cur, x))
				}
				if pc.OnCurrent = fromCurrent < c.size; pc.OnCurrent {
					from = restrict(cur, c.patch)
				} else {
					g = &graph.Snapshot{ // putIn replaces entries of these four: the inner attribute maps stay shared
						Nodes: maps.Clone(cur.Nodes), Edges: maps.Clone(cur.Edges),
						NodeAttrs: maps.Clone(cur.NodeAttrs), EdgeAttrs: maps.Clone(cur.EdgeAttrs),
					}
				}
			}
			if pc.SnapID, err = putGraph(graphOf(c, g), from); err != nil {
				return err
			}
			row = append(row, pc)
		}
		pi.Pending = append(pi.Pending, row)
	}
	for _, n := range sizes {
		pi.PayloadBytes += n
	}

	for _, n := range dg.skel.nodes {
		if n.level < 0 {
			continue
		}
		if n.provisional {
			pi.RematRoot = pi.RematRoot || n.materialized
			continue
		}
		pi.Nodes = append(pi.Nodes, persistedNode{
			ID: n.id, Level: n.level, At: n.at, SpanEnd: n.spanEnd, Size: n.size,
			Children: n.children, Materialized: n.materialized,
		})
	}
	for _, e := range dg.skel.edges {
		if e == nil || e.provisional || e.kind == kindMat {
			continue // the spine and materialization edges are rebuilt by Open
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
// the graph from its base.
func (dg *DeltaGraph) loadDelta(id uint64) (*delta.Delta, error) {
	d := &delta.Delta{}
	for c := kvstore.ComponentStruct; c <= kvstore.ComponentEdgeAttr; c++ {
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
	if pi.Version != 3 && pi.Version != checkpointVersion {
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
	dg.lastTime, dg.nextDeltaID, dg.rematRoot = pi.LastTime, pi.NextDeltaID, pi.RematRoot
	dg.ckptFirstID, dg.ckptNextID = pi.FirstID, pi.NextID
	dg.ckptBytes.Store(pi.PayloadBytes + int64(len(buf)))
	if pi.AuxCur != nil {
		dg.auxCur = pi.AuxCur
	}
	if pi.AuxRecent != nil {
		dg.auxRecent = pi.AuxRecent
	}
	d, err := dg.loadDelta(pi.CurrentID)
	if err != nil {
		return nil, err
	}
	// The stored current graph is decoded into a scratch snapshot, which the
	// pending nodes below are read against and which is dropped once the pool
	// holds it.
	cur := graph.NewSnapshot()
	d.Apply(cur)
	dg.pool.LoadCurrent(cur)
	dg.curSize = cur.Size()
	buf, err = dg.store.Get(kvstore.EncodeKey(0, pi.CurrentID, kvstore.ComponentTransient))
	if err == nil {
		dg.recent, err = delta.DecodeEvents(buf)
	}
	if err != nil && err != kvstore.ErrNotFound { // not found: the eventlist was empty
		return nil, fmt.Errorf("deltagraph: checkpoint recent eventlist: %w", err)
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

	// Restore builder pending state, each graph as a patch against the
	// current one. The spine waits for the first read (or for a pinned node
	// below, whose path starts at the root).
	dg.pending = nil
	for _, level := range pi.Pending {
		row := make([]pendingChild, 0, len(level))
		for _, c := range level {
			d, err := dg.loadDelta(c.SnapID)
			if err != nil {
				return nil, err
			}
			if c.Aux == nil {
				c.Aux = dg.emptyAux()
			}
			toPatch := patchOf
			if c.OnCurrent {
				toPatch = patchFrom
			}
			row = append(row, pendingChild{node: c.Node, size: dg.skel.nodes[c.Node].size, patch: toPatch(d, cur), aux: c.Aux})
		}
		dg.pending = append(dg.pending, row)
	}
	dg.settlePendingLocked()
	dg.spineStale = true
	if err := dg.dropPayloads(pi.PrevFirstID, pi.FirstID); err != nil {
		return nil, err
	}
	if err := dg.materializeLocked(pinned); err != nil {
		return nil, fmt.Errorf("deltagraph: re-materializing nodes %v: %w", pinned, err)
	}
	return dg, nil
}
