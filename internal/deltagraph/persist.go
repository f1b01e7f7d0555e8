package deltagraph

import (
	"encoding/json"
	"fmt"
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
// for it. A pending node's graph is written whole, whatever form the builder
// holds it in.

const (
	metaDeltaID   = math.MaxUint64
	metaComponent = kvstore.Component(250)
	// Version of the checkpoint layout. 2: graphs are codec payloads beside
	// the JSON meta record, and the spine is not stored. 3: those payloads,
	// and every other in the store, are in stored format 3 (delta/codec.go).
	checkpointVersion = 3
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
	Node   int           `json:"node"`
	SnapID uint64        `json:"snap_id"` // payload id of the node's graph
	Aux    []AuxSnapshot `json:"aux,omitempty"`
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
	putGraph := func(s *graph.Snapshot) (uint64, error) {
		id := pi.NextID
		pi.NextID--
		// A checkpoint that a crash cut short may have left columns here.
		if err := dg.dropPayloads(id, id-1); err != nil {
			return 0, err
		}
		return id, putCols(dg.store, 0, id, delta.FromSnapshot(s), true, sizes)
	}
	var err error
	if pi.CurrentID, err = putGraph(dg.current); err == nil && len(dg.recent) > 0 {
		err = putCol(dg.store, 0, pi.CurrentID, kvstore.ComponentTransient, delta.EncodeEvents(dg.recent), sizes)
	}
	if err != nil {
		return err
	}
	for _, level := range dg.pending {
		row := make([]persistedChild, 0, len(level))
		for _, c := range level {
			id, err := putGraph(dg.graphLocked(c))
			if err != nil {
				return err
			}
			row = append(row, persistedChild{Node: c.node, SnapID: id, Aux: c.aux})
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

// loadGraph reads a graph payload written by Checkpoint.
func (dg *DeltaGraph) loadGraph(id uint64) (*graph.Snapshot, error) {
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
	s := graph.NewSnapshot()
	d.Apply(s)
	return s, nil
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
	if pi.Version != checkpointVersion {
		return nil, fmt.Errorf("deltagraph: checkpoint has format v%d, this build reads only v%d: "+
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
	if dg.current, err = dg.loadGraph(pi.CurrentID); err != nil {
		return nil, err
	}
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
	dg.curSize = dg.current.Size()
	dg.pending = nil
	for _, level := range pi.Pending {
		row := make([]pendingChild, 0, len(level))
		for _, c := range level {
			snap, err := dg.loadGraph(c.SnapID)
			if err != nil {
				return nil, err
			}
			if c.Aux == nil {
				c.Aux = dg.emptyAux()
			}
			row = append(row, pendingChild{node: c.Node, size: dg.skel.nodes[c.Node].size, patch: dg.patchOf(snap), aux: c.Aux})
		}
		dg.pending = append(dg.pending, row)
	}
	dg.spineStale = true
	if err := dg.dropPayloads(pi.PrevFirstID, pi.FirstID); err != nil {
		return nil, err
	}
	if err := dg.materializeLocked(pinned); err != nil {
		return nil, fmt.Errorf("deltagraph: re-materializing nodes %v: %w", pinned, err)
	}
	// Mirror the current graph into the pool.
	if dg.pool != nil {
		dg.pool.LoadCurrent(dg.current)
	}
	return dg, nil
}
