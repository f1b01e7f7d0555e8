package baseline

import (
	"fmt"
	"sort"

	"historygraph/internal/delta"
	"historygraph/internal/graph"
	"historygraph/internal/kvstore"
)

// CopyLog is the Copy+Log approach (Section 4.1): a full snapshot is
// persisted every C events, plus the eventlists between snapshots; a query
// loads the latest snapshot at or before t and replays the following
// events. It is equivalent to a DeltaGraph with the Empty differential
// function and arity N, but implemented standalone as an honest baseline.
type CopyLog struct {
	store     kvstore.Store
	times     []graph.Time // snapshot timepoints (times[0] = before time)
	snapIDs   []uint64
	eventIDs  []uint64 // eventIDs[i] covers (times[i], times[i+1]]
	nextID    uint64
	chunk     int
	lastTime  graph.Time
	snapBytes int64
}

// BuildCopyLog constructs the Copy+Log store over a chronological trace,
// persisting a snapshot every chunk events (extended to a timestamp
// boundary, like DeltaGraph leaf cuts).
func BuildCopyLog(events graph.EventList, chunk int, store kvstore.Store) (*CopyLog, error) {
	if store == nil {
		store = kvstore.NewMemStore()
	}
	if chunk <= 0 {
		chunk = 4096
	}
	cl := &CopyLog{store: store, chunk: chunk, nextID: 1}
	cur := graph.NewSnapshot()
	cl.times = append(cl.times, -1<<62)
	if err := cl.putSnapshot(cur); err != nil {
		return nil, err
	}
	var pendingEvents graph.EventList
	flush := func() error {
		if len(pendingEvents) == 0 {
			return nil
		}
		id := cl.nextID
		cl.nextID++
		if err := store.Put(kvstore.EncodeKey(0, id, kvstore.ComponentStruct), delta.EncodeEvents(pendingEvents)); err != nil {
			return err
		}
		cl.eventIDs = append(cl.eventIDs, id)
		cl.times = append(cl.times, pendingEvents[len(pendingEvents)-1].At)
		pendingEvents = nil
		return cl.putSnapshot(cur)
	}
	for _, ev := range events {
		if len(pendingEvents) >= chunk && ev.At > cl.lastTime {
			if err := flush(); err != nil {
				return nil, err
			}
		}
		cur.Apply(ev)
		pendingEvents = append(pendingEvents, ev)
		cl.lastTime = ev.At
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return cl, nil
}

func (cl *CopyLog) putSnapshot(s *graph.Snapshot) error {
	id := cl.nextID
	cl.nextID++
	d := delta.FromSnapshot(s)
	var total int64
	for comp, buf := range map[kvstore.Component][]byte{
		kvstore.ComponentStruct:   delta.EncodeStructCol(d),
		kvstore.ComponentNodeAttr: delta.EncodeNodeAttrCol(d),
		kvstore.ComponentEdgeAttr: delta.EncodeEdgeAttrCol(d),
	} {
		if err := cl.store.Put(kvstore.EncodeKey(0, id, comp), buf); err != nil {
			return err
		}
		total += int64(len(buf))
	}
	cl.snapIDs = append(cl.snapIDs, id)
	cl.snapBytes += total
	return nil
}

// Name implements SnapshotStore.
func (cl *CopyLog) Name() string { return "copy+log" }

// Snapshots returns the number of persisted full snapshots.
func (cl *CopyLog) Snapshots() int { return len(cl.snapIDs) }

// Snapshot implements SnapshotStore.
func (cl *CopyLog) Snapshot(t graph.Time, opts graph.AttrOptions) (*graph.Snapshot, error) {
	// Latest persisted snapshot with time <= t.
	i := sort.Search(len(cl.times), func(i int) bool { return cl.times[i] > t }) - 1
	if i < 0 {
		return graph.NewSnapshot(), nil
	}
	s, err := cl.loadSnapshot(cl.snapIDs[i], opts)
	if err != nil {
		return nil, err
	}
	// Replay the following eventlist up to t.
	if i < len(cl.eventIDs) && t > cl.times[i] {
		buf, err := cl.store.Get(kvstore.EncodeKey(0, cl.eventIDs[i], kvstore.ComponentStruct))
		if err != nil {
			return nil, err
		}
		evs, err := delta.DecodeEvents(nil, buf)
		if err != nil {
			return nil, err
		}
		el := graph.EventList(evs)
		for _, ev := range el[:el.SearchTime(t)] {
			if opts.FilterEvent(ev) {
				s.Apply(ev)
			}
		}
	}
	return opts.FilterSnapshot(s), nil
}

func (cl *CopyLog) loadSnapshot(id uint64, opts graph.AttrOptions) (*graph.Snapshot, error) {
	var d delta.Delta
	buf, err := cl.store.Get(kvstore.EncodeKey(0, id, kvstore.ComponentStruct))
	if err != nil {
		return nil, fmt.Errorf("copylog: missing snapshot %d: %w", id, err)
	}
	if err := delta.DecodeStructCol(buf, &d); err != nil {
		return nil, err
	}
	if opts.AnyNodeAttrs() {
		if buf, err := cl.store.Get(kvstore.EncodeKey(0, id, kvstore.ComponentNodeAttr)); err == nil {
			if err := delta.DecodeNodeAttrCol(buf, &d); err != nil {
				return nil, err
			}
		}
	}
	if opts.AnyEdgeAttrs() {
		if buf, err := cl.store.Get(kvstore.EncodeKey(0, id, kvstore.ComponentEdgeAttr)); err == nil {
			if err := delta.DecodeEdgeAttrCol(buf, &d); err != nil {
				return nil, err
			}
		}
	}
	s := graph.NewSnapshot()
	d.Apply(s)
	return s, nil
}

// DiskBytes implements SnapshotStore.
func (cl *CopyLog) DiskBytes() int64 { return cl.store.SizeOnDisk() }

// MemoryBytes implements SnapshotStore: Copy+Log keeps only the tiny
// snapshot-time directory in memory.
func (cl *CopyLog) MemoryBytes() int64 { return int64(len(cl.times)) * 24 }
