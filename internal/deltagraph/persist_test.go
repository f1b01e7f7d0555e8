package deltagraph

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"historygraph/internal/baseline"
	"historygraph/internal/datagen"
	"historygraph/internal/delta"
	"historygraph/internal/graph"
	"historygraph/internal/kvstore"
)

// cutStore is a FileStore that notes the log offset after every write: each
// is a record boundary a crash could have left the file at.
type cutStore struct {
	*kvstore.FileStore
	cuts      []int64
	metaEnd   int64 // offset just past the last meta record written
	firstTomb int64 // offset just past the first tombstone written (0: none)
}

func (c *cutStore) Put(key, val []byte) error {
	err := c.FileStore.Put(key, val)
	c.cuts = append(c.cuts, c.SizeOnDisk())
	if bytes.Equal(key, metaKey) {
		c.metaEnd = c.SizeOnDisk()
	}
	return err
}

func (c *cutStore) Delete(key []byte) error {
	before := c.SizeOnDisk()
	err := c.FileStore.Delete(key)
	if after := c.SizeOnDisk(); after != before {
		c.cuts = append(c.cuts, after)
		if c.firstTomb == 0 {
			c.firstTomb = after
		}
	}
	return err
}

func openFileStore(t testing.TB, path string) *kvstore.FileStore {
	t.Helper()
	fs, err := kvstore.OpenFileStore(path, kvstore.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// lastCheckpoint reads the meta record of the store's newest checkpoint.
func lastCheckpoint(t testing.TB, store kvstore.Store) persistedIndex {
	t.Helper()
	buf, err := store.Get(metaKey)
	if err != nil {
		t.Fatal(err)
	}
	var pi persistedIndex
	if err := json.Unmarshal(buf, &pi); err != nil {
		t.Fatal(err)
	}
	return pi
}

// pendingChildren lists a checkpoint's pending nodes, lowest level first, as
// the meta record holds them (Checkpoint writes their payloads highest level
// first, the order of the walk).
func (pi persistedIndex) pendingChildren() []persistedChild {
	var out []persistedChild
	for _, row := range pi.Pending {
		out = append(out, row...)
	}
	return out
}

// basesOf counts a checkpoint's pending node payloads by the base they build
// on, and the nodes that need none (bare: the graph is its base).
func basesOf(pi persistedIndex) (onLeaf, onNull, bare int) {
	for _, c := range pi.pendingChildren() {
		switch {
		case c.SnapID == 0:
			bare++
		case c.OnLeaf:
			onLeaf++
		default:
			onNull++
		}
	}
	return onLeaf, onNull, bare
}

// checkBaseCounts: a pending node's size, which Checkpoint weighs the delta
// from its first leaf against, is the length of its delta from the null
// graph, and its pool graph counts its nodes and edges.
func checkBaseCounts(t testing.TB, dg *DeltaGraph) {
	t.Helper()
	for level, row := range dg.pending {
		for _, c := range row {
			g := c.graph.Snapshot()
			if want := delta.FromSnapshot(g).Len(); c.size != want {
				t.Errorf("pending node at level %d: size %d, its delta from the null graph has %d records", level, c.size, want)
			}
			if c.graph.NumNodes() != len(g.Nodes) || c.graph.NumEdges() != len(g.Edges) {
				t.Errorf("pending node at level %d: the pool counts %d nodes and %d edges, its graph has %d and %d",
					level, c.graph.NumNodes(), c.graph.NumEdges(), len(g.Nodes), len(g.Edges))
			}
		}
	}
}

// TestCheckpointCrashAtomic cuts a copy of the store file at every record
// boundary of two successive checkpoints (and inside a payload and a meta
// record): Open must see no checkpoint, exactly the first, or exactly the
// second — and the index it returns must take the rest of the history. Under
// intersection the second checkpoint stores payloads from first leaves beside
// a pending leaf that needs none, so the current graph is rebuilt through the
// walk; under union every payload, the last one too, is from a first leaf,
// so the boundary just before the meta record lies between such a payload
// and its commit.
func TestCheckpointCrashAtomic(t *testing.T) {
	t.Run("intersection", func(t *testing.T) { crashAtomic(t, delta.Intersection{}, 700, 1000, false) })
	t.Run("union", func(t *testing.T) { crashAtomic(t, delta.Union{}, 300, 560, true) })
}

// crashAtomic checkpoints after nA and after nB events. The second checkpoint
// must store payloads from first leaves and a node with none, or, if
// lastOnLeaf, payloads from first leaves alone.
func crashAtomic(t *testing.T, fn delta.Differential, nA, nB int, lastOnLeaf bool) {
	events := makeTrace(21, 1300)
	dir := t.TempDir()
	path := filepath.Join(dir, "index")
	cs := &cutStore{FileStore: openFileStore(t, path)}
	dg, err := New(Options{LeafSize: 64, Arity: 2, Function: fn, Store: cs})
	if err != nil {
		t.Fatal(err)
	}
	step := func(evs graph.EventList) (cuts []int64, metaEnd int64) {
		t.Helper()
		err := dg.AppendAll(evs)
		if err == nil {
			err = dg.Flush() // the builder's puts come before the checkpoint
		}
		if err != nil {
			t.Fatal(err)
		}
		cs.cuts = []int64{cs.SizeOnDisk()} // the state just before the checkpoint
		if err := dg.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		return cs.cuts, cs.metaEnd
	}
	cutsA, metaA := step(events[:nA])
	if cs.firstTomb != 0 {
		t.Fatal("the first checkpoint deleted something")
	}
	cutsB, metaB := step(events[nA:nB]) // several leaves later
	if cs.firstTomb <= metaB {
		t.Fatalf("checkpoint A's payloads were deleted at offset %d, before B's meta was written (ends at %d)", cs.firstTomb, metaB)
	}
	onLeaf, onNull, bare := basesOf(lastCheckpoint(t, cs))
	if lastOnLeaf && (onLeaf == 0 || onNull > 0) || !lastOnLeaf && (onLeaf == 0 || bare == 0) {
		t.Fatalf("checkpoint B stores %d payloads from first leaves and %d from the null graph, and %d pending nodes without one: the cuts miss a case",
			onLeaf, onNull, bare)
	}
	if err := dg.Flush(); err != nil { // the tombstones reach the file
		t.Fatal(err)
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Every boundary, plus one cut inside B's first payload and one inside
	// B's meta record.
	cuts := append(append(cutsA, cutsB...), cutsB[1]-1, metaB-1, int64(len(data)))
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	seen := map[int]int{}
	for i, c := range cuts {
		if i > 0 && c == cuts[i-1] {
			continue
		}
		want := 0 // events the reopened index must hold; 0: no checkpoint
		switch {
		case c >= metaB:
			want = nB
		case c >= metaA:
			want = nA
		}
		seen[want]++
		cut := filepath.Join(dir, fmt.Sprintf("cut-%d", c))
		if err := os.WriteFile(cut, data[:c], 0o644); err != nil {
			t.Fatal(err)
		}
		fs := openFileStore(t, cut)
		re, err := Open(Options{Store: fs})
		if want == 0 {
			if err == nil || !strings.Contains(err.Error(), "no checkpoint") {
				t.Fatalf("cut at %d (before A's meta at %d): Open = %v, want no checkpoint", c, metaA, err)
			}
			fs.Close()
			continue
		}
		if err != nil {
			t.Fatalf("cut at %d: %v", c, err)
		}
		if got := re.LastTime(); got != events[want-1].At {
			t.Fatalf("cut at %d: last time %d, want %d", c, got, events[want-1].At)
		}
		if !re.CurrentSnapshot().Equal(graph.SnapshotAt(events[:want], events[want-1].At)) {
			t.Fatalf("cut at %d: current graph is not the one after %d events", c, want)
		}
		checkAgainstReference(t, re, events[:want], allAttrs, probeTimes(events[:want], 9))
		// The rest of the history replays over whatever the crash left
		// behind, and a checkpoint taken then (reusing the ids of the torn
		// one) reopens to the same answers.
		if err := re.AppendAll(events[want:]); err != nil {
			t.Fatalf("cut at %d: append after reopen: %v", c, err)
		}
		checkAgainstReference(t, re, events, allAttrs, probeTimes(events, 9))
		if err := re.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		again, err := Open(Options{Store: fs})
		if err != nil {
			t.Fatalf("cut at %d: second reopen: %v", c, err)
		}
		checkAgainstReference(t, again, events, allAttrs, probeTimes(events, 9))
		fs.Close()
	}
	if seen[0] < 2 || seen[nA] < 5 || seen[nB] < 2 {
		t.Fatalf("cuts did not cover all three outcomes: %v", seen)
	}
}

// TestCheckpointOverTornOne: a checkpoint cut short by a crash leaves
// payloads under ids the next one takes again. None of their columns may
// show through, even where the new graph has no such column. In both cases
// the torn checkpoint stores its level-1 node with an attribute column: from
// the null graph (an intersection far from its first leaf, holding an
// attribute) or from that leaf (a union holding an attribute the leaf lacks).
// In the history that came true the node takes the same id with no such
// column.
// (Both histories give the stored eventlists the same columns: a permanent
// payload rewritten by another history is not what this is about.)
func TestCheckpointOverTornOne(t *testing.T) {
	attr := func(at graph.Time, name string, set bool) graph.Event {
		return graph.Event{Type: graph.SetNodeAttr, At: at, Node: 1, Attr: name, New: "x", HasNew: set}
	}
	node := func(at graph.Time, n int) graph.Event {
		return graph.Event{Type: graph.AddNode, At: at, Node: graph.NodeID(n)}
	}
	del := func(at graph.Time, n int) graph.Event {
		return graph.Event{Type: graph.DelNode, At: at, Node: graph.NodeID(n)}
	}
	for name, tc := range map[string]struct {
		fn          delta.Differential
		leaf        int
		onLeaf      bool // the torn payload's base
		bare        graph.EventList
		torn, other graph.EventList // the history the torn checkpoint saw, and the one that came true
	}{
		"on-null": {delta.Intersection{}, 5, false,
			graph.EventList{node(1, 1), attr(2, "name", true), node(3, 2), node(4, 3), node(5, 4)},
			graph.EventList{del(6, 2), del(7, 3), del(8, 4), node(9, 5), node(10, 6), node(11, 7)},
			graph.EventList{node(6, 5), del(7, 2), node(8, 6), node(9, 7), node(10, 8), node(11, 9)}},
		"on-leaf": {delta.Union{}, 4, true,
			graph.EventList{node(1, 1), node(2, 2), node(3, 3), attr(4, "name", true)},
			graph.EventList{attr(5, "age", true), node(6, 6), node(7, 7), node(8, 8), node(9, 9)},
			graph.EventList{attr(5, "name", false), node(6, 6), node(7, 7), node(8, 8), node(9, 9)}},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "index")
			cs := &cutStore{FileStore: openFileStore(t, path)}
			dg, err := New(Options{LeafSize: tc.leaf, Arity: 2, Function: tc.fn, Store: cs})
			if err != nil {
				t.Fatal(err)
			}
			bare := tc.bare
			if err := dg.AppendAll(bare); err != nil {
				t.Fatal(err)
			}
			if err := dg.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			// The torn checkpoint's graphs carry an attribute column.
			if err := dg.AppendAll(tc.torn); err != nil {
				t.Fatal(err)
			}
			if err := dg.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			withAttrs := func(store kvstore.Store, c persistedChild) bool {
				_, err := store.Get(kvstore.EncodeKey(0, c.SnapID, kvstore.ComponentNodeAttr))
				return err == nil
			}
			var tornID uint64 // the torn checkpoint's payload with that column
			for _, c := range lastCheckpoint(t, cs).pendingChildren() {
				if c.SnapID != 0 && c.OnLeaf == tc.onLeaf && withAttrs(cs, c) {
					tornID = c.SnapID
				}
			}
			if tornID == 0 {
				t.Fatal("the torn checkpoint has no payload with an attribute column on the base the case is for")
			}
			tornAt := int64(0) // the boundary just before its meta record
			for _, c := range cs.cuts {
				if c < cs.metaEnd && c > tornAt {
					tornAt = c
				}
			}
			cs.Close()
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:tornAt], 0o644); err != nil {
				t.Fatal(err)
			}
			fs := openFileStore(t, path)
			defer fs.Close()
			re, err := Open(Options{Store: fs})
			if err != nil {
				t.Fatal(err)
			}
			// History continues differently, without the torn node's attribute.
			other := append(bare, tc.other...)
			if err := re.AppendAll(tc.other); err != nil {
				t.Fatal(err)
			}
			if err := re.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			reused := false
			for _, c := range lastCheckpoint(t, fs).pendingChildren() {
				if c.SnapID == tornID {
					if reused = true; withAttrs(fs, c) {
						t.Fatalf("payload %d of the new checkpoint has an attribute column", tornID)
					}
				}
			}
			if !reused {
				t.Fatalf("the new checkpoint does not store a pending node under the torn payload's id %d", tornID)
			}
			again, err := Open(Options{Store: fs})
			if err != nil {
				t.Fatal(err)
			}
			last := other[len(other)-1].At
			if !again.CurrentSnapshot().Equal(graph.SnapshotAt(other, last)) {
				t.Fatalf("current graph after the second reopen: %v", again.CurrentSnapshot().NodeAttrs)
			}
			checkAgainstReference(t, again, other, allAttrs, probeTimes(other, int(last)))
		})
	}
}

// TestOpenRefusesOldCheckpoints checks that a checkpoint in an earlier layout
// (v1: graphs inside the JSON; v2: graphs as format-2 payloads) is refused
// with the way out in the message, before any payload is touched. The message
// names the layouts this build does read.
func TestOpenRefusesOldCheckpoints(t *testing.T) {
	for version, meta := range map[string]string{
		"v1": `{"version":1,"leaf_size":64,"arity":2,"partitions":1,"function":"intersection",` +
			`"current":{"nodes":[1],"edges":{}},"recent":[{"Type":1,"At":1,"Node":1}],"pending":[[{"node":2,"snap":{"nodes":[1],"edges":{}}}]]}`,
		"v2": `{"version":2,"leaf_size":64,"arity":2,"partitions":1,"function":"intersection","next_delta_id":3,"last_time":9,` +
			`"nodes":[],"edges":[],"leaves":[1],"current_id":18446744073709551614,"pending":[[]],` +
			`"first_id":18446744073709551614,"next_id":18446744073709551613,"prev_first_id":18446744073709551614,"payload_bytes":5}`,
	} {
		store := kvstore.NewMemStore()
		if err := store.Put(metaKey, []byte(meta)); err != nil {
			t.Fatal(err)
		}
		// The v2 checkpoint's current graph, as format 2 wrote it.
		if err := store.Put(kvstore.EncodeKey(0, metaDeltaID-1, kvstore.ComponentStruct), []byte{0x01, 0, 0, 0, 0}); err != nil {
			t.Fatal(err)
		}
		_, err := Open(Options{Store: store})
		if err == nil {
			t.Fatalf("Open of a %s checkpoint succeeded", version)
		}
		for _, want := range []string{version, "reads only v3–v5", "WAL", "dgload", "rebuild"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("Open of a %s checkpoint = %v, want a refusal with %q in it", version, err, want)
			}
		}
	}
}

// TestOpenReadsV3Checkpoint opens testdata/checkpoint_v3.store, which the
// commit before checkpoint layout 4 (950dd6d) wrote: makeTrace(26, 408)
// ingested live at leaf size 16 and arity 2, then Checkpoint — 24 leaves,
// pending nodes at levels 3 and 4, eight recent events, every graph a delta
// from the null graph, every value stored as it is. Never regenerate it with
// a current build. The index must answer as naive replay does, take the rest
// of the history as an index that was never closed would, checkpoint in
// layout 5 from then on, and reopen from a file whose new records are
// compressed behind the old raw ones.
func TestOpenReadsV3Checkpoint(t *testing.T) {
	fixture, err := os.ReadFile("testdata/checkpoint_v3.store")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index")
	if err := os.WriteFile(path, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	oldRaw, oldCompressed := storedRecords(t, path)
	if oldRaw == 0 || oldCompressed != 0 {
		t.Fatalf("the fixture holds %d raw and %d compressed values", oldRaw, oldCompressed)
	}
	fs := openFileStore(t, path)
	defer fs.Close()
	const held = 408
	events := makeTrace(26, held+4*16)
	pi := lastCheckpoint(t, fs)
	if onLeaf, onNull, _ := basesOf(pi); pi.Version != 3 || onLeaf != 0 || onNull < 2 {
		t.Fatalf("the fixture is a v%d checkpoint with %d + %d pending nodes", pi.Version, onLeaf, onNull)
	}
	re, err := Open(Options{Store: fs})
	if err != nil {
		t.Fatal(err)
	}
	if re.LastTime() != events[held-1].At || !re.CurrentSnapshot().Equal(graph.SnapshotAt(events[:held], events[held-1].At)) {
		t.Fatalf("the reopened index ends at %d, the fixture's events at %d", re.LastTime(), events[held-1].At)
	}
	checkAgainstReference(t, re, events[:held], allAttrs, reopenTimes(re))

	leaves := len(re.LeafTimes())
	if err := re.AppendAll(events[held:]); err != nil {
		t.Fatal(err)
	}
	if got := len(re.LeafTimes()); got < leaves+2 {
		t.Fatalf("leaves after reopen went %d -> %d, want two more", leaves, got)
	}
	checkAgainstReference(t, re, events, allAttrs, reopenTimes(re))
	never, err := New(Options{LeafSize: 16, Arity: 2})
	if err == nil {
		err = never.AppendAll(events)
	}
	if err == nil {
		err = never.Flush() // the builder's puts reach the store
	}
	if err != nil {
		t.Fatal(err)
	}
	if re.nextDeltaID != never.nextDeltaID {
		t.Fatalf("next delta id %d, a never-closed index has %d", re.nextDeltaID, never.nextDeltaID)
	}
	// The fixture's payloads are in stored format 3, a never-closed index's
	// in format 4: they differ in bytes and must decode alike.
	old, fresh := payloads(t, fs, 1, 1, re.nextDeltaID, kvstore.ComponentAuxBase), payloads(t, never.store, 1, 1, never.nextDeltaID, kvstore.ComponentAuxBase)
	if first := string(kvstore.EncodeKey(0, 1, kvstore.ComponentStruct)); bytes.Equal(old[first], fresh[first]) {
		t.Fatal("the fixture's first payload is in the format written now")
	}
	samePayloads(t, "permanent payloads, decoded", decodedPayloads(t, old), decodedPayloads(t, fresh))

	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	pi = lastCheckpoint(t, fs)
	if onLeaf, _, _ := basesOf(pi); pi.Version != 5 || onLeaf == 0 {
		t.Fatalf("the next checkpoint is v%d with %d pending nodes stored from their first leaves", pi.Version, onLeaf)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	if raw, compressed := storedRecords(t, path); raw < oldRaw || compressed == 0 {
		t.Fatalf("after appends and a checkpoint the file holds %d raw and %d compressed values, the fixture %d raw", raw, compressed, oldRaw)
	}
	fs = openFileStore(t, path)
	defer fs.Close()
	again, err := Open(Options{Store: fs})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, again, events, allAttrs, reopenTimes(again))
}

// TestOpenReadsV4Checkpoint opens testdata/checkpoint_v4.store, which the
// commit before checkpoint layout 5 (28bc215) wrote: makeTrace(26, 500)
// appended at leaf size 16 and arity 2, then Checkpoint — 30 leaves, pending
// nodes at levels 1 to 4, three stored from the current graph and one from
// the null graph, beside the current graph whole. Never regenerate it with a
// current build. The index must answer as naive replay does at every leaf
// time and the head, again after two more leaves, and once more reopened
// from the layout-5 checkpoint it takes then.
func TestOpenReadsV4Checkpoint(t *testing.T) {
	fixture, err := os.ReadFile("testdata/checkpoint_v4.store")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index")
	if err := os.WriteFile(path, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	fs := openFileStore(t, path)
	defer fs.Close()
	const held = 500
	events := makeTrace(26, held+2*16)
	pi, onCurrent := lastCheckpoint(t, fs), 0
	for _, c := range pi.pendingChildren() {
		if c.OnCurrent {
			onCurrent++
		}
	}
	if pi.Version != 4 || onCurrent == 0 || onCurrent == len(pi.pendingChildren()) {
		t.Fatalf("the fixture is a v%d checkpoint with %d of %d pending nodes stored from the current graph", pi.Version, onCurrent, len(pi.pendingChildren()))
	}
	re, err := Open(Options{Store: fs})
	if err != nil {
		t.Fatal(err)
	}
	if re.LastTime() != events[held-1].At || !re.CurrentSnapshot().Equal(graph.SnapshotAt(events[:held], events[held-1].At)) {
		t.Fatalf("the reopened index ends at %d, the fixture's events at %d", re.LastTime(), events[held-1].At)
	}
	checkAgainstReference(t, re, events[:held], allAttrs, append(reopenTimes(re), re.LastTime()))

	leaves := len(re.LeafTimes())
	if err := re.AppendAll(events[held:]); err != nil {
		t.Fatal(err)
	}
	if got := len(re.LeafTimes()); got < leaves+2 {
		t.Fatalf("leaves after reopen went %d -> %d, want two more", leaves, got)
	}
	checkAgainstReference(t, re, events, allAttrs, append(reopenTimes(re), re.LastTime()))
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if v := lastCheckpoint(t, fs).Version; v != 5 {
		t.Fatalf("the next checkpoint is v%d", v)
	}
	again, err := Open(Options{Store: fs})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, again, events, allAttrs, append(reopenTimes(again), again.LastTime()))
}

// TestGrowingHistoryCheckpointsNoGraph: where the history only adds, every
// pending node equals its first leaf, so a checkpoint writes the recent
// eventlist and the meta record and no graph payload — and reopens exact.
func TestGrowingHistoryCheckpointsNoGraph(t *testing.T) {
	var events graph.EventList
	for i := 1; i <= 700; i++ {
		events = append(events, graph.Event{Type: graph.AddNode, At: graph.Time(i), Node: graph.NodeID(i)},
			graph.Event{Type: graph.SetNodeAttr, At: graph.Time(i), Node: graph.NodeID(i), Attr: "name", New: "n", HasNew: true})
		if i > 1 {
			events = append(events, graph.Event{Type: graph.AddEdge, At: graph.Time(i), Edge: graph.EdgeID(i), Node: graph.NodeID(i - 1), Node2: graph.NodeID(i)})
		}
	}
	cs := &cutStore{FileStore: openFileStore(t, filepath.Join(t.TempDir(), "index"))}
	defer cs.Close()
	dg, err := New(Options{LeafSize: 64, Arity: 2, Store: cs})
	if err == nil {
		err = dg.AppendAll(events)
	}
	if err == nil {
		err = dg.Flush() // the builder's puts are not the checkpoint's
	}
	if err != nil {
		t.Fatal(err)
	}
	cs.cuts = nil
	if err := dg.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	pi := lastCheckpoint(t, cs)
	if _, _, bare := basesOf(pi); len(pi.Pending) < 3 || bare != len(pi.pendingChildren()) || dg.recent.len() == 0 {
		t.Fatalf("pending levels %d, %d of %d pending nodes without a payload, %d recent events", len(pi.Pending), bare, len(pi.pendingChildren()), dg.recent.len())
	}
	if _, err := cs.Get(kvstore.EncodeKey(0, pi.CurrentID, kvstore.ComponentTransient)); err != nil || len(cs.cuts) != 2 {
		t.Fatalf("the checkpoint wrote %d records (the recent eventlist: %v), want it and the meta record", len(cs.cuts), err)
	}
	re, err := Open(Options{Store: cs})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, re, events, allAttrs, append(reopenTimes(re), re.LastTime()))
}

// decodedPayloads is each payload, a delta column or an eventlist, printed
// as its decoder reads it, so that payloads of two stored formats compare.
func decodedPayloads(t *testing.T, ps map[string][]byte) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte, len(ps))
	for key, buf := range ps {
		var d delta.Delta
		if delta.DecodeStructCol(buf, &d) == nil || delta.DecodeNodeAttrCol(buf, &d) == nil || delta.DecodeEdgeAttrCol(buf, &d) == nil {
			out[key] = fmt.Appendf(nil, "%+v", d)
			continue
		}
		evs, err := delta.DecodeEvents(nil, buf)
		if err != nil {
			t.Fatalf("a payload of %d B is no delta column and no eventlist: %v", len(buf), err)
		}
		out[key] = fmt.Appendf(nil, "%+v", evs)
	}
	return out
}

// storedRecords counts the values in a FileStore log by how they are stored:
// as they are, or flate-compressed (flags bit 1; bit 0 marks a tombstone).
func storedRecords(t *testing.T, path string) (raw, compressed int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for b := data[len("HGKV1\n"):]; len(b) > 0; {
		keyLen, n := binary.Uvarint(b)
		valLen, m := binary.Uvarint(b[n:])
		switch flags := b[n+m]; {
		case flags&1 != 0:
		case flags&2 != 0:
			compressed++
		default:
			raw++
		}
		b = b[n+m+1+int(keyLen)+int(valLen)+4:]
	}
	return raw, compressed
}

// TestGoldenStoredBytes pins the counter behind index_bytes_per_event on
// retrieve-embedded and serve-hot: the repository benchmark's seed-1 trace,
// bulk-built at leaf size 4096 into a FileStore, is a file of 572 115 B, 7.15
// B an event. It was 737 682 B in stored format 3, whose payloads interleave
// each record's fields, and 1 133 554 B before the store compressed every
// value. TestOpenReadsV3Checkpoint reads a file of raw values with new
// compressed ones behind them.
func TestGoldenStoredBytes(t *testing.T) {
	events := benchTrace(1, 1)
	fs := openFileStore(t, filepath.Join(t.TempDir(), "index"))
	defer fs.Close()
	if _, err := Build(events, Options{LeafSize: 4096, Store: fs}); err != nil {
		t.Fatal(err)
	}
	if got := fs.SizeOnDisk(); len(events) != 79999 || got != 572115 {
		t.Errorf("%d events built a %d B index, was 572115", len(events), got)
	}
}

// reopenTimes is every leaf time plus three mid-leaf times.
func reopenTimes(dg *DeltaGraph) []graph.Time {
	ts := dg.LeafTimes()
	for _, i := range []int{1, len(ts) / 2, len(ts) - 1} {
		ts = append(ts, (ts[i-1]+ts[i])/2)
	}
	return ts
}

// TestReopenDifferential closes and reopens indexes of many shapes and
// checks every answer, as a snapshot and as a view in the pool, against the
// one before closing and against naive log replay, then grows the reopened index by two more leaves and checks again:
// that is what proves the restored pending nodes.
func TestReopenDifferential(t *testing.T) {
	events := makeTrace(22, 3400)
	structOnly := graph.AttrOptions{}
	// The replays the cases share: each prefix of the trace is logged once,
	// and each answer of it, and of the auxiliary index, read once.
	type replayKey struct {
		held  int
		q     graph.Time
		attrs bool
	}
	var mu sync.Mutex
	logs, replays, auxReplays := map[int]*baseline.NaiveLog{}, map[replayKey]*graph.Snapshot{}, map[graph.Time]AuxSnapshot{}
	replay := func(t *testing.T, held int, q graph.Time, attrs bool) *graph.Snapshot {
		t.Helper()
		mu.Lock()
		defer mu.Unlock()
		key, opts := replayKey{held, q, attrs}, structOnly
		if attrs {
			opts = allAttrs
		}
		if s, ok := replays[key]; ok {
			return s
		}
		if logs[held] == nil {
			prefix, err := baseline.BuildNaiveLog(events[:held], nil)
			if err != nil {
				t.Fatal(err)
			}
			logs[held] = prefix
		}
		s, err := logs[held].Snapshot(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		replays[key] = s
		return s
	}
	auxReplay := func(q graph.Time) AuxSnapshot {
		mu.Lock()
		defer mu.Unlock()
		if _, ok := auxReplays[q]; !ok {
			auxReplays[q] = refAux(events, q)
		}
		return auxReplays[q]
	}
	check := func(t *testing.T, dg *DeltaGraph, held int, before map[graph.Time][2]*graph.Snapshot) map[graph.Time][2]*graph.Snapshot {
		t.Helper()
		if err := dg.validateInvariant(); err != nil {
			t.Fatal(err)
		}
		got := map[graph.Time][2]*graph.Snapshot{}
		for _, q := range reopenTimes(dg) {
			var pair [2]*graph.Snapshot
			for i, opts := range []graph.AttrOptions{allAttrs, structOnly} {
				s, err := dg.GetSnapshot(q, opts)
				if err != nil {
					t.Fatalf("GetSnapshot(%d): %v", q, err)
				}
				want := replay(t, held, q, i == 0)
				if !s.Equal(want) {
					t.Fatalf("t=%d attrs=%v: differs from naive log replay", q, i == 0)
				}
				if b, ok := before[q]; ok && !s.Equal(b[i]) {
					t.Fatalf("t=%d attrs=%v: differs from the answer before closing", q, i == 0)
				}
				pair[i] = s
				// The same through the pool, which an index given none (every
				// one here, reopened or not) makes for itself.
				id, err := dg.Retrieve(q, opts)
				if err != nil {
					t.Fatalf("Retrieve(%d): %v", q, err)
				}
				if view, err := dg.Pool().View(id); err != nil || !view.Snapshot().Equal(want) {
					t.Fatalf("t=%d attrs=%v: the view Retrieve overlaid differs from naive log replay (%v)", q, i == 0, err)
				}
				if err := dg.Pool().Release(id); err != nil {
					t.Fatal(err)
				}
				dg.Pool().CleanNow()
			}
			got[q] = pair
		}
		return got
	}
	for _, arity := range []int{2, 3, 4} {
		for _, leaf := range []int{64, 256} {
			for _, live := range []bool{false, true} {
				for _, mat := range []bool{false, true} {
					name := fmt.Sprintf("k%d/L%d/live=%v/mat=%v", arity, leaf, live, mat)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						held := len(events) - 2*leaf - leaf/2
						path := filepath.Join(t.TempDir(), "index")
						fs := openFileStore(t, path)
						opts := Options{LeafSize: leaf, Arity: arity, Store: fs}
						var dg *DeltaGraph
						var err error
						if live {
							if dg, err = New(opts); err == nil {
								err = appendBatches(dg, events[:held])
							}
						} else {
							dg, err = Build(events[:held], opts)
						}
						if err != nil {
							t.Fatal(err)
						}
						if mat {
							if err := dg.MaterializeLevel("root"); err != nil {
								t.Fatal(err)
							}
						}
						before := check(t, dg, held, nil)
						if err := dg.Checkpoint(); err != nil {
							t.Fatal(err)
						}
						if err := fs.Close(); err != nil {
							t.Fatal(err)
						}
						fs = openFileStore(t, path)
						defer fs.Close()
						re, err := Open(Options{Store: fs})
						if err != nil {
							t.Fatal(err)
						}
						check(t, re, held, before)
						if got := len(re.MaterializedNodes()) > 0; got != mat {
							t.Fatalf("materialized after reopen = %v, want %v", got, mat)
						}
						leaves := len(re.LeafTimes())
						if err := appendBatches(re, events[held:]); err != nil {
							t.Fatal(err)
						}
						if got := len(re.LeafTimes()); got < leaves+2 {
							t.Fatalf("leaves after reopen went %d -> %d, want two more", leaves, got)
						}
						check(t, re, len(events), nil)
					})
				}
			}
		}
	}

	// One shape under every differential function (empty is the one that is
	// not element-wise) and with an auxiliary index. Its checkpoint stores
	// interior nodes as deltas from their first leaves — except under empty,
	// whose interior nodes are the null graph — and a pending leaf with no
	// payload, and the reopened index goes on to write the bytes an index
	// that was never closed writes.
	for _, fn := range []string{"intersection", "union", "balanced", "skewed:0.3", "rightskewed:0.5", "leftskewed:0.5", "empty"} {
		t.Run("bases/"+fn, func(t *testing.T) {
			const held = 2800
			f, err := delta.ByName(fn)
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{LeafSize: 64, Arity: 2, Function: f, AuxIndexes: []AuxIndex{degreeAux{}}}
			never, err := New(opts)
			if err == nil {
				err = appendBatches(never, events)
			}
			if err == nil {
				err = never.Flush() // the builder's puts reach the store
			}
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "index")
			fs := openFileStore(t, path)
			opts.Store = fs
			dg, err := New(opts)
			if err == nil {
				err = appendBatches(dg, events[:held])
			}
			if err != nil {
				t.Fatal(err)
			}
			before := check(t, dg, held, nil)
			checkBaseCounts(t, dg)
			if err := dg.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if onLeaf, _, bare := basesOf(lastCheckpoint(t, fs)); (onLeaf == 0) != (fn == "empty") || bare == 0 {
				t.Fatalf("the checkpoint stores %d pending nodes from their first leaves and %d with no payload", onLeaf, bare)
			}
			if err := fs.Close(); err != nil {
				t.Fatal(err)
			}
			fs = openFileStore(t, path)
			defer fs.Close()
			re, err := Open(Options{Store: fs, AuxIndexes: opts.AuxIndexes})
			if err != nil {
				t.Fatal(err)
			}
			check(t, re, held, before)
			leaves := len(re.LeafTimes())
			if err := appendBatches(re, events[held:]); err != nil {
				t.Fatal(err)
			}
			if got := len(re.LeafTimes()); got < leaves+2 {
				t.Fatalf("leaves after reopen went %d -> %d, want two more", leaves, got)
			}
			check(t, re, len(events), nil)
			if re.nextDeltaID != never.nextDeltaID {
				t.Fatalf("next delta id %d, a never-closed index has %d", re.nextDeltaID, never.nextDeltaID)
			}
			samePayloads(t, "permanent payloads", payloads(t, fs, 1, 1, re.nextDeltaID, kvstore.ComponentAuxBase), payloads(t, never.store, 1, 1, never.nextDeltaID, kvstore.ComponentAuxBase))
			for _, q := range reopenTimes(re) {
				got, err := re.GetAuxSnapshot("degree", q)
				if err != nil {
					t.Fatal(err)
				}
				if !auxEqual(got, auxReplay(q)) {
					t.Fatalf("aux snapshot at %d differs from replay", q)
				}
			}
		})
	}
}

// TestReopenAtEveryStep closes and reopens an index again and again while it
// takes a messy trace (duplicate adds, attributes on absent elements, deletes
// of nothing), so pending nodes go through both payload bases, and through
// needing none, many times over: the permanent payloads must come out as those of an index that was
// never closed.
func TestReopenAtEveryStep(t *testing.T) {
	var onLeaf, onNull, bare int
	for seed := 0; seed < 12; seed++ {
		for _, fn := range []delta.Differential{delta.Intersection{}, delta.Union{}, delta.Balanced(), delta.Empty{}} {
			events := datagen.MessyTrace(int64(200+seed), 1500)
			opts := Options{LeafSize: 24 + seed%3*8, Arity: 2 + seed%2, Function: fn}
			never, err := New(opts)
			if err == nil {
				err = never.AppendAll(events)
			}
			if err == nil {
				err = never.Flush() // the builder's puts reach the store
			}
			if err != nil {
				t.Fatal(err)
			}
			store := kvstore.NewMemStore()
			opts.Store = store
			dg, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			for lo, step := 0, 170+7*seed; lo < len(events); lo += step {
				if err := dg.AppendAll(events[lo:min(lo+step, len(events))]); err != nil {
					t.Fatal(err)
				}
				checkBaseCounts(t, dg)
				if err := dg.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				l, n, b := basesOf(lastCheckpoint(t, store))
				onLeaf, onNull, bare = onLeaf+l, onNull+n, bare+b
				if dg, err = Open(Options{Store: store}); err != nil {
					t.Fatal(err)
				}
			}
			what := fmt.Sprintf("seed %d, %s", seed, fn.Name())
			if dg.nextDeltaID != never.nextDeltaID {
				t.Fatalf("%s: next delta id %d, a never-closed index has %d", what, dg.nextDeltaID, never.nextDeltaID)
			}
			samePayloads(t, what, payloads(t, store, 1, 1, dg.nextDeltaID, kvstore.ComponentAuxBase), payloads(t, never.store, 1, 1, never.nextDeltaID, kvstore.ComponentAuxBase))
			checkAgainstReference(t, dg, events, allAttrs, probeTimes(events, 20))
		}
	}
	if onLeaf < 100 || onNull < 50 || bare < 100 {
		t.Errorf("%d pending nodes were stored from their first leaves, %d from the null graph and %d needed no payload: one case is hardly covered", onLeaf, onNull, bare)
	}
}

// appendBatches ingests live, 256 events at a time.
func appendBatches(dg *DeltaGraph, events graph.EventList) error {
	for lo := 0; lo < len(events); lo += 256 {
		if err := dg.AppendAll(events[lo:min(lo+256, len(events))]); err != nil {
			return err
		}
	}
	return nil
}

// TestLiveIndexIsBulkIndex is the space invariant: a live-ingested index
// file holds the permanent payloads and nothing else, so it is as large as
// a bulk build of the same events, and stays so as leaves keep being cut.
func TestLiveIndexIsBulkIndex(t *testing.T) {
	events := makeTrace(23, 6000)
	const leaf = 128
	dir := t.TempDir()
	liveFS := openFileStore(t, filepath.Join(dir, "live"))
	defer liveFS.Close()
	live, err := New(Options{LeafSize: leaf, Arity: 2, Store: liveFS})
	if err != nil {
		t.Fatal(err)
	}
	fed := 0
	for i, n := range []int{len(events) - 10*leaf - leaf/2, len(events)} {
		err := appendBatches(live, events[fed:n])
		if err == nil {
			err = live.Flush() // the builder's puts reach the file
		}
		if err != nil {
			t.Fatal(err)
		}
		fed = n
		bulkFS := openFileStore(t, filepath.Join(dir, fmt.Sprintf("bulk%d", i)))
		defer bulkFS.Close()
		bulk, err := Build(events[:n], Options{LeafSize: leaf, Arity: 2, Store: bulkFS})
		if err != nil {
			t.Fatal(err)
		}
		got, want := liveFS.SizeOnDisk(), bulkFS.SizeOnDisk()
		if d := float64(got-want) / float64(want); d > 0.01 || d < -0.01 {
			t.Errorf("after %d events: live index %d B, bulk index %d B (%+.1f%%)", n, got, want, 100*d)
		}
		// Stronger: permanent payload keys depend on the history alone, so
		// the two files are the same bytes.
		var files [2][]byte
		for j, dg := range []*DeltaGraph{live, bulk} {
			if err := dg.Flush(); err != nil {
				t.Fatal(err)
			}
			if files[j], err = os.ReadFile(filepath.Join(dir, []string{"live", fmt.Sprintf("bulk%d", i)}[j])); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(files[0], files[1]) {
			t.Errorf("after %d events: live and bulk index files differ", n)
		}
		// No dead records: the file is the payloads the skeleton references,
		// a record each, as large as a store that holds them and nothing
		// else; read back, they are the encoded sizes the edges carry.
		only := openFileStore(t, filepath.Join(dir, fmt.Sprintf("only%d", i)))
		defer only.Close()
		var encoded, read int64
		for _, e := range live.skel.edges {
			if e == nil || e.kind == kindMat || e.kind == kindEventBwd {
				continue
			}
			for c, size := range e.sizes {
				encoded += size
				key := kvstore.EncodeKey(0, e.deltaID, kvstore.Component(c))
				buf, err := liveFS.Get(key)
				if err == kvstore.ErrNotFound {
					continue
				}
				if err == nil {
					err = only.Put(key, buf)
				}
				if err != nil {
					t.Fatal(err)
				}
				read += int64(len(buf))
			}
		}
		if only.Len() != liveFS.Len() || only.SizeOnDisk() != got || read != encoded {
			t.Errorf("after %d events: live index %d B in %d records; the referenced payloads %d B in %d records, %d B read back of %d B encoded",
				n, got, liveFS.Len(), only.SizeOnDisk(), only.Len(), read, encoded)
		}
		if st := live.Stats(); st.DiskBytes != got {
			t.Errorf("stats: disk %d B (file %d B)", st.DiskBytes, got)
		}
	}
}

// TestCheckpointDoesNotBlockReaders holds the index's read lock the way a
// long query does: Checkpoint must complete all the same.
func TestCheckpointDoesNotBlockReaders(t *testing.T) {
	dg, err := Build(makeTrace(24, 1500), Options{LeafSize: 100, Arity: 2})
	if err != nil {
		t.Fatal(err)
	}
	dg.mu.RLock()
	done := make(chan error, 1)
	go func() { done <- dg.Checkpoint() }()
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Checkpoint waits for readers to leave")
	}
	dg.mu.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	if st := dg.Stats(); st.CheckpointBytes <= 0 || st.CheckpointBytes > st.DiskBytes {
		t.Errorf("checkpoint %d B of %d B on disk", st.CheckpointBytes, st.DiskBytes)
	}
}

// benchIndex is ingest-restart's index at its fixed point: the first 59 392
// events of the repository benchmark's seed-1 trace, ingested live.
func benchIndex(b testing.TB) (*DeltaGraph, *kvstore.FileStore) {
	b.Helper()
	events := benchTrace(1, 1)[:59392]
	fs := openFileStore(b, filepath.Join(b.TempDir(), "index"))
	dg, err := New(Options{Store: fs})
	if err == nil {
		err = appendBatches(dg, events)
	}
	if err == nil {
		err = dg.Flush() // the builder's puts reach the file
	}
	if err != nil {
		b.Fatal(err)
	}
	return dg, fs
}

// encodedBytes is the size of d's columns as a checkpoint payload holds them.
func encodedBytes(t testing.TB, d *delta.Delta) int64 {
	t.Helper()
	sizes := make(componentSizes, 4)
	if err := putCols(kvstore.NewMemStore(), 0, 1, d, true, sizes); err != nil {
		t.Fatal(err)
	}
	return sizes[0] + sizes[1] + sizes[2]
}

// TestGoldenCheckpointBytes pins the counter behind ingest-restart's
// durable_bytes_per_event: at that workload's fixed point, what a checkpoint
// weighs encoded (CheckpointBytes, also once reopened) and in the file, which
// base each pending node is stored from, and that no node weighs more than
// the lighter of its two deltas — each computed here over whole graphs, its
// first leaf replayed from the trace. Layout 3 encoded to 638 857 B here and
// layout 4 to 354 061 B (16 297, 60 920 and 17 678 for the three nodes, the
// current graph whole beside them), growing the file by 157 295 B. In layout
// 5 the history only grew, so each node equals its first leaf and writes
// nothing: what is left is the recent eventlist and the meta record.
func TestGoldenCheckpointBytes(t *testing.T) {
	dg, fs := benchIndex(t)
	defer fs.Close()
	events := benchTrace(1, 1)[:59392]
	checkBaseCounts(t, dg)
	before := fs.SizeOnDisk()
	if err := dg.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := dg.Stats().CheckpointBytes; got != 20887 {
		t.Errorf("the checkpoint encodes to %d B, was 20887", got)
	}
	if got := fs.SizeOnDisk() - before; got != 7919 {
		t.Errorf("the checkpoint grew the file by %d B, was 7919", got)
	}
	re, err := Open(Options{Store: fs})
	if err != nil {
		t.Fatal(err)
	}
	if got := re.Stats().CheckpointBytes; got != 20887 {
		t.Errorf("reopened, the checkpoint encodes to %d B, was 20887", got)
	}
	golden := []struct {
		level  int
		onLeaf bool
		bytes  int64
	}{{1, true, 0}, {2, true, 0}, {3, true, 0}}
	pi, i := lastCheckpoint(t, fs), 0
	for level, row := range pi.Pending {
		for j, pc := range row {
			var encoded int64
			for c := kvstore.ComponentStruct; c <= kvstore.ComponentEdgeAttr && pc.SnapID != 0; c++ {
				if buf, err := fs.Get(kvstore.EncodeKey(0, pc.SnapID, c)); err == nil {
					encoded += int64(len(buf))
				}
			}
			if i >= len(golden) || golden[i].level != level || golden[i].onLeaf != pc.OnLeaf || golden[i].bytes != encoded {
				t.Errorf("pending node %d at level %d: on its first leaf %v, %d B; golden rows are %v", i, level, pc.OnLeaf, encoded, golden)
			}
			i++
			c := dg.pending[level][j]
			g, leaf := c.graph.Snapshot(), graph.SnapshotAt(events, dg.skel.nodes[c.node].at)
			whole, fromLeaf := encodedBytes(t, delta.FromSnapshot(g)), encodedBytes(t, delta.Compute(g, leaf))
			if encoded > min(whole, fromLeaf) {
				t.Errorf("pending node at level %d weighs %d B: whole it is %d B, as a delta from its first leaf %d B", level, encoded, whole, fromLeaf)
			}
		}
	}
	if i != len(golden) {
		t.Errorf("%d pending nodes, golden has %d", i, len(golden))
	}
}

// TestCheckpointAppendsToTheLog: the store file is a log, so DiskBytes is
// not "permanent payloads plus the last checkpoint" once there has been a
// second one. Each checkpoint adds its own payload and meta records, which
// read back as its CheckpointBytes, and a tombstone for every payload record
// of the one before — and no more than that.
func TestCheckpointAppendsToTheLog(t *testing.T) {
	cs := &cutStore{FileStore: openFileStore(t, filepath.Join(t.TempDir(), "index"))}
	defer cs.Close()
	dg, err := New(Options{LeafSize: 64, Arity: 2, Store: cs})
	if err == nil {
		err = dg.AppendAll(makeTrace(27, 1500))
	}
	if err == nil {
		err = dg.Flush() // the builder's puts are not the checkpoints'
	}
	if err != nil {
		t.Fatal(err)
	}
	permanent := cs.SizeOnDisk()
	var records [2]int64 // written by each checkpoint: payloads, meta, tombstones
	var grew [2]int64
	for i := range grew {
		cs.cuts = nil
		before := cs.SizeOnDisk()
		if err := dg.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		records[i], grew[i] = int64(len(cs.cuts)), cs.SizeOnDisk()-before
	}
	// The second checkpoint's records, copied into a store of their own.
	only := openFileStore(t, filepath.Join(t.TempDir(), "only"))
	defer only.Close()
	empty := only.SizeOnDisk()
	pi := lastCheckpoint(t, cs)
	keys := [][]byte{metaKey}
	for id := pi.FirstID; id > pi.NextID; id-- {
		for c := kvstore.ComponentStruct; c <= kvstore.ComponentTransient; c++ {
			keys = append(keys, kvstore.EncodeKey(0, id, c))
		}
	}
	var encoded int64
	for _, key := range keys {
		buf, err := cs.Get(key)
		if err == kvstore.ErrNotFound {
			continue
		}
		if err == nil {
			err = only.Put(key, buf)
		}
		if err != nil {
			t.Fatal(err)
		}
		encoded += int64(len(buf))
	}
	if ckpt := dg.Stats().CheckpointBytes; encoded != ckpt {
		t.Errorf("the second checkpoint's records read back as %d B, CheckpointBytes %d B", encoded, ckpt)
	}
	// A tombstone is 18 bytes whole.
	tombstones := records[1] - int64(only.Len())
	if tombstones != records[0]-1 {
		t.Errorf("the second checkpoint wrote %d tombstones over the first one's %d payload records", tombstones, records[0]-1)
	}
	if stored := only.SizeOnDisk() - empty; grew[1] != stored+18*tombstones {
		t.Errorf("the second checkpoint (%d B in %d records as stored) grew the file by %d B, want %d", stored, only.Len(), grew[1], stored+18*tombstones)
	}
	if st := dg.Stats(); st.DiskBytes != permanent+grew[0]+grew[1] {
		t.Errorf("DiskBytes %d: permanent payloads %d B, checkpoints grew the file by %v", st.DiskBytes, permanent, grew)
	}
}

func BenchmarkCheckpoint(b *testing.B) {
	dg, fs := benchIndex(b)
	defer fs.Close()
	b.ReportAllocs()
	b.ResetTimer()
	start := fs.SizeOnDisk()
	for i := 0; i < b.N; i++ {
		if err := dg.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(fs.SizeOnDisk()-start)/float64(b.N), "written-B/op")
	b.ReportMetric(float64(dg.Stats().CheckpointBytes), "checkpoint-B")
}

var benchOpened *DeltaGraph

func BenchmarkOpen(b *testing.B) {
	dg, fs := benchIndex(b)
	defer fs.Close()
	if err := dg.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		re, err := Open(Options{Store: fs})
		if err != nil {
			b.Fatal(err)
		}
		benchOpened = re
	}
	b.ReportMetric(float64(benchOpened.Stats().CheckpointBytes), "checkpoint-B")
}
