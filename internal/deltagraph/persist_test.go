package deltagraph

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"historygraph/internal/baseline"
	"historygraph/internal/datagen"
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

// TestCheckpointCrashAtomic cuts a copy of the store file at every record
// boundary of two successive checkpoints (and inside a payload and a meta
// record): Open must see no checkpoint, exactly the first, or exactly the
// second — and the index it returns must take the rest of the history.
func TestCheckpointCrashAtomic(t *testing.T) {
	events := makeTrace(21, 1300)
	const nA, nB = 700, 1000
	dir := t.TempDir()
	path := filepath.Join(dir, "index")
	cs := &cutStore{FileStore: openFileStore(t, path)}
	dg, err := New(Options{LeafSize: 64, Arity: 2, Store: cs})
	if err != nil {
		t.Fatal(err)
	}
	step := func(evs graph.EventList) (cuts []int64, metaEnd int64) {
		t.Helper()
		if err := dg.AppendAll(evs); err != nil {
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
// show through, even where the new graph has no such column.
func TestCheckpointOverTornOne(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "index")
	cs := &cutStore{FileStore: openFileStore(t, path)}
	dg, err := New(Options{LeafSize: 4, Arity: 2, Store: cs})
	if err != nil {
		t.Fatal(err)
	}
	var bare graph.EventList
	for i := 1; i <= 10; i++ {
		bare = append(bare, graph.Event{Type: graph.AddNode, At: graph.Time(i), Node: graph.NodeID(i)})
	}
	if err := dg.AppendAll(bare); err != nil {
		t.Fatal(err)
	}
	if err := dg.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The torn checkpoint's graphs carry an attribute column.
	if err := dg.Append(graph.Event{Type: graph.SetNodeAttr, At: 11, Node: 1, Attr: "name", New: "x", HasNew: true}); err != nil {
		t.Fatal(err)
	}
	if err := dg.Checkpoint(); err != nil {
		t.Fatal(err)
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
	// History continues differently, without the attribute.
	other := append(bare, graph.Event{Type: graph.AddNode, At: 11, Node: 11})
	if err := re.Append(other[10]); err != nil {
		t.Fatal(err)
	}
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	again, err := Open(Options{Store: fs})
	if err != nil {
		t.Fatal(err)
	}
	if !again.CurrentSnapshot().Equal(graph.SnapshotAt(other, 11)) {
		t.Fatalf("current graph after the second reopen: %v", again.CurrentSnapshot().NodeAttrs)
	}
	checkAgainstReference(t, again, other, allAttrs, probeTimes(other, 11))
}

// TestOpenRefusesOldCheckpoints checks that a checkpoint in an earlier layout
// (v1: graphs inside the JSON; v2: graphs as format-2 payloads) is refused
// with the way out in the message, before any payload is touched.
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
		for _, want := range []string{version, "WAL", "dgload", "rebuild"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("Open of a %s checkpoint = %v, want a refusal with %q in it", version, err, want)
			}
		}
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
// checks every answer against the one before closing and against naive log
// replay, then grows the reopened index by two more leaves and checks again:
// that is what proves the rebuilt spine and the restored pending nodes.
func TestReopenDifferential(t *testing.T) {
	events := makeTrace(22, 3400)
	structOnly := graph.AttrOptions{}
	check := func(t *testing.T, dg *DeltaGraph, held int, before map[graph.Time][2]*graph.Snapshot) map[graph.Time][2]*graph.Snapshot {
		t.Helper()
		if err := dg.validateInvariant(); err != nil {
			t.Fatal(err)
		}
		prefix, err := baseline.BuildNaiveLog(events[:held], nil)
		if err != nil {
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
				want, err := prefix.Snapshot(q, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !s.Equal(want) {
					t.Fatalf("t=%d attrs=%v: differs from naive log replay", q, i == 0)
				}
				if b, ok := before[q]; ok && !s.Equal(b[i]) {
					t.Fatalf("t=%d attrs=%v: differs from the answer before closing", q, i == 0)
				}
				pair[i] = s
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
		if err := appendBatches(live, events[fed:n]); err != nil {
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
		// No dead records: the file is the payloads the skeleton
		// references plus 18 to 20 bytes of framing a record.
		var payload int64
		for _, e := range live.skel.edges {
			if e == nil || e.provisional || e.kind == kindMat || e.kind == kindEventBwd {
				continue
			}
			for _, s := range e.sizes {
				payload += s
			}
		}
		keys := int64(liveFS.Len())
		if lo, hi := payload+18*keys, payload+20*keys+6; got < lo || got > hi {
			t.Errorf("after %d events: live index %d B, referenced payloads + framing %d..%d B", n, got, lo, hi)
		}
		if st := live.Stats(); st.SpineBytes <= 0 || st.DiskBytes != got {
			t.Errorf("stats: spine %d B, disk %d B (file %d B)", st.SpineBytes, st.DiskBytes, got)
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
func benchIndex(b *testing.B) (*DeltaGraph, *kvstore.FileStore) {
	b.Helper()
	base := datagen.Coauthorship(datagen.CoauthorshipConfig{Authors: 4000, Edges: 16000, Years: 20, AttrsPerNode: 10, Seed: 1})
	events := datagen.Churn(base, datagen.ChurnConfig{Adds: 10000, Dels: 10000, Seed: 2})[:59392]
	fs := openFileStore(b, filepath.Join(b.TempDir(), "index"))
	dg, err := New(Options{Store: fs})
	if err == nil {
		err = appendBatches(dg, events)
	}
	if err != nil {
		b.Fatal(err)
	}
	return dg, fs
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
	b.ReportMetric(float64(benchOpened.Stats().SpineBytes), "spine-B")
}
