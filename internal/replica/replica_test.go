package replica_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"historygraph"
	"historygraph/internal/replica"
	"historygraph/internal/server"
)

// testNode bundles one replica-set member's moving parts so tests can kill
// and restart it.
type testNode struct {
	gm      *historygraph.GraphManager
	svc     *server.Server
	log     *replica.Log
	node    *replica.Node
	hs      *httptest.Server
	stopped bool
}

func (tn *testNode) stop() {
	if tn.stopped {
		return
	}
	tn.stopped = true
	tn.hs.Close()
	tn.node.Close()
	tn.svc.Close()
	tn.log.Close()
	tn.gm.Close()
}

// startNode opens (or reopens) a node over the WAL at walPath. The caller
// stops it, either explicitly (to simulate a crash-restart cycle) or via
// the test cleanup.
func startNode(t testing.TB, walPath string, cfg replica.Config) *testNode {
	t.Helper()
	gm, err := historygraph.Open(historygraph.Options{LeafEventlistSize: 128, CleanerInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	svc := server.New(gm, server.Config{CacheSize: 16})
	log, err := replica.OpenLog(walPath)
	if err != nil {
		gm.Close()
		t.Fatal(err)
	}
	node, err := replica.NewNode(svc, log, cfg)
	if err != nil {
		log.Close()
		gm.Close()
		t.Fatal(err)
	}
	tn := &testNode{gm: gm, svc: svc, log: log, node: node, hs: httptest.NewServer(node.Handler())}
	t.Cleanup(tn.stop)
	return tn
}

func testEvents(n int, startT historygraph.Time) historygraph.EventList {
	var events historygraph.EventList
	for i := 0; i < n; i++ {
		at := startT + historygraph.Time(i)
		events = append(events,
			historygraph.Event{Type: historygraph.AddNode, At: at, Node: historygraph.NodeID(i + 1)},
		)
		if i > 0 {
			events = append(events, historygraph.Event{
				Type: historygraph.AddEdge, At: at,
				Edge: historygraph.EdgeID(i), Node: historygraph.NodeID(i), Node2: historygraph.NodeID(i + 1),
			})
		}
	}
	return events
}

func waitApplied(t testing.TB, baseURL string, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, err := replica.Status(context.Background(), http.DefaultClient, baseURL)
		if err == nil && st.AppliedSeq >= want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("follower %s never applied seq %d", baseURL, want)
}

// TestWALRoundTrip: events encoded into the log come back from Read in
// order and decode to the events that went in.
func TestWALRoundTrip(t *testing.T) {
	log, err := replica.OpenLog(filepath.Join(t.TempDir(), "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	events := testEvents(50, 1)
	first, last, err := log.AppendBatch(events, "")
	if err != nil {
		t.Fatal(err)
	}
	if first != 1 || last != uint64(len(events)) {
		t.Fatalf("append assigned [%d,%d], want [1,%d]", first, last, len(events))
	}
	recs, err := log.Read(1, len(events)+10)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(events) {
		t.Fatalf("read %d records, want %d", len(recs), len(events))
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d, want %d", i, rec.Seq, i+1)
		}
		if rec.Event != events[i] {
			t.Fatalf("event %d read back as %+v, want %+v", i, rec.Event, events[i])
		}
	}
}

// TestNodeRestartReplay: a primary that dies and restarts over its WAL
// answers /snapshot byte-identically to before — the single-node
// durability path dgserve -wal-dir enables.
func TestNodeRestartReplay(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "wal.log")
	tn := startNode(t, walPath, replica.Config{Role: replica.RolePrimary})
	client := server.NewClient(tn.hs.URL)

	events := testEvents(64, 1)
	res, err := client.Append(events)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seq == 0 {
		t.Fatal("append through a WAL-backed node reported no sequence number")
	}
	_, last := events.Span()
	query := fmt.Sprintf("/snapshot?t=%d&full=1", last)
	before := rawGET(t, tn.hs.URL+query)

	tn.stop() // crash

	tn2 := startNode(t, walPath, replica.Config{Role: replica.RolePrimary})
	after := rawGET(t, tn2.hs.URL+query)
	if string(after) != string(before) {
		t.Fatalf("restarted node diverges:\n got: %.300s\nwant: %.300s", after, before)
	}
	// And it keeps accepting appends at the recovered sequence.
	res2, err := server.NewClient(tn2.hs.URL).Append(testEvents(4, last+10))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Seq <= res.Seq {
		t.Fatalf("post-restart append seq %d, want > %d", res2.Seq, res.Seq)
	}
}

// TestWALTornTailReplay drives kvstore.FileStore's torn-tail crash
// recovery through the WAL replay path: a record half-written at the
// moment of the crash is dropped on reopen, every synced record replays.
func TestWALTornTailReplay(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "wal.log")
	log, err := replica.OpenLog(walPath)
	if err != nil {
		t.Fatal(err)
	}
	events := testEvents(32, 1)
	_, last, err := log.AppendBatch(events, "") // synced
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a kill mid-append: garbage where the next record's bytes
	// were being written when the process died.
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x07, 0x42, 0x00, 0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	tn := startNode(t, walPath, replica.Config{Role: replica.RolePrimary})
	st, err := replica.Status(context.Background(), http.DefaultClient, tn.hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	if st.LastSeq != last || st.AppliedSeq != last {
		t.Fatalf("recovered last=%d applied=%d, want both %d", st.LastSeq, st.AppliedSeq, last)
	}
	// The replayed graph holds every synced event.
	_, lastT := events.Span()
	snap, err := server.NewClient(tn.hs.URL).Snapshot(lastT, "", false)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := historygraph.BuildFrom(events, historygraph.Options{LeafEventlistSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	want, err := direct.GetHistSnapshot(lastT, "")
	if err != nil {
		t.Fatal(err)
	}
	if snap.NumNodes != len(want.Nodes) || snap.NumEdges != len(want.Edges) {
		t.Fatalf("replayed %d/%d, want %d/%d", snap.NumNodes, snap.NumEdges, len(want.Nodes), len(want.Edges))
	}
	// Appends continue over the torn region.
	if _, err := server.NewClient(tn.hs.URL).Append(testEvents(4, lastT+5)); err != nil {
		t.Fatal(err)
	}
}

// TestFollowerTailAndCatchUp: a follower tails the primary's WAL live,
// serves identical reads, and — after being down across further appends —
// catches up from its last applied sequence on restart.
func TestFollowerTailAndCatchUp(t *testing.T) {
	dir := t.TempDir()
	primary := startNode(t, filepath.Join(dir, "p.wal"), replica.Config{Role: replica.RolePrimary})
	follower := startNode(t, filepath.Join(dir, "f.wal"), replica.Config{
		Role: replica.RoleFollower, PrimaryURL: primary.hs.URL, PollWait: 200 * time.Millisecond,
	})

	client := server.NewClient(primary.hs.URL)
	events := testEvents(64, 1)
	res, err := client.Append(events)
	if err != nil {
		t.Fatal(err)
	}
	waitApplied(t, follower.hs.URL, res.Seq)

	_, lastT := events.Span()
	query := fmt.Sprintf("/snapshot?t=%d&full=1", lastT)
	if got, want := rawGET(t, follower.hs.URL+query), rawGET(t, primary.hs.URL+query); string(got) != string(want) {
		t.Fatalf("follower snapshot diverges:\n got: %.300s\nwant: %.300s", got, want)
	}

	// Follower down; primary keeps appending.
	follower.stop()
	more := testEvents(16, lastT+10)
	res2, err := client.Append(more)
	if err != nil {
		t.Fatal(err)
	}

	// Restart over the same WAL: catch-up resumes from the stored
	// sequence, not from scratch.
	follower2 := startNode(t, filepath.Join(dir, "f.wal"), replica.Config{
		Role: replica.RoleFollower, PrimaryURL: primary.hs.URL, PollWait: 200 * time.Millisecond,
	})
	waitApplied(t, follower2.hs.URL, res2.Seq)
	_, lastT2 := more.Span()
	query2 := fmt.Sprintf("/snapshot?t=%d&full=1", lastT2)
	if got, want := rawGET(t, follower2.hs.URL+query2), rawGET(t, primary.hs.URL+query2); string(got) != string(want) {
		t.Fatalf("caught-up follower diverges:\n got: %.300s\nwant: %.300s", got, want)
	}
}

// TestConcurrentAppendsMatchWAL: concurrent appends must reach the
// in-memory graph in WAL sequence order, so the graph a restart replays
// is the graph that was being served (a batch must never be durably
// logged yet rejected by the apply step because a later-logged batch
// applied first).
func TestConcurrentAppendsMatchWAL(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "wal.log")
	tn := startNode(t, walPath, replica.Config{Role: replica.RolePrimary})
	client := server.NewClient(tn.hs.URL)

	const writers, perWriter = 8, 16
	var wg sync.WaitGroup
	var failures atomic.Int64
	for wtr := 0; wtr < writers; wtr++ {
		wg.Add(1)
		go func(wtr int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				ev := historygraph.Event{
					Type: historygraph.AddNode, At: 7, // one shared timestamp keeps every interleaving chronological
					Node: historygraph.NodeID(wtr*perWriter + i + 1),
				}
				if _, err := client.Append(historygraph.EventList{ev}); err != nil {
					failures.Add(1)
				}
			}
		}(wtr)
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d concurrent appends failed", failures.Load())
	}
	before := rawGET(t, tn.hs.URL+"/snapshot?t=7&full=1")

	tn.stop()
	tn2 := startNode(t, walPath, replica.Config{Role: replica.RolePrimary})
	st, err := replica.Status(context.Background(), http.DefaultClient, tn2.hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(writers * perWriter); st.LastSeq != want || st.AppliedSeq != want {
		t.Fatalf("recovered last=%d applied=%d, want both %d", st.LastSeq, st.AppliedSeq, want)
	}
	after := rawGET(t, tn2.hs.URL+"/snapshot?t=7&full=1")
	if string(after) != string(before) {
		t.Fatalf("replayed graph diverges from the served one:\n got: %.300s\nwant: %.300s", after, before)
	}
}

// TestFollowerRejectsAppend: external appends at a follower are
// misdirected, naming the primary.
func TestFollowerRejectsAppend(t *testing.T) {
	dir := t.TempDir()
	primary := startNode(t, filepath.Join(dir, "p.wal"), replica.Config{Role: replica.RolePrimary})
	follower := startNode(t, filepath.Join(dir, "f.wal"), replica.Config{
		Role: replica.RoleFollower, PrimaryURL: primary.hs.URL,
	})
	_, err := server.NewClient(follower.hs.URL).Append(testEvents(2, 1))
	if err == nil {
		t.Fatal("append at a follower should be rejected")
	}
}

// TestSyncFollowerAck: with SyncFollowers=1 an append is acked only once
// a follower has durably fetched it — no follower, no ack.
func TestSyncFollowerAck(t *testing.T) {
	dir := t.TempDir()
	primary := startNode(t, filepath.Join(dir, "p.wal"), replica.Config{
		Role: replica.RolePrimary, SyncFollowers: 1, AckTimeout: 300 * time.Millisecond,
	})
	client := server.NewClient(primary.hs.URL)
	if _, err := client.Append(testEvents(4, 1)); err == nil {
		t.Fatal("append with no follower attached should time out unacked")
	}
	// A fetch is outside input: one that claims to hold records this node
	// never wrote must not count as a follower holding them.
	rawGET(t, primary.hs.URL+"/replicate?from=1000000&id=ghost")
	if _, err := client.Append(testEvents(4, 50)); err == nil {
		t.Fatal("append was acked on the word of a fetch from past the end of the log; no follower holds a byte")
	}

	follower := startNode(t, filepath.Join(dir, "f.wal"), replica.Config{
		Role: replica.RoleFollower, PrimaryURL: primary.hs.URL, PollWait: 100 * time.Millisecond,
	})
	deadline := time.Now().Add(10 * time.Second)
	for {
		// The earlier batch is already in the WAL; the follower pulls it,
		// after which appends ack within the follower's poll cadence.
		if _, err := client.Append(testEvents(4, 100)); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("append never acked despite an attached follower")
		}
	}
	st, err := replica.Status(context.Background(), http.DefaultClient, follower.hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	if st.AppliedSeq == 0 {
		t.Fatal("follower applied nothing")
	}
}

// TestPromote: a promoted follower accepts appends and a demoted-to-
// follower node re-points its tail.
func TestPromote(t *testing.T) {
	dir := t.TempDir()
	primary := startNode(t, filepath.Join(dir, "p.wal"), replica.Config{Role: replica.RolePrimary})
	follower := startNode(t, filepath.Join(dir, "f.wal"), replica.Config{
		Role: replica.RoleFollower, PrimaryURL: primary.hs.URL, PollWait: 100 * time.Millisecond,
	})
	client := server.NewClient(primary.hs.URL)
	res, err := client.Append(testEvents(16, 1))
	if err != nil {
		t.Fatal(err)
	}
	waitApplied(t, follower.hs.URL, res.Seq)

	primary.stop() // primary goes dark
	if err := replica.SetRole(context.Background(), http.DefaultClient, follower.hs.URL, replica.RolePrimary, ""); err != nil {
		t.Fatal(err)
	}
	st, err := replica.Status(context.Background(), http.DefaultClient, follower.hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	if st.Role != "primary" {
		t.Fatalf("promoted node reports role %q", st.Role)
	}
	res2, err := server.NewClient(follower.hs.URL).Append(testEvents(8, 40))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Seq <= res.Seq {
		t.Fatalf("promoted primary assigned seq %d, want > %d", res2.Seq, res.Seq)
	}
}

// TestOutOfOrderAppendKeepsWALClean: a batch the graph rejects (events
// older than the index clock — an ordinary client error) must be refused
// before it reaches the WAL. Without the validate-first guard the
// rejected batch was durably logged anyway, and every restart re-hit the
// rejection during replay: the node crash-looped until the WAL was
// repaired by hand.
func TestOutOfOrderAppendKeepsWALClean(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "wal.log")
	tn := startNode(t, walPath, replica.Config{Role: replica.RolePrimary})
	client := server.NewClient(tn.hs.URL)

	events := testEvents(8, 100)
	res, err := client.Append(events)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Append(testEvents(2, 1)); err == nil {
		t.Fatal("out-of-order batch should be rejected")
	}
	if got := tn.log.LastSeq(); got != res.Seq {
		t.Fatalf("rejected batch reached the WAL: last seq %d, want %d", got, res.Seq)
	}
	_, lastT := events.Span()
	query := fmt.Sprintf("/snapshot?t=%d&full=1", lastT)
	before := rawGET(t, tn.hs.URL+query)

	tn.stop() // restart must not crash-loop on a poison record
	tn2 := startNode(t, walPath, replica.Config{Role: replica.RolePrimary})
	st, err := replica.Status(context.Background(), http.DefaultClient, tn2.hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	if st.LastSeq != res.Seq || st.AppliedSeq != res.Seq || st.WALSkipped != 0 {
		t.Fatalf("recovered last=%d applied=%d skipped=%d, want %d/%d/0",
			st.LastSeq, st.AppliedSeq, st.WALSkipped, res.Seq, res.Seq)
	}
	if after := rawGET(t, tn2.hs.URL+query); string(after) != string(before) {
		t.Fatalf("restarted node diverges:\n got: %.300s\nwant: %.300s", after, before)
	}
}

// poisonedWAL writes a log holding good records bracketing one the graph
// rejects (an event older than the index clock) — the shape a WAL written
// before the validate-before-log guard could be left in.
func poisonedWAL(t testing.TB, walPath string) (lastSeq uint64, lastT historygraph.Time) {
	t.Helper()
	log, err := replica.OpenLog(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	batches := []historygraph.EventList{
		{
			{Type: historygraph.AddNode, At: 10, Node: 1},
			{Type: historygraph.AddNode, At: 11, Node: 2},
		},
		{{Type: historygraph.AddNode, At: 3, Node: 99}}, // poison: predates the clock
		{{Type: historygraph.AddNode, At: 20, Node: 3}},
	}
	for _, b := range batches {
		var err error
		if _, lastSeq, err = log.AppendBatch(b, ""); err != nil {
			t.Fatal(err)
		}
	}
	return lastSeq, 20
}

// TestPoisonWALReplayTolerated: replay over a WAL holding records the
// graph rejects must skip and count them — exactly what the live append
// path did (a 422, never applied) — instead of refusing to start.
func TestPoisonWALReplayTolerated(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "wal.log")
	lastSeq, lastT := poisonedWAL(t, walPath)

	tn := startNode(t, walPath, replica.Config{Role: replica.RolePrimary})
	st, err := replica.Status(context.Background(), http.DefaultClient, tn.hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	if st.LastSeq != lastSeq || st.AppliedSeq != lastSeq {
		t.Fatalf("recovered last=%d applied=%d, want both %d", st.LastSeq, st.AppliedSeq, lastSeq)
	}
	if st.WALSkipped != 1 {
		t.Fatalf("wal_skipped = %d, want 1", st.WALSkipped)
	}
	snap, err := server.NewClient(tn.hs.URL).Snapshot(lastT, "", true)
	if err != nil {
		t.Fatal(err)
	}
	if snap.NumNodes != 3 {
		t.Fatalf("replayed %d nodes, want 3 (poison skipped, good events kept)", snap.NumNodes)
	}
	for _, n := range snap.Nodes {
		if n.ID == 99 {
			t.Fatal("poison event reached the graph")
		}
	}
	// The node keeps accepting appends past the poison.
	if _, err := server.NewClient(tn.hs.URL).Append(testEvents(2, lastT+5)); err != nil {
		t.Fatal(err)
	}
}

// TestFollowerSkipsPoisonRecords: poison records replicate to the
// follower (the logs must stay identical) but are skipped there the same
// way — the follower keeps applying later records instead of wedging
// behind the rejection with appliedSeq stuck.
func TestFollowerSkipsPoisonRecords(t *testing.T) {
	dir := t.TempDir()
	lastSeq, lastT := poisonedWAL(t, filepath.Join(dir, "p.wal"))

	primary := startNode(t, filepath.Join(dir, "p.wal"), replica.Config{Role: replica.RolePrimary})
	follower := startNode(t, filepath.Join(dir, "f.wal"), replica.Config{
		Role: replica.RoleFollower, PrimaryURL: primary.hs.URL, PollWait: 100 * time.Millisecond,
	})
	waitApplied(t, follower.hs.URL, lastSeq)

	// Live appends past the poison still replicate and apply.
	res, err := server.NewClient(primary.hs.URL).Append(testEvents(4, lastT+10))
	if err != nil {
		t.Fatal(err)
	}
	waitApplied(t, follower.hs.URL, res.Seq)

	st, err := replica.Status(context.Background(), http.DefaultClient, follower.hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	if st.LastSeq != res.Seq || st.AppliedSeq != res.Seq {
		t.Fatalf("follower last=%d applied=%d, want both %d", st.LastSeq, st.AppliedSeq, res.Seq)
	}
	if st.WALSkipped != 1 {
		t.Fatalf("follower wal_skipped = %d, want 1", st.WALSkipped)
	}
	query := fmt.Sprintf("/snapshot?t=%d&full=1", lastT+20)
	if got, want := rawGET(t, follower.hs.URL+query), rawGET(t, primary.hs.URL+query); string(got) != string(want) {
		t.Fatalf("follower snapshot diverges:\n got: %.300s\nwant: %.300s", got, want)
	}
}

// TestAppendBatchDedup: retrying a batch ID the node has already logged
// acks without appending twice — immediately, after a restart (table
// rebuilt from the WAL), and on a promoted follower (table extended by
// mirrored records). This is what makes the coordinator's post-failover
// append retry idempotent.
func TestAppendBatchDedup(t *testing.T) {
	dir := t.TempDir()
	primary := startNode(t, filepath.Join(dir, "p.wal"), replica.Config{Role: replica.RolePrimary})
	follower := startNode(t, filepath.Join(dir, "f.wal"), replica.Config{
		Role: replica.RoleFollower, PrimaryURL: primary.hs.URL, PollWait: 100 * time.Millisecond,
	})
	ctx := context.Background()
	client := server.NewClient(primary.hs.URL)
	events := testEvents(8, 1)
	_, lastT := events.Span()

	res, err := client.AppendBatchCtx(ctx, events, "batch-1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Deduped {
		t.Fatal("first append reported deduped")
	}
	// Same ID again: acked, nothing new in the WAL.
	res2, err := client.AppendBatchCtx(ctx, events, "batch-1")
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Deduped || res2.Seq != res.Seq || res2.Appended != res.Appended {
		t.Fatalf("retry answered %+v, want deduped with seq %d appended %d", res2, res.Seq, res.Appended)
	}
	if got := primary.log.LastSeq(); got != res.Seq {
		t.Fatalf("retry appended to the WAL: last seq %d, want %d", got, res.Seq)
	}
	waitApplied(t, follower.hs.URL, res.Seq)

	// The promoted follower recognizes the batch from mirrored records.
	primary.stop()
	if err := replica.SetRole(ctx, http.DefaultClient, follower.hs.URL, replica.RolePrimary, ""); err != nil {
		t.Fatal(err)
	}
	res3, err := server.NewClient(follower.hs.URL).AppendBatchCtx(ctx, events, "batch-1")
	if err != nil {
		t.Fatal(err)
	}
	if !res3.Deduped || res3.Seq != res.Seq {
		t.Fatalf("promoted follower answered %+v, want deduped with seq %d", res3, res.Seq)
	}
	snap, err := server.NewClient(follower.hs.URL).Snapshot(lastT, "", false)
	if err != nil {
		t.Fatal(err)
	}
	if snap.NumNodes != 8 {
		t.Fatalf("follower holds %d nodes, want 8 (no duplicate apply)", snap.NumNodes)
	}

	// And a restarted node rebuilds the table from its own WAL.
	follower.stop()
	restarted := startNode(t, filepath.Join(dir, "f.wal"), replica.Config{Role: replica.RolePrimary})
	res4, err := server.NewClient(restarted.hs.URL).AppendBatchCtx(ctx, events, "batch-1")
	if err != nil {
		t.Fatal(err)
	}
	if !res4.Deduped || res4.Seq != res.Seq {
		t.Fatalf("restarted node answered %+v, want deduped with seq %d", res4, res.Seq)
	}
}

// TestAppendBatchResume: a retried batch of which the node holds only a
// prefix (a mid-batch primary failure cut the replication stream short)
// must resume from the mirrored records — not re-append the prefix, and
// not full-ack while silently dropping the suffix.
func TestAppendBatchResume(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "wal.log")
	events := testEvents(8, 1)
	// The dead primary managed to replicate only the first 5 records of
	// the batch before going dark.
	log, err := replica.OpenLog(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := log.AppendBatch(events[:5], "batch-r"); err != nil {
		t.Fatal(err)
	}
	log.Close()

	tn := startNode(t, walPath, replica.Config{Role: replica.RolePrimary})
	ctx := context.Background()
	res, err := server.NewClient(tn.hs.URL).AppendBatchCtx(ctx, events, "batch-r")
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(len(events))
	if !res.Deduped || res.Appended != len(events) || res.Seq != want {
		t.Fatalf("resume answered %+v, want deduped with appended %d seq %d", res, len(events), want)
	}
	if got := tn.log.LastSeq(); got != want {
		t.Fatalf("WAL holds %d records, want %d (prefix re-appended?)", got, want)
	}
	_, lastT := events.Span()
	snap, err := server.NewClient(tn.hs.URL).Snapshot(lastT, "", false)
	if err != nil {
		t.Fatal(err)
	}
	if snap.NumNodes != 8 || snap.NumEdges != 7 {
		t.Fatalf("graph holds %d/%d, want 8/7", snap.NumNodes, snap.NumEdges)
	}
	// A further retry of the now-complete batch is a plain dedup ack.
	res2, err := server.NewClient(tn.hs.URL).AppendBatchCtx(ctx, events, "batch-r")
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Deduped || res2.Appended != len(events) || res2.Seq != want || tn.log.LastSeq() != want {
		t.Fatalf("post-resume retry answered %+v (log at %d), want full dedup at seq %d", res2, tn.log.LastSeq(), want)
	}
}

func rawGET(t testing.TB, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d: %s", url, resp.StatusCode, body)
	}
	return body
}
