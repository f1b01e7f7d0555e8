package replica_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"historygraph"
	"historygraph/internal/replica"
	"historygraph/internal/server"
	"historygraph/internal/wire"
)

// TestAppendStreamIngest: frames sent over one streaming connection land
// exactly like standalone appends — aggregated result, graph content, and
// batch-ID dedup on a replayed stream.
func TestAppendStreamIngest(t *testing.T) {
	tn := startNode(t, filepath.Join(t.TempDir(), "wal.log"), replica.Config{Role: replica.RolePrimary})
	client := server.NewClient(tn.hs.URL)

	const frames, perFrame = 6, 8
	send := func() *wire.AppendResult {
		t.Helper()
		stream, err := client.AppendStream()
		if err != nil {
			t.Fatal(err)
		}
		for f := 0; f < frames; f++ {
			var events historygraph.EventList
			for i := 0; i < perFrame; i++ {
				events = append(events, historygraph.Event{
					Type: historygraph.AddNode, At: historygraph.Time(f + 1),
					Node: historygraph.NodeID(f*perFrame + i + 1),
				})
			}
			if err := stream.SendBatch(events, fmt.Sprintf("ingest-%d", f)); err != nil {
				t.Fatal(err)
			}
		}
		res, err := stream.Close()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	res := send()
	if res.Appended != frames*perFrame {
		t.Fatalf("stream appended %d, want %d", res.Appended, frames*perFrame)
	}
	if res.LastTime != frames {
		t.Fatalf("stream last_time %d, want %d", res.LastTime, frames)
	}
	if res.Seq != uint64(frames*perFrame) {
		t.Fatalf("stream acked seq %d, want %d", res.Seq, frames*perFrame)
	}
	snap, err := client.Snapshot(historygraph.Time(frames), "", false)
	if err != nil {
		t.Fatal(err)
	}
	if snap.NumNodes != frames*perFrame {
		t.Fatalf("graph holds %d nodes after stream, want %d", snap.NumNodes, frames*perFrame)
	}

	// The same stream replayed (a client resending after a lost response)
	// must dedup frame by frame: nothing new logged, nothing new applied.
	res2 := send()
	if !res2.Deduped {
		t.Fatal("replayed stream not reported deduped")
	}
	if got := tn.log.LastSeq(); got != uint64(frames*perFrame) {
		t.Fatalf("WAL holds %d records after replayed stream, want %d", got, frames*perFrame)
	}
}

// TestAppendStreamAbortReportsProgress: a stream that turns invalid
// mid-flight answers an error naming the failing frame, and every frame
// admitted before it stays durable and applied.
func TestAppendStreamAbortReportsProgress(t *testing.T) {
	tn := startNode(t, filepath.Join(t.TempDir(), "wal.log"), replica.Config{Role: replica.RolePrimary})
	client := server.NewClient(tn.hs.URL)
	stream, err := client.AppendStream()
	if err != nil {
		t.Fatal(err)
	}
	good := testEvents(4, 10)
	if err := stream.Send(good); err != nil {
		t.Fatal(err)
	}
	// Time travel: the node must reject this frame and abort the stream.
	bad := testEvents(2, 1)
	stream.Send(bad) // the write may succeed; the failure surfaces on Close
	_, err = stream.Close()
	if err == nil {
		t.Fatal("stream with a time-traveling frame closed clean")
	}
	var he *server.HTTPError
	if !errors.As(err, &he) || he.Status != http.StatusUnprocessableEntity {
		t.Fatalf("stream abort answered %v, want HTTP 422", err)
	}
	// Frame 0 landed and stays.
	waitApplied(t, tn.hs.URL, tn.log.LastSeq())
	snap, err := client.Snapshot(20, "", false)
	if err != nil {
		t.Fatal(err)
	}
	if snap.NumNodes != 4 {
		t.Fatalf("graph holds %d nodes after aborted stream, want the 4 admitted before the bad frame", snap.NumNodes)
	}
}

// TestKillMidPipelineReplay is the crash drill for the staged append path:
// a node dies with batches parked at every pipeline stage — applied but
// never acked (the ack wait timed out), and durably logged but never
// applied (the crash hit between the WAL write and the applier) — and a
// restart over the same WAL must replay to exactly the state an unsharded
// server reaches applying the same events once each.
func TestKillMidPipelineReplay(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "drill.wal")
	// SyncFollowers=1 with no follower attached: every append is logged
	// and applied, then fails its ack wait — the applied-but-not-acked
	// stage, held at the moment of the crash.
	tn := startNode(t, walPath, replica.Config{
		Role: replica.RolePrimary, SyncFollowers: 1, AckTimeout: 150 * time.Millisecond,
	})
	client := server.NewClient(tn.hs.URL)

	batchA := testEvents(16, 1)
	_, err := client.Append(batchA)
	if err == nil {
		t.Fatal("append with an absent follower should fail its ack wait")
	}
	var he *server.HTTPError
	if !errors.As(err, &he) || he.Status != http.StatusServiceUnavailable {
		t.Fatalf("unacked append answered %v, want HTTP 503", err)
	}
	appliedAtCrash := tn.node.AppliedSeq()
	if appliedAtCrash == 0 {
		t.Fatal("unacked batch was not applied; the drill's applied-not-acked stage is empty")
	}

	// The logged-but-not-applied stage: records written straight into the
	// WAL, exactly what a crash between the group-commit fsync and the
	// applier leaves behind. The running node never sees them.
	_, lastA := batchA.Span()
	batchB := historygraph.EventList{}
	for i := 0; i < 8; i++ {
		batchB = append(batchB, historygraph.Event{
			Type: historygraph.AddNode, At: lastA + 1, Node: historygraph.NodeID(9000 + i),
		})
	}
	if _, _, err := tn.log.AppendBatch(batchB, "drill-loggedonly"); err != nil {
		t.Fatal(err)
	}
	loggedAtCrash := tn.log.LastSeq()
	if loggedAtCrash <= appliedAtCrash {
		t.Fatal("nothing parked in the logged-not-applied stage")
	}

	// Crash: take the listener down first (no orderly drain of anything
	// in flight), then the process state. The WAL file is all that
	// survives.
	tn.stop()

	reborn := startNode(t, walPath, replica.Config{Role: replica.RolePrimary})
	if got := reborn.node.AppliedSeq(); got != loggedAtCrash {
		t.Fatalf("replay applied through seq %d, want every durable record through %d", got, loggedAtCrash)
	}

	// Byte-identical oracle: an unsharded server that applied each batch
	// exactly once.
	all := append(append(historygraph.EventList{}, batchA...), batchB...)
	ogm, err := historygraph.BuildFrom(all, historygraph.Options{LeafEventlistSize: 128, CleanerInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer ogm.Close()
	osvc := server.New(ogm, server.Config{CacheSize: 16})
	defer osvc.Close()
	ohs := httptest.NewServer(osvc.Handler())
	defer ohs.Close()
	for _, q := range []string{
		fmt.Sprintf("/snapshot?t=%d&full=1", lastA+1),
		fmt.Sprintf("/snapshot?t=%d&full=1", lastA/2),
	} {
		want := rawGET(t, ohs.URL+q)
		got := rawGET(t, reborn.hs.URL+q)
		if string(got) != string(want) {
			t.Fatalf("replayed state diverges from oracle at %s:\n got: %.300s\nwant: %.300s", q, got, want)
		}
	}

	// Replay must also be idempotent against the retry a client issues for
	// its unacked batch: same batch ID, already in the replayed dedup
	// table, nothing duplicated.
	res, err := server.NewClient(reborn.hs.URL).AppendBatchCtx(context.Background(), batchB, "drill-loggedonly")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deduped {
		t.Fatal("post-restart retry of a logged batch was not deduped")
	}
	if got := reborn.log.LastSeq(); got != loggedAtCrash {
		t.Fatalf("retry after replay grew the WAL to %d records, want %d", got, loggedAtCrash)
	}
}
