package shard

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"historygraph"
	"historygraph/internal/baseline"
	"historygraph/internal/datagen"
	"historygraph/internal/graph"
	"historygraph/internal/replica"
	"historygraph/internal/server"
	"historygraph/internal/wire"
)

// unionOf reads the full snapshot at q from one node per partition and
// unions them the way the coordinator does.
func unionOf(t *testing.T, q historygraph.Time, nodes []*rnode) wire.Snapshot {
	t.Helper()
	parts := make([]*wire.Snapshot, len(nodes))
	for p, rn := range nodes {
		s, err := server.NewClient(rn.url).Snapshot(q, "+node:all+edge:all", true)
		if err != nil {
			t.Fatal(err)
		}
		parts[p] = s
	}
	return mergeSnapshots(int64(q), parts, nil)
}

// matchesOwnLog holds a node to what every writer into a replica node must
// end with: the whole local log is applied, and the head snapshot is a
// naive replay of that log and nothing else.
func matchesOwnLog(t *testing.T, entry string, rn *rnode) {
	t.Helper()
	st, err := replica.Status(context.Background(), http.DefaultClient, rn.url)
	if err != nil {
		t.Fatal(err)
	}
	if st.AppliedSeq != st.LastSeq {
		t.Fatalf("%s: applied_seq %d, last_seq %d", entry, st.AppliedSeq, st.LastSeq)
	}
	recs, err := rn.log.Read(1, int(st.LastSeq))
	if err != nil || len(recs) == 0 {
		t.Fatalf("%s: reading %d records of its own WAL: got %d, %v", entry, st.LastSeq, len(recs), err)
	}
	logged := make(historygraph.EventList, len(recs))
	for i, rec := range recs {
		logged[i] = rec.Event
	}
	naive, err := baseline.BuildNaiveLog(logged, nil)
	if err != nil {
		t.Fatal(err)
	}
	head := logged[len(logged)-1].At
	truth, err := naive.Snapshot(head, graph.MustParseAttrOptions("+node:all+edge:all"))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := wire.JSON{}.Encode(server.SnapshotToJSON(truth, head, true))
	own := unionOf(t, head, []*rnode{rn})
	own.Cached = false
	if got, _ := (wire.JSON{}).Encode(own); !bytes.Equal(got, want) {
		t.Fatalf("%s: head snapshot is not a replay of its own %d-record WAL:\n got %.300s\nwant %.300s", entry, len(recs), got, want)
	}
}

// TestMessyTraceEveryEntryPoint drives the trace of
// deltagraph.TestAppendNeverRewritesThePast — duplicate adds, deletes of
// absent elements, re-adds, attribute churn — through the six ways events
// reach an index besides a library call, and after every batch compares
// each against a naive replay of what was acknowledged: a sharded
// coordinator (the batch is appended through it), follower apply (the
// primaries' followers, unioned), WAL replay (a fresh node per partition
// over a copy of the primary's log), migration ingest (a fresh node
// that pulls every slot from both primaries, merged by time), stream
// frames (a fresh node fed the trace so far over one streaming
// connection) and records written to a node's log behind its back (found
// by the next live append). Every node, whichever way its records came,
// must also have applied its whole log and answer its head as a naive
// replay of that log.
func TestMessyTraceEveryEntryPoint(t *testing.T) {
	dir := t.TempDir()
	const parts = 2
	primaries, followers := make([]*rnode, parts), make([]*rnode, parts)
	sets := make([][]string, parts)
	for p := range primaries {
		primaries[p] = launchRNode(t, filepath.Join(dir, fmt.Sprintf("p%d.wal", p)), replica.Config{Role: replica.RolePrimary})
		followers[p] = launchRNode(t, filepath.Join(dir, fmt.Sprintf("f%d.wal", p)),
			replica.Config{Role: replica.RoleFollower, PrimaryURL: primaries[p].url, PollWait: 50 * time.Millisecond})
		sets[p] = []string{primaries[p].url}
	}
	co, err := NewReplicated(sets, Config{PartitionTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	front := httptest.NewServer(co.Handler())
	defer front.Close()
	client := server.NewClient(front.URL)

	allSlots := make([]int, graph.NumSlots)
	for s := range allSlots {
		allSlots[s] = s
	}
	events := datagen.RoutableMessyTrace(104, 1000)
	rng := rand.New(rand.NewSource(4))
	allAttrs := graph.MustParseAttrOptions("+node:all+edge:all")
	ctx := context.Background()
	for lo, batch := 0, 0; lo < len(events); lo, batch = lo+100, batch+1 {
		hi := min(lo+100, len(events))
		res, err := client.Append(events[lo:hi])
		if err != nil || len(res.Partial) != 0 {
			t.Fatalf("batch %d: %+v, %v", batch, res, err)
		}
		naive, err := baseline.BuildNaiveLog(events[:hi], nil)
		if err != nil {
			t.Fatal(err)
		}

		// Follower apply: wait for each follower to hold its primary's log.
		heads := make([]uint64, parts)
		for p := range primaries {
			heads[p] = primaries[p].log.LastSeq()
			for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(5 * time.Millisecond) {
				st, err := replica.Status(ctx, http.DefaultClient, followers[p].url)
				if err == nil && st.AppliedSeq >= heads[p] {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("batch %d: follower %d never applied seq %d (%+v, %v)", batch, p, heads[p], st, err)
				}
			}
		}
		// WAL replay: what a restart of each primary would come back as.
		replayed := make([]*rnode, parts)
		for p := range primaries {
			raw, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("p%d.wal", p)))
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, fmt.Sprintf("replay%d-%d.wal", p, batch))
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			replayed[p] = launchRNode(t, path, replica.Config{Role: replica.RolePrimary})
			if got := replayed[p].log.LastSeq(); got != heads[p] {
				t.Fatalf("batch %d: partition %d's copied WAL replays %d records, the primary holds %d", batch, p, got, heads[p])
			}
		}
		// Migration ingest: an empty node merges both partitions' histories.
		target := launchRNode(t, filepath.Join(dir, fmt.Sprintf("target%d.wal", batch)), replica.Config{Role: replica.RolePrimary})
		sources := make([]replica.MigrateSource, parts)
		for p := range primaries {
			sources[p] = replica.MigrateSource{URLs: []string{primaries[p].url}, Slots: allSlots}
		}
		if _, err := replica.Migrate(ctx, http.DefaultClient, target.url, replica.MigrateRequest{Sources: sources}); err != nil {
			t.Fatal(err)
		}
		if _, err := replica.Migrate(ctx, http.DefaultClient, target.url, replica.MigrateRequest{Finalize: heads}); err != nil {
			t.Fatal(err)
		}
		waitMigrationState(t, target.url, "done", func(st *replica.MigrateStatus) bool { return st.Done })
		// Stream frames: the trace so far, a hundred events a frame.
		streamed := launchRNode(t, filepath.Join(dir, fmt.Sprintf("stream%d.wal", batch)), replica.Config{Role: replica.RolePrimary})
		stream, err := server.NewClient(streamed.url).AppendStream()
		if err != nil {
			t.Fatal(err)
		}
		for f := 0; f < hi; f += 100 {
			if err := stream.SendBatch(events[f:min(f+100, hi)], fmt.Sprintf("frame-%d", f)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := stream.Close(); err != nil {
			t.Fatal(err)
		}
		// Behind the node's back: all but the last ten events go straight
		// into the log; the live append of the rest has to find them.
		direct := launchRNode(t, filepath.Join(dir, fmt.Sprintf("direct%d.wal", batch)), replica.Config{Role: replica.RolePrimary})
		if _, _, err := direct.log.AppendBatch(events[:hi-10], "behind"); err != nil {
			t.Fatal(err)
		}
		if _, err := server.NewClient(direct.url).Append(events[hi-10 : hi]); err != nil {
			t.Fatal(err)
		}
		entries := map[string][]*rnode{
			"follower apply":         followers,
			"WAL replay":             replayed,
			"migration ingest":       {target},
			"stream frames":          {streamed},
			"behind the node's back": {direct},
		}
		for entry, nodes := range entries {
			for _, rn := range nodes {
				matchesOwnLog(t, entry, rn)
			}
		}
		for _, rn := range primaries {
			matchesOwnLog(t, "live append", rn)
		}

		probes := []historygraph.Time{events[hi-1].At}
		for i := 0; i < 3; i++ {
			probes = append(probes, historygraph.Time(rng.Int63n(int64(events[hi-1].At)+1)))
		}
		for _, q := range probes {
			truth, err := naive.Snapshot(q, allAttrs)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := wire.JSON{}.Encode(server.SnapshotToJSON(truth, q, true))
			viaCoordinator, err := client.Snapshot(q, "+node:all+edge:all", true)
			if err != nil {
				t.Fatal(err)
			}
			viaCoordinator.Cached, viaCoordinator.Coalesced = false, false
			got := map[string]wire.Snapshot{"sharded coordinator": *viaCoordinator}
			for entry, nodes := range entries {
				got[entry] = unionOf(t, q, nodes)
			}
			for entry, snap := range got {
				snap.Cached = false
				if got, _ := (wire.JSON{}).Encode(snap); !bytes.Equal(got, want) {
					t.Fatalf("%s, after %d events, snapshot at %d:\n got %.300s\nwant %.300s", entry, hi, q, got, want)
				}
			}
		}
		for _, rn := range append(replayed, target, streamed, direct) {
			rn.stop()
		}
	}
}
