package replica

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"historygraph"
	"historygraph/internal/baseline"
	"historygraph/internal/graph"
	"historygraph/internal/server"
	"historygraph/internal/wire"
)

// taggedBatch is one append: its events and its idempotency ID.
type taggedBatch struct {
	tag    string
	events historygraph.EventList
}

// upgradeBatch is batch b of the upgrade drill's history: four nodes, two
// edges between them, an attribute set on one of them and rewritten on
// node 1 of batch 0, and one of the edges deleted again.
func upgradeBatch(b int, tag string) taggedBatch {
	at, n, e := historygraph.Time(10*b+1), historygraph.NodeID(100*b+1), historygraph.EdgeID(10*b+1)
	events := nodesAt(at, int(n), 4)
	events = append(events,
		historygraph.Event{Type: historygraph.AddEdge, At: at + 1, Edge: e, Node: n, Node2: n + 1, Directed: b%2 == 1},
		historygraph.Event{Type: historygraph.AddEdge, At: at + 1, Edge: e + 1, Node: n + 1, Node2: n + 2, Directed: b%2 == 1},
		historygraph.Event{Type: historygraph.SetNodeAttr, At: at + 2, Node: n + 3, Attr: "name", New: fmt.Sprintf("n%d", b), HasNew: true},
		historygraph.Event{Type: historygraph.SetEdgeAttr, At: at + 2, Edge: e, Node: n, Node2: n + 1, Attr: "w", New: "1", HasNew: true},
	)
	if b > 0 {
		events = append(events, historygraph.Event{Type: historygraph.SetNodeAttr, At: at + 2, Node: 4, Attr: "name",
			Old: fmt.Sprintf("n%d", b-1), HadOld: true, New: fmt.Sprintf("n%d", b), HasNew: true})
	}
	events = append(events, historygraph.Event{Type: historygraph.DelEdge, At: at + 3, Edge: e + 1, Node: n + 1, Node2: n + 2, Directed: b%2 == 1})
	return taggedBatch{tag: tag, events: events}
}

// parentFormatBatches is what both committed fixtures hold: six batches,
// the even ones tagged, written by Log.AppendBatch.
// testdata/wal_parent_format.log was written at the commit before the WAL's
// record became a run (8e1d3e0) — 59 records of one event each behind the
// 0x00 marker; testdata/wal_runs_format.log at the commit before runs were
// compressed (08cc1be) — six runs behind the 0x01 marker.
func parentFormatBatches() []taggedBatch {
	batches := make([]taggedBatch, 6)
	for b := range batches {
		tag := ""
		if b%2 == 0 {
			tag = fmt.Sprintf("old-%d", b)
		}
		batches[b] = upgradeBatch(b, tag)
	}
	return batches
}

// TestUpgradeInPlace: a node is upgraded over a WAL an earlier build
// wrote, one event a record or one raw run a record. The old prefix
// replays, new batches, a stream and a batch long enough to be stored
// compressed pack behind it in the same file, the node restarts over the
// mixed log, and an empty
// follower mirrors it in pages of 7 that cut both the old records and the
// new runs. Both nodes must end as a naive replay of everything appended,
// and both must recognize a retry of a batch from either side of the
// upgrade.
func TestUpgradeInPlace(t *testing.T) {
	for _, name := range []string{"wal_parent_format.log", "wal_runs_format.log"} {
		t.Run(name, func(t *testing.T) { upgradeInPlace(t, filepath.Join("testdata", name)) })
	}
}

func upgradeInPlace(t *testing.T, fixturePath string) {
	fixture, err := os.ReadFile(fixturePath)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	pPath := filepath.Join(dir, "p.wal")
	if err := os.WriteFile(pPath, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	history := parentFormatBatches()
	var want []Record
	for _, b := range history {
		for _, ev := range b.events {
			want = append(want, Record{Seq: uint64(len(want) + 1), Event: ev, Batch: b.tag})
		}
	}
	old := len(want)

	primary := startLive(t, pPath, Config{Role: RolePrimary})
	if got := primary.readBack.Load(); got != uint64(old) || primary.AppliedSeq() != uint64(old) {
		t.Fatalf("the parent's WAL replayed %d records through %d, want %d", got, primary.AppliedSeq(), old)
	}
	client, ctx := server.NewClient(primary.url), context.Background()
	for b := 6; b < 9; b++ {
		nb := upgradeBatch(b, fmt.Sprintf("new-%d", b))
		if _, err := client.AppendBatchCtx(ctx, nb.events, nb.tag); err != nil {
			t.Fatal(err)
		}
		history = append(history, nb)
	}
	stream, err := client.AppendStream()
	if err != nil {
		t.Fatal(err)
	}
	for b := 9; b < 12; b++ {
		nb := upgradeBatch(b, fmt.Sprintf("frame-%d", b))
		if err := stream.SendBatch(nb.events, nb.tag); err != nil {
			t.Fatal(err)
		}
		history = append(history, nb)
	}
	if _, err := stream.Close(); err != nil {
		t.Fatal(err)
	}
	// Eight batches' worth under one ID: a run long enough to shrink.
	wide := upgradeBatch(12, "wide-12")
	for b := 13; b < 20; b++ {
		wide.events = append(wide.events, upgradeBatch(b, "").events...)
	}
	if _, err := client.AppendBatchCtx(ctx, wide.events, wide.tag); err != nil {
		t.Fatal(err)
	}
	history = append(history, wide)
	for _, b := range history[6:] {
		for _, ev := range b.events {
			want = append(want, Record{Seq: uint64(len(want) + 1), Event: ev, Batch: b.tag})
		}
	}
	last := uint64(len(want))
	if info, err := os.Stat(pPath); err != nil || info.Size()-int64(len(fixture)) >= int64(16*(len(want)-old)) {
		t.Fatalf("the upgraded WAL is %d bytes (%v): %d new events did not pack behind the %d-byte prefix of %d", info.Size(), err, len(want)-old, len(fixture), old)
	}
	if _, _, payload, err := primary.log.sl.Run(last); err != nil || payload[0] != walLZWMarker {
		t.Fatalf("the wide batch was not stored compressed (%v)", err)
	}
	if upgraded, err := os.ReadFile(pPath); err != nil || !bytes.HasPrefix(upgraded, fixture) {
		t.Fatalf("the upgrade rewrote the old prefix (%v)", err)
	}

	primary.stop()
	primary = startLive(t, pPath, Config{Role: RolePrimary})
	if got := primary.readBack.Load(); got != last {
		t.Fatalf("restart over the mixed WAL read %d records, want %d once each", got, last)
	}
	follower := startLive(t, filepath.Join(dir, "f.wal"), Config{
		Role: RoleFollower, PrimaryURL: primary.url, PollWait: 50 * time.Millisecond, FetchMax: 7,
	})
	waitFor(t, "the follower to apply the primary's log", func() bool { return follower.AppliedSeq() == last })
	if got := follower.readBack.Load(); got != 0 {
		t.Errorf("the follower read %d records back from its log, want 0", got)
	}

	var all historygraph.EventList
	for _, rec := range want {
		all = append(all, rec.Event)
	}
	naive, err := baseline.BuildNaiveLog(all, nil)
	if err != nil {
		t.Fatal(err)
	}
	head := all[len(all)-1].At
	truth, err := naive.Snapshot(head, graph.MustParseAttrOptions("+node:all+edge:all"))
	if err != nil {
		t.Fatal(err)
	}
	wantHead, _ := wire.JSON{}.Encode(server.SnapshotToJSON(truth, head, true))
	check := func(name string, n *liveNode) {
		t.Helper()
		st, err := Status(ctx, http.DefaultClient, n.url)
		if err != nil || st.LastSeq != last || st.AppliedSeq != last {
			t.Fatalf("%s: status %+v, %v; want last_seq and applied_seq %d", name, st, err, last)
		}
		recs, err := n.log.Read(1, len(want)+1)
		if err != nil || len(recs) != len(want) {
			t.Fatalf("%s: read %d records, %v; want %d", name, len(recs), err, len(want))
		}
		for i := range want {
			if recs[i] != want[i] {
				t.Fatalf("%s: record %d is %+v, want %+v", name, i+1, recs[i], want[i])
			}
		}
		snap, err := server.NewClient(n.url).Snapshot(head, "+node:all+edge:all", true)
		if err != nil {
			t.Fatal(err)
		}
		snap.Cached = false
		if got, _ := (wire.JSON{}).Encode(snap); !bytes.Equal(got, wantHead) {
			t.Fatalf("%s: head snapshot is not a naive replay of the %d events:\n got %.300s\nwant %.300s", name, len(all), got, wantHead)
		}
	}
	check("primary", primary)
	check("follower", follower)

	// A retry from either side of the upgrade, on the primary and — once
	// promoted — on the follower, whose runs are cut where its pages were.
	follower.Promote()
	for name, n := range map[string]*liveNode{"primary": primary, "follower": follower} {
		for _, b := range []taggedBatch{history[2], history[7], history[10], history[12]} {
			res, err := server.NewClient(n.url).AppendBatchCtx(ctx, b.events, b.tag)
			if err != nil || !res.Deduped || res.Appended != len(b.events) {
				t.Errorf("%s: retry of %q: %+v, %v; want it deduped whole", name, b.tag, res, err)
			}
		}
		check(name+" after the retries", n)
	}
}
