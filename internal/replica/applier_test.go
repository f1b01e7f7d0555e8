package replica

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"historygraph"
	"historygraph/internal/server"
)

// These tests sit inside the package to read Node.readBack, the count of
// records the applier took from the log rather than from a writer's hint.

// liveNode is one node with everything under it, so a test can stop it and
// start another over the same WAL.
type liveNode struct {
	*Node
	url  string
	stop func()
}

func startLive(t *testing.T, walPath string, cfg Config) *liveNode {
	t.Helper()
	gm, err := historygraph.Open(historygraph.Options{LeafEventlistSize: 128, CleanerInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	svc := server.New(gm, server.Config{CacheSize: 16})
	log, err := OpenLog(walPath)
	if err != nil {
		t.Fatal(err)
	}
	node, err := NewNode(svc, log, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(node.Handler())
	var once sync.Once
	ln := &liveNode{Node: node, url: hs.URL}
	ln.stop = func() {
		once.Do(func() {
			hs.Close()
			node.Close()
			svc.Close()
			log.Close()
			gm.Close()
		})
	}
	t.Cleanup(ln.stop)
	return ln
}

// nodesAt is n AddNode events at one timestamp, IDs from first.
func nodesAt(at historygraph.Time, first, n int) historygraph.EventList {
	events := make(historygraph.EventList, n)
	for i := range events {
		events[i] = historygraph.Event{Type: historygraph.AddNode, At: at, Node: historygraph.NodeID(first + i)}
	}
	return events
}

func waitFor(t *testing.T, what string, ok func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !ok(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func headSnapshot(t *testing.T, url string, at historygraph.Time) string {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/snapshot?t=%d&full=1", url, at))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot at %d: HTTP %d, %v: %s", at, resp.StatusCode, err, body)
	}
	return string(body)
}

// TestSteadyStateNeverReadsBack: with the log as the queue it would be
// easy to serve every ticket from the log — correct, and a read and a
// decode per record slower, which no other test would see. Live batches
// (sequential and concurrent), a dedup retry, a stream, and a follower
// mirroring all of it must apply from the writers' own decoded events; a
// restart of either node reads each record exactly once.
func TestSteadyStateNeverReadsBack(t *testing.T) {
	dir := t.TempDir()
	primary := startLive(t, filepath.Join(dir, "p.wal"), Config{Role: RolePrimary})
	follower := startLive(t, filepath.Join(dir, "f.wal"), Config{
		Role: RoleFollower, PrimaryURL: primary.url, PollWait: 50 * time.Millisecond, FetchMax: 7,
	})
	client, ctx := server.NewClient(primary.url), context.Background()

	for b := 0; b < 20; b++ {
		if _, err := client.AppendBatchCtx(ctx, nodesAt(historygraph.Time(b+1), b*10+1, 10), fmt.Sprintf("live-%d", b)); err != nil {
			t.Fatal(err)
		}
	}
	if res, err := client.AppendBatchCtx(ctx, nodesAt(20, 191, 10), "live-19"); err != nil || !res.Deduped {
		t.Fatalf("retry of an applied batch: %+v, %v", res, err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if _, err := client.Append(nodesAt(30, 1000+w*100+i*4, 4)); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	stream, err := client.AppendStream()
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 40; f++ {
		if err := stream.SendBatch(nodesAt(historygraph.Time(40+f), 5000+f*5, 5), fmt.Sprintf("frame-%d", f)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := stream.Close(); err != nil {
		t.Fatal(err)
	}

	last := primary.log.LastSeq()
	if want := uint64(20*10 + 8*8*4 + 40*5); last != want {
		t.Fatalf("primary logged %d records, want %d", last, want)
	}
	waitFor(t, "the follower to apply the primary's log", func() bool { return follower.AppliedSeq() == last })
	if primary.AppliedSeq() != last {
		t.Fatalf("primary applied %d of %d acked records", primary.AppliedSeq(), last)
	}
	for name, n := range map[string]*liveNode{"primary": primary, "follower": follower} {
		if got := n.readBack.Load(); got != 0 {
			t.Errorf("%s read %d records back from its log in the steady state, want 0", name, got)
		}
	}
	want := headSnapshot(t, primary.url, 100)
	if got := headSnapshot(t, follower.url, 100); got != want {
		t.Fatalf("follower diverges from primary:\n got %.300s\nwant %.300s", got, want)
	}

	follower.stop()
	primary.stop()
	for name, n := range map[string]*liveNode{
		"primary":  startLive(t, filepath.Join(dir, "p.wal"), Config{Role: RolePrimary}),
		"follower": startLive(t, filepath.Join(dir, "f.wal"), Config{Role: RolePrimary}),
	} {
		if got := n.readBack.Load(); got != last || n.AppliedSeq() != last {
			t.Errorf("restarted %s read %d records and applied through %d, want %d once each", name, got, n.AppliedSeq(), last)
		}
		if got := headSnapshot(t, n.url, 100); got != want {
			t.Errorf("restarted %s diverges:\n got %.300s\nwant %.300s", name, got, want)
		}
	}
}

// pageGate lets a follower's first limit tail fetches through and holds
// every later one until its context ends, so a test can stop a mirror
// between two pages.
type pageGate struct {
	limit int32
	pages atomic.Int32
}

func (g *pageGate) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path == "/replicate" && r.URL.Query().Get("id") != "" && g.pages.Add(1) > g.limit {
		<-r.Context().Done()
		return nil, r.Context().Err()
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestPromoteMidMirror: a follower is promoted between two pages of one
// replicated batch. The mirror registered each page's records under the
// batch ID before handing them to the applier, so the coordinator's retry
// of the whole batch at the new primary resumes where the mirror stopped:
// no duplicate of the mirrored prefix, no lost suffix.
func TestPromoteMidMirror(t *testing.T) {
	dir := t.TempDir()
	primary := startLive(t, filepath.Join(dir, "p.wal"), Config{Role: RolePrimary})
	ctx := context.Background()
	batch := append(nodesAt(5, 1, 10), nodesAt(6, 11, 10)...)
	if _, err := server.NewClient(primary.url).AppendBatchCtx(ctx, batch, "half"); err != nil {
		t.Fatal(err)
	}

	gate := &pageGate{limit: 2}
	follower := startLive(t, filepath.Join(dir, "f.wal"), Config{
		Role: RoleFollower, PrimaryURL: primary.url, PollWait: 50 * time.Millisecond, FetchMax: 3,
		HTTPClient: &http.Client{Transport: gate},
	})
	waitFor(t, "two pages to be mirrored and a third fetch to be held", func() bool {
		return follower.AppliedSeq() == 6 && gate.pages.Load() > 2
	})
	follower.Promote()
	if got := follower.log.LastSeq(); got != 6 {
		t.Fatalf("promoted with %d records mirrored, want the 6 of two pages", got)
	}

	client := server.NewClient(follower.url)
	for attempt, resumed := range []int{6, len(batch)} {
		res, err := client.AppendBatchCtx(ctx, batch, "half")
		if err != nil {
			t.Fatal(err)
		}
		if !res.Deduped || res.Appended != len(batch) || res.Seq != uint64(len(batch)) {
			t.Fatalf("retry %d (node held %d of the batch) answered %+v, want deduped, appended %d, seq %d",
				attempt, resumed, res, len(batch), len(batch))
		}
		if got := follower.log.LastSeq(); got != uint64(len(batch)) {
			t.Fatalf("retry %d left %d records in the WAL, want %d", attempt, got, len(batch))
		}
	}
	if got, want := headSnapshot(t, follower.url, 6), headSnapshot(t, primary.url, 6); got != want {
		t.Fatalf("promoted node diverges from the old primary:\n got %.300s\nwant %.300s", got, want)
	}
	if got := follower.readBack.Load(); got != 0 {
		t.Errorf("resuming the batch read %d records back, want 0: the suffix begins at the cursor", got)
	}
}
