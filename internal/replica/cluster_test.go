package replica_test

// The acceptance oracle for the replicated deployment: a 2-replica x
// 2-partition cluster must answer /snapshot byte-identically to an
// unsharded server over the same event log, before and after (a) killing
// and restarting a worker (WAL replay + catch-up) and (b) killing a
// primary mid-append-stream (follower promotion, no acked event lost).

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"historygraph"
	"historygraph/internal/datagen"
	"historygraph/internal/replica"
	"historygraph/internal/server"
	"historygraph/internal/shard"
	"historygraph/internal/wire"
)

// cnode is one cluster member on a fixed address, so it can be killed and
// restarted without the coordinator noticing a URL change.
type cnode struct {
	gm      *historygraph.GraphManager
	svc     *server.Server
	log     *replica.Log
	node    *replica.Node
	httpSrv *http.Server
	addr    string
	url     string
	walPath string
	stopped bool
}

// launch starts (or restarts) a node over walPath. addr "" picks a fresh
// port; passing a previous node's addr rebinds it, simulating a process
// restart on the same host.
func launch(t testing.TB, walPath, addr string, cfg replica.Config) *cnode {
	t.Helper()
	gm, err := historygraph.Open(historygraph.Options{LeafEventlistSize: 128, CleanerInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	svc := server.New(gm, server.Config{CacheSize: 16})
	log, err := replica.OpenLog(walPath)
	if err != nil {
		t.Fatal(err)
	}
	node, err := replica.NewNode(svc, log, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var ln net.Listener
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	cn := &cnode{
		gm: gm, svc: svc, log: log, node: node,
		httpSrv: &http.Server{Handler: node.Handler()},
		addr:    ln.Addr().String(),
		url:     "http://" + ln.Addr().String(),
		walPath: walPath,
	}
	go cn.httpSrv.Serve(ln)
	t.Cleanup(cn.stop)
	return cn
}

func (cn *cnode) stop() {
	if cn.stopped {
		return
	}
	cn.stopped = true
	cn.httpSrv.Close()
	cn.node.Close()
	cn.svc.Close()
	cn.log.Close()
	cn.gm.Close()
}

// waitCaughtUp polls until the member at url has applied through seq.
func waitCaughtUp(t testing.TB, url string, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		st, err := replica.Status(context.Background(), http.DefaultClient, url)
		if err == nil && st.AppliedSeq >= seq {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("%s never caught up to seq %d", url, seq)
}

func TestReplicatedClusterOracle(t *testing.T) {
	events := datagen.Coauthorship(datagen.CoauthorshipConfig{
		Authors: 200, Edges: 600, Years: 4, AttrsPerNode: 2, Seed: 42,
	})
	const parts = 2
	dir := t.TempDir()
	walPath := func(p, r int) string { return filepath.Join(dir, fmt.Sprintf("p%d-r%d.wal", p, r)) }

	// Two replica sets: primaries ack only after their follower has
	// durably logged the batch, so killing a primary can never lose an
	// acked event. Followers run SyncFollowers=0 — once promoted they are
	// alone in the set until the dead member is re-seeded.
	primaries := make([]*cnode, parts)
	followers := make([]*cnode, parts)
	sets := make([][]string, parts)
	for p := 0; p < parts; p++ {
		primaries[p] = launch(t, walPath(p, 0), "", replica.Config{
			Role: replica.RolePrimary, SyncFollowers: 1, AckTimeout: 10 * time.Second,
		})
		followers[p] = launch(t, walPath(p, 1), "", replica.Config{
			Role: replica.RoleFollower, PrimaryURL: primaries[p].url,
			PollWait: 250 * time.Millisecond,
		})
		sets[p] = []string{primaries[p].url, followers[p].url}
	}
	co, err := shard.NewReplicated(sets, shard.Config{PartitionTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	front := httptest.NewServer(co.Handler())
	defer front.Close()
	client := server.NewClient(front.URL)

	// Ingest through the coordinator in batches; every ack means the
	// batch is on two disks per partition.
	const batches = 8
	for i := 0; i < batches; i++ {
		lo, hi := i*len(events)/batches, (i+1)*len(events)/batches
		res, err := client.Append(events[lo:hi])
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		// Each partition's WAL numbers its own records, so no sequence
		// number means anything cluster-wide: the merged result has none.
		if res.Seq != 0 || res.Appended != hi-lo {
			t.Fatalf("batch %d: merged result %+v, want %d appended and no seq", i, res, hi-lo)
		}
	}

	// The unsharded oracle over the same trace.
	ogm, err := historygraph.BuildFrom(events, historygraph.Options{LeafEventlistSize: 128, CleanerInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer ogm.Close()
	osvc := server.New(ogm, server.Config{CacheSize: 16})
	defer osvc.Close()
	ohs := httptest.NewServer(osvc.Handler())
	defer ohs.Close()
	last := ogm.LastTime()

	compare := func(stage string, tps ...historygraph.Time) {
		t.Helper()
		for _, tp := range tps {
			for _, query := range []string{
				fmt.Sprintf("/snapshot?t=%d&full=1", tp),
				fmt.Sprintf("/snapshot?t=%d&attrs=%%2Bnode:all%%2Bedge:all&full=1", tp),
				fmt.Sprintf("/snapshot?t=%d", tp),
			} {
				want := rawGET(t, ohs.URL+query)
				got := rawGET(t, front.URL+query)
				if string(got) != string(want) {
					t.Fatalf("[%s] %s diverges from unsharded oracle:\n got: %.400s\nwant: %.400s",
						stage, query, got, want)
				}
			}
		}
	}
	compare("initial", last/4, last/2, last)

	// (a) Kill a worker and restart it over its WAL: replay rebuilds the
	// graph, catch-up resumes from the stored sequence, and the cluster
	// answers exactly as before. The coordinator keeps the same member
	// URL throughout.
	primarySeq := primaries[0].log.LastSeq()
	dead := followers[0]
	deadAddr, deadWAL := dead.addr, dead.walPath
	dead.stop()
	followers[0] = launch(t, deadWAL, deadAddr, replica.Config{
		Role: replica.RoleFollower, PrimaryURL: primaries[0].url,
		PollWait: 250 * time.Millisecond,
	})
	waitCaughtUp(t, followers[0].url, primarySeq)
	// Fresh timepoints, as after the failover below: a second request for
	// one asked before is where both deployments admit its body, and the
	// cached flag of that answer comes from views the restart dropped on
	// one side only.
	compare("after worker restart", last/3, last*2/3, last-1)

	// (b) Kill a primary, then keep appending: the coordinator promotes
	// the (fully caught-up) follower and the append lands without a
	// partial hole. Nothing acked before the kill may be missing after.
	primaries[1].stop()
	var batchB historygraph.EventList
	newT := last + 5
	for i := 0; i < 32; i++ {
		batchB = append(batchB, historygraph.Event{
			Type: historygraph.AddNode, At: newT, Node: historygraph.NodeID(3000000 + i),
		})
	}
	res, err := client.Append(batchB)
	if err != nil {
		t.Fatalf("append across primary failure: %v", err)
	}
	if len(res.Partial) != 0 {
		t.Fatalf("append across primary failure reported partial %+v; failover should have closed the hole", res.Partial)
	}
	if res.Appended != len(batchB) {
		t.Fatalf("appended %d of %d", res.Appended, len(batchB))
	}
	if co.Failovers() == 0 {
		t.Fatal("no failover recorded despite a dead primary")
	}
	st, err := replica.Status(context.Background(), http.DefaultClient, followers[1].url)
	if err != nil {
		t.Fatal(err)
	}
	if st.Role != "primary" {
		t.Fatalf("surviving member of partition 1 reports role %q, want primary", st.Role)
	}

	// Oracle ingests the same batch; all of history — including every
	// event acked to the dead primary — must still merge identically.
	// Comparison timepoints are fresh on both deployments: a previously
	// queried one can differ in the cached flag alone, because the
	// coordinator's merged-response cache legitimately keeps pre-append
	// timepoints that a worker's current-dependent view cannot.
	if _, err := server.NewClient(ohs.URL).Append(batchB); err != nil {
		t.Fatal(err)
	}
	compare("after failover", last/2+1, last+1, newT)
}

// TestFailoverRetryDeduped: the worst-case duplicate scenario — an append
// commits on the primary and replicates to the follower, but the response
// is lost, so the coordinator sees an error, fails over, and retries the
// whole batch against the promoted follower. The batch ID must make that
// retry idempotent: acked once, logged once, applied once.
func TestFailoverRetryDeduped(t *testing.T) {
	dir := t.TempDir()
	// SyncFollowers=1: the primary acks only after the follower has
	// durably mirrored the batch, so by the time the proxy discards the
	// response the events are guaranteed to be on both nodes.
	primary := launch(t, filepath.Join(dir, "p.wal"), "", replica.Config{
		Role: replica.RolePrimary, SyncFollowers: 1, AckTimeout: 10 * time.Second,
	})
	follower := launch(t, filepath.Join(dir, "f.wal"), "", replica.Config{
		Role: replica.RoleFollower, PrimaryURL: primary.url, PollWait: 100 * time.Millisecond,
	})

	// The proxy fronts the primary for the coordinator: it forwards
	// appends (they commit and replicate) but answers 502 — a response
	// lost after the WAL sync. Everything else (health probes, status)
	// fails too, so the coordinator treats the primary as dark and
	// promotes the follower.
	var swallowed atomic.Int64
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/append" {
			req, err := http.NewRequest(http.MethodPost, primary.url+r.URL.RequestURI(), r.Body)
			if err == nil {
				req.Header = r.Header
				if resp, err := http.DefaultClient.Do(req); err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					swallowed.Add(1)
				}
			}
		}
		http.Error(w, "proxy: connection reset", http.StatusBadGateway)
	}))
	defer proxy.Close()

	co, err := shard.NewReplicated([][]string{{proxy.URL, follower.url}}, shard.Config{
		PartitionTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	front := httptest.NewServer(co.Handler())
	defer front.Close()

	events := testEvents(8, 1)
	res, err := server.NewClient(front.URL).Append(events)
	if err != nil {
		t.Fatalf("append across lost response: %v", err)
	}
	if swallowed.Load() == 0 {
		t.Fatal("proxy never forwarded the first attempt; the scenario did not happen")
	}
	if co.Failovers() == 0 {
		t.Fatal("no failover despite the dark primary")
	}
	if res.Appended != len(events) {
		t.Fatalf("appended %d, want %d", res.Appended, len(events))
	}

	// Exactly one copy: the follower's WAL holds the batch once, and the
	// graph holds each node once.
	if got, want := follower.log.LastSeq(), uint64(len(events)); got != want {
		t.Fatalf("follower WAL holds %d records, want %d (batch logged twice?)", got, want)
	}
	_, lastT := events.Span()
	snap, err := server.NewClient(follower.url).Snapshot(lastT, "", false)
	if err != nil {
		t.Fatal(err)
	}
	if snap.NumNodes != 8 {
		t.Fatalf("follower graph holds %d nodes, want 8", snap.NumNodes)
	}
}

// TestFailoverRetryDedupedConcurrent is the lost-response drill under
// concurrent writers: many batches are in flight across the pipeline when
// the primary goes dark, the coordinator fails over once, and every
// writer's retry lands on the promoted follower under its original batch
// ID. The oracle is exact: each event applied exactly once — mirrored
// batches dedup, unmirrored ones apply fresh, none are lost or doubled.
func TestFailoverRetryDedupedConcurrent(t *testing.T) {
	dir := t.TempDir()
	primary := launch(t, filepath.Join(dir, "p.wal"), "", replica.Config{
		Role: replica.RolePrimary, SyncFollowers: 1, AckTimeout: 2 * time.Second,
	})
	follower := launch(t, filepath.Join(dir, "f.wal"), "", replica.Config{
		Role: replica.RoleFollower, PrimaryURL: primary.url, PollWait: 50 * time.Millisecond,
	})

	var swallowed atomic.Int64
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/append" {
			req, err := http.NewRequest(http.MethodPost, primary.url+r.URL.RequestURI(), r.Body)
			if err == nil {
				req.Header = r.Header
				if resp, err := http.DefaultClient.Do(req); err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					swallowed.Add(1)
				}
			}
		}
		http.Error(w, "proxy: connection reset", http.StatusBadGateway)
	}))
	defer proxy.Close()

	co, err := shard.NewReplicated([][]string{{proxy.URL, follower.url}}, shard.Config{
		PartitionTimeout: 8 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	front := httptest.NewServer(co.Handler())
	defer front.Close()

	// Every writer's batch shares one timestamp, so arrival order across
	// writers can never trip the nondecreasing-time check — the only
	// ordering in play is the pipeline's own.
	const writers, perBatch = 8, 4
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for wr := 0; wr < writers; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			client := server.NewClient(front.URL)
			var events historygraph.EventList
			for i := 0; i < perBatch; i++ {
				events = append(events, historygraph.Event{
					Type: historygraph.AddNode, At: 1,
					Node: historygraph.NodeID(wr*100 + i + 1),
				})
			}
			_, errs[wr] = client.Append(events)
		}(wr)
	}
	wg.Wait()
	for wr, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", wr, err)
		}
	}
	if swallowed.Load() == 0 {
		t.Fatal("proxy never forwarded an attempt; the lost-response scenario did not happen")
	}
	if co.Failovers() == 0 {
		t.Fatal("no failover despite the dark primary")
	}

	// Exactly one copy of everything on the survivor.
	if got, want := follower.log.LastSeq(), uint64(writers*perBatch); got != want {
		t.Fatalf("follower WAL holds %d records, want %d (a batch was lost or logged twice)", got, want)
	}
	snap, err := server.NewClient(follower.url).Snapshot(1, "", false)
	if err != nil {
		t.Fatal(err)
	}
	if snap.NumNodes != writers*perBatch {
		t.Fatalf("follower graph holds %d nodes, want %d", snap.NumNodes, writers*perBatch)
	}
}

// TestClientErrorDoesNotFailOver: a 422 from the primary (out-of-order
// batch — the node deliberately said no) must surface to the client
// without deposing the primary; failover is for nodes that stop
// answering, not for requests they reject.
func TestClientErrorDoesNotFailOver(t *testing.T) {
	dir := t.TempDir()
	primary := launch(t, filepath.Join(dir, "p.wal"), "", replica.Config{Role: replica.RolePrimary})
	follower := launch(t, filepath.Join(dir, "f.wal"), "", replica.Config{
		Role: replica.RoleFollower, PrimaryURL: primary.url, PollWait: 100 * time.Millisecond,
	})
	co, err := shard.NewReplicated([][]string{{primary.url, follower.url}}, shard.Config{
		PartitionTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	front := httptest.NewServer(co.Handler())
	defer front.Close()
	client := server.NewClient(front.URL)

	if _, err := client.Append(testEvents(4, 100)); err != nil {
		t.Fatal(err)
	}
	_, err = client.Append(testEvents(2, 1))
	if err == nil {
		t.Fatal("out-of-order batch should be rejected")
	}
	// The rejection surfaces as the client error it is, not as a gateway
	// fault a caller would blindly retry.
	var he *server.HTTPError
	if !errors.As(err, &he) || he.Status != http.StatusUnprocessableEntity {
		t.Fatalf("coordinator answered %v, want HTTP 422", err)
	}
	if got := co.Failovers(); got != 0 {
		t.Fatalf("client rejection triggered %d failover(s)", got)
	}
	if got := co.Primary(0); got != primary.url {
		t.Fatalf("partition 0 primary is %s after a client error, want %s", got, primary.url)
	}
	// The primary stays in rotation: the next good append lands first try.
	if _, err := client.Append(testEvents(2, 200)); err != nil {
		t.Fatal(err)
	}
}

// TestHealthLoopPromotesDarkPrimary: with the background health checker
// on, a dark primary is replaced without waiting for an append to trip
// over it.
func TestHealthLoopPromotesDarkPrimary(t *testing.T) {
	dir := t.TempDir()
	primary := launch(t, filepath.Join(dir, "p.wal"), "", replica.Config{Role: replica.RolePrimary})
	follower := launch(t, filepath.Join(dir, "f.wal"), "", replica.Config{
		Role: replica.RoleFollower, PrimaryURL: primary.url, PollWait: 100 * time.Millisecond,
	})
	co, err := shard.NewReplicated([][]string{{primary.url, follower.url}}, shard.Config{
		PartitionTimeout: 2 * time.Second,
		HealthInterval:   50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	client := server.NewClient(httptest.NewServer(co.Handler()).URL)
	if _, err := client.Append(testEvents(16, 1)); err != nil {
		t.Fatal(err)
	}
	// A coordinator's answer carries no sequence number, so wait on the
	// primary's own log end: stopping the primary with the follower's
	// first fetch still being served closes the log under that handler.
	waitCaughtUp(t, follower.url, primary.log.LastSeq())

	primary.stop()
	deadline := time.Now().Add(10 * time.Second)
	for co.Failovers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("health loop never promoted the follower")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := co.Primary(0); got != follower.url {
		t.Fatalf("partition 0 primary is %s, want promoted follower %s", got, follower.url)
	}
	// Appends flow again, no failover needed at append time.
	if _, err := client.Append(testEvents(4, 100)); err != nil {
		t.Fatal(err)
	}
}

// TestCoordinatorReplayDeduped: sending client-tagged batches through the
// coordinator a second time (a retry after a lost response) is absorbed by
// the per-partition batch IDs derived from the tags — the partition WALs
// do not grow and the aggregated result says Deduped — whether the batches
// travel as frames of one append stream or as whole-message appends.
func TestCoordinatorReplayDeduped(t *testing.T) {
	const frames, perFrame = 4, 10
	batch := func(f int) (historygraph.EventList, string) {
		events := make(historygraph.EventList, perFrame)
		for i := range events {
			events[i] = historygraph.Event{
				Type: historygraph.AddNode, At: historygraph.Time(f + 1),
				Node: historygraph.NodeID(f*perFrame + i + 1),
			}
		}
		return events, fmt.Sprintf("resume-%d", f)
	}
	for form, send := range map[string]func(t *testing.T, client *server.Client) *wire.AppendResult{
		"stream": func(t *testing.T, client *server.Client) *wire.AppendResult {
			st, err := client.AppendStream()
			if err != nil {
				t.Fatal(err)
			}
			for f := 0; f < frames; f++ {
				if err := st.SendBatch(batch(f)); err != nil {
					t.Fatal(err)
				}
			}
			res, err := st.Close()
			if err != nil {
				t.Fatal(err)
			}
			return res
		},
		"whole-message": func(t *testing.T, client *server.Client) *wire.AppendResult {
			var agg wire.AppendResult
			for f := 0; f < frames; f++ {
				events, tag := batch(f)
				res, err := client.AppendBatchCtx(context.Background(), events, tag)
				if err != nil {
					t.Fatal(err)
				}
				agg.Fold(*res)
				agg.Partial = append(agg.Partial, res.Partial...)
			}
			return &agg
		},
	} {
		t.Run(form, func(t *testing.T) {
			dir := t.TempDir()
			const parts = 2
			primaries := make([]*cnode, parts)
			sets := make([][]string, parts)
			for p := 0; p < parts; p++ {
				primaries[p] = launch(t, filepath.Join(dir, fmt.Sprintf("p%d.wal", p)), "", replica.Config{Role: replica.RolePrimary})
				sets[p] = []string{primaries[p].url}
			}
			co, err := shard.NewReplicated(sets, shard.Config{PartitionTimeout: 5 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			defer co.Close()
			front := httptest.NewServer(co.Handler())
			defer front.Close()
			client := server.NewClient(front.URL)

			res1 := send(t, client)
			if res1.Appended != frames*perFrame || res1.Deduped || len(res1.Partial) != 0 {
				t.Fatalf("fresh: %+v", res1)
			}
			seqs := make([]uint64, parts)
			for p := range primaries {
				seqs[p] = primaries[p].log.LastSeq()
			}

			res2 := send(t, client)
			if !res2.Deduped {
				t.Fatalf("replay not reported deduped: %+v", res2)
			}
			if len(res2.Partial) != 0 {
				t.Fatalf("replay reported partials: %+v", res2.Partial)
			}
			for p := range primaries {
				if got := primaries[p].log.LastSeq(); got != seqs[p] {
					t.Fatalf("partition %d WAL grew on replay: seq %d -> %d", p, seqs[p], got)
				}
			}
			snap, err := client.Snapshot(historygraph.Time(frames), "", false)
			if err != nil {
				t.Fatal(err)
			}
			if snap.NumNodes != frames*perFrame {
				t.Fatalf("cluster holds %d nodes, want %d", snap.NumNodes, frames*perFrame)
			}
		})
	}
}
