package shard

// The elastic-resharding oracle suite. The contract under test: a live
// split or merge — slot migration, cutover epoch, table install — is
// invisible to clients. A cluster resharded mid-workload must keep
// answering every read byte-identically to an unsharded server over the
// same event history, appends crossing the flip must land exactly once,
// and a crashed migration source or target must degrade to a clean
// abort or resume, never a divergent layout.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"historygraph"
	"historygraph/internal/replica"
	"historygraph/internal/server"
	"historygraph/internal/wire"
)

// rnode is one WAL-backed cluster member (replica.Node over an empty
// graph), the worker shape reshard migration streams between.
type rnode struct {
	gm      *historygraph.GraphManager
	svc     *server.Server
	log     *replica.Log
	node    *replica.Node
	httpSrv *httptest.Server
	url     string
	stopped bool
}

func launchRNode(t testing.TB, walPath string, cfg replica.Config) *rnode {
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
	rn := &rnode{gm: gm, svc: svc, log: log, node: node}
	rn.httpSrv = httptest.NewServer(node.Handler())
	rn.url = rn.httpSrv.URL
	t.Cleanup(rn.stop)
	return rn
}

func (rn *rnode) stop() {
	if rn.stopped {
		return
	}
	rn.stopped = true
	rn.httpSrv.Close()
	rn.node.Close()
	rn.svc.Close()
	rn.log.Close()
	rn.gm.Close()
}

// postReshard drives POST /admin/reshard raw, the way an operator would.
func postReshard(t *testing.T, base string, req ReshardRequest) (*ReshardStatus, int, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/admin/reshard", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode, string(data)
	}
	var st ReshardStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("bad reshard status %s: %v", data, err)
	}
	return &st, resp.StatusCode, ""
}

// getRaw is rawGET without the fatal-on-error, for workload goroutines.
func getRaw(url string) (int, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// mustMatchRaw byte-compares one query across the oracle and the
// cluster. Each side is fetched twice and the second responses compared:
// the first fetch warms both response caches, so the cached flag agrees
// and the comparison is exact bytes, never modulo cache state.
func mustMatchRaw(t *testing.T, stage, oracleURL, frontURL, query string) {
	t.Helper()
	rawGET(t, oracleURL+query)
	rawGET(t, frontURL+query)
	want := rawGET(t, oracleURL+query)
	got := rawGET(t, frontURL+query)
	if !bytes.Equal(got, want) {
		t.Fatalf("[%s] %s diverges from unsharded oracle:\n got: %.400s\nwant: %.400s", stage, query, got, want)
	}
}

// mustMatchNeighbors compares a neighborhood canonically: the
// coordinator merges per-partition adjacency sorted and deduplicated,
// while the unsharded server reports its own adjacency order, so the
// contract is set equality plus the exact degree — not byte equality.
func mustMatchNeighbors(t *testing.T, stage string, oc, fc *server.Client, tp historygraph.Time, n historygraph.NodeID) {
	t.Helper()
	want, err := oc.Neighbors(tp, n, "")
	if err != nil {
		t.Fatalf("[%s] oracle neighbors(%d, %d): %v", stage, tp, n, err)
	}
	got, err := fc.Neighbors(tp, n, "")
	if err != nil {
		t.Fatalf("[%s] cluster neighbors(%d, %d): %v", stage, tp, n, err)
	}
	if got.Degree != want.Degree {
		t.Fatalf("[%s] node %d degree: cluster %d, oracle %d", stage, n, got.Degree, want.Degree)
	}
	ws := append([]int64(nil), want.Neighbors...)
	gs := append([]int64(nil), got.Neighbors...)
	sort.Slice(ws, func(a, b int) bool { return ws[a] < ws[b] })
	sort.Slice(gs, func(a, b int) bool { return gs[a] < gs[b] })
	// The oracle list may hold duplicates only if the graph does; both
	// sides are dedup-consistent views of the same adjacency.
	dedup := func(s []int64) []int64 {
		out := s[:0]
		for i, v := range s {
			if i == 0 || v != s[i-1] {
				out = append(out, v)
			}
		}
		return out
	}
	ws, gs = dedup(ws), dedup(gs)
	if len(ws) != len(gs) {
		t.Fatalf("[%s] node %d: cluster %d neighbors, oracle %d", stage, n, len(gs), len(ws))
	}
	for i := range ws {
		if ws[i] != gs[i] {
			t.Fatalf("[%s] node %d: neighbor sets diverge at %d: %d vs %d", stage, n, i, gs[i], ws[i])
		}
	}
}

// TestReshardSplitMergeUnderLoadOracle is the tentpole acceptance check:
// a 2-partition WAL-backed cluster is split to three partitions and then
// merged back to two, each flip under a live mixed workload, and after
// every epoch flip the cluster answers /snapshot, /batch and /interval
// byte-identically — and /neighbors canonically — to an unsharded server
// fed the same acked events. Zero workload errors are tolerated: the
// cutover must degrade to internal rerouting, never to a client failure.
func TestReshardSplitMergeUnderLoadOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a live cluster and reshards it twice under load")
	}
	events := testEvents()
	dir := t.TempDir()
	p0 := launchRNode(t, filepath.Join(dir, "p0.wal"), replica.Config{Role: replica.RolePrimary})
	p1 := launchRNode(t, filepath.Join(dir, "p1.wal"), replica.Config{Role: replica.RolePrimary})
	co, err := NewReplicated([][]string{{p0.url}, {p1.url}}, Config{PartitionTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	front := httptest.NewServer(co.Handler())
	defer front.Close()
	client := server.NewClient(front.URL)

	// The unsharded oracle receives exactly the events the cluster acks.
	ogm, err := historygraph.Open(historygraph.Options{LeafEventlistSize: 128, CleanerInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer ogm.Close()
	osvc := server.New(ogm, server.Config{CacheSize: 32})
	defer osvc.Close()
	ohs := httptest.NewServer(osvc.Handler())
	defer ohs.Close()
	oclient := server.NewClient(ohs.URL)

	const batches = 8
	for i := 0; i < batches; i++ {
		lo, hi := i*len(events)/batches, (i+1)*len(events)/batches
		if _, err := client.Append(events[lo:hi]); err != nil {
			t.Fatalf("preload batch %d: %v", i, err)
		}
		if _, err := oclient.Append(events[lo:hi]); err != nil {
			t.Fatalf("oracle preload batch %d: %v", i, err)
		}
	}
	_, last := events.Span()

	// timeCtr reserves timestamps for the writer; pubTime trails it and
	// advances only once a timestamp's batch is acked by both deployments,
	// so readers never query a time the index has not absorbed yet.
	var timeCtr, pubTime, nodeCtr, edgeCtr atomic.Int64
	timeCtr.Store(int64(last))
	pubTime.Store(int64(last))
	nodeCtr.Store(1 << 20)
	edgeCtr.Store(1 << 41)

	var errMu sync.Mutex
	var wlErrs []string
	record := func(format string, args ...any) {
		errMu.Lock()
		defer errMu.Unlock()
		if len(wlErrs) < 8 {
			wlErrs = append(wlErrs, fmt.Sprintf(format, args...))
		}
	}
	checkErrs := func(stage string) {
		t.Helper()
		errMu.Lock()
		defer errMu.Unlock()
		if len(wlErrs) > 0 {
			t.Fatalf("[%s] workload errors: %v", stage, wlErrs)
		}
	}

	// startLoad runs one writer (fresh nodes plus an edge between them,
	// dual-written to the oracle on ack) and three random readers until
	// the returned stop function is called.
	startLoad := func(seed int64) (stop func()) {
		done := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				at := historygraph.Time(timeCtr.Add(1))
				a := historygraph.NodeID(nodeCtr.Add(1))
				b := historygraph.NodeID(nodeCtr.Add(1))
				batch := historygraph.EventList{
					{Type: historygraph.AddNode, At: at, Node: a},
					{Type: historygraph.AddNode, At: at, Node: b},
					{Type: historygraph.AddEdge, At: at, Edge: historygraph.EdgeID(edgeCtr.Add(1)), Node: a, Node2: b},
				}
				res, err := client.Append(batch)
				if err != nil {
					record("append at %d: %v", at, err)
					return
				}
				if len(res.Partial) > 0 {
					record("append at %d partial: %+v", at, res.Partial)
					return
				}
				if _, err := oclient.Append(batch); err != nil {
					record("oracle append at %d: %v", at, err)
					return
				}
				pubTime.Store(int64(at))
				time.Sleep(2 * time.Millisecond)
			}
		}()
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed + int64(r)))
				for {
					select {
					case <-done:
						return
					default:
					}
					maxT := pubTime.Load()
					tp := 1 + rng.Int63n(maxT)
					var q string
					switch rng.Intn(4) {
					case 0:
						q = fmt.Sprintf("/snapshot?t=%d", tp)
					case 1:
						q = fmt.Sprintf("/neighbors?t=%d&node=%d", tp, rng.Intn(200))
					case 2:
						q = fmt.Sprintf("/batch?t=%d,%d", tp, 1+rng.Int63n(maxT))
					default:
						from := 1 + rng.Int63n(maxT)
						q = fmt.Sprintf("/interval?from=%d&to=%d", from, from+1+rng.Int63n(maxT-from+1))
					}
					if code, err := getRaw(front.URL + q); err != nil || code != http.StatusOK {
						record("reader %s: code %d err %v", q, code, err)
						return
					}
				}
			}(r)
		}
		return func() { close(done); wg.Wait() }
	}

	compare := func(stage string) {
		t.Helper()
		maxT := pubTime.Load()
		tps := []int64{maxT / 4, maxT / 2, maxT}
		for _, tp := range tps {
			mustMatchRaw(t, stage, ohs.URL, front.URL, fmt.Sprintf("/snapshot?t=%d&full=1", tp))
			mustMatchRaw(t, stage, ohs.URL, front.URL, fmt.Sprintf("/snapshot?t=%d", tp))
		}
		mustMatchRaw(t, stage, ohs.URL, front.URL,
			fmt.Sprintf("/batch?t=%d,%d,%d&full=1", tps[0], tps[1], tps[2]))
		mustMatchRaw(t, stage, ohs.URL, front.URL,
			fmt.Sprintf("/interval?from=1&to=%d&full=1", maxT/2))
		for n := historygraph.NodeID(0); n < 200; n += 23 {
			mustMatchNeighbors(t, stage, oclient, client, historygraph.Time(maxT/2), n)
		}
	}
	compare("preloaded")

	// Split: a fresh WAL-backed worker joins as partition 2 and takes a
	// balanced share of the slot space, mid-workload.
	stop := startLoad(1)
	time.Sleep(250 * time.Millisecond)
	t0 := launchRNode(t, filepath.Join(dir, "t0.wal"), replica.Config{Role: replica.RolePrimary})
	st, code, errBody := postReshard(t, front.URL, ReshardRequest{Target: []string{t0.url}})
	if code != http.StatusOK {
		t.Fatalf("split reshard: HTTP %d: %s", code, errBody)
	}
	if st.Epoch != 2 || st.Partitions != 3 || st.Moved == 0 || st.Migrated == 0 {
		t.Fatalf("split status: %+v", st)
	}
	time.Sleep(250 * time.Millisecond)
	stop()
	checkErrs("split")
	if co.Epoch() != 2 || co.NumPartitions() != 3 {
		t.Fatalf("after split: epoch %d partitions %d", co.Epoch(), co.NumPartitions())
	}
	compare("after split")

	// Merge: partitions 1 and 2 retire onto another fresh worker — their
	// histories interleave into one stream — again mid-workload.
	stop = startLoad(2)
	time.Sleep(250 * time.Millisecond)
	t1 := launchRNode(t, filepath.Join(dir, "t1.wal"), replica.Config{Role: replica.RolePrimary})
	st2, code, errBody := postReshard(t, front.URL, ReshardRequest{Target: []string{t1.url}, Merge: []int{1, 2}})
	if code != http.StatusOK {
		t.Fatalf("merge reshard: HTTP %d: %s", code, errBody)
	}
	if st2.Epoch != 3 || st2.Partitions != 2 || st2.Migrated == 0 {
		t.Fatalf("merge status: %+v", st2)
	}
	time.Sleep(250 * time.Millisecond)
	stop()
	checkErrs("merge")
	if co.Epoch() != 3 || co.NumPartitions() != 2 {
		t.Fatalf("after merge: epoch %d partitions %d", co.Epoch(), co.NumPartitions())
	}
	// Every migrated event is one WAL record on the merge target; the
	// target then keeps absorbing routed appends, so its head is at least
	// the migrated count.
	if t1.log.LastSeq() < st2.Migrated {
		t.Fatalf("merge target logged %d records, migration reported %d", t1.log.LastSeq(), st2.Migrated)
	}
	compare("after merge")

	if got := co.reshards.Value(); got != 2 {
		t.Errorf("reshards counter = %d, want 2", got)
	}
	if got := co.partials.Value(); got != 0 {
		t.Errorf("partial responses under reshard = %d, want 0", got)
	}
}

// waitMigrationState polls the target's ingest until cond is satisfied.
func waitMigrationState(t *testing.T, url string, what string, cond func(*replica.MigrateStatus) bool) *replica.MigrateStatus {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		st, err := replica.MigrationStatus(context.Background(), http.DefaultClient, url)
		if err == nil && cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("migration on %s never reached %s (last: %+v, err %v)", url, what, st, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestMigrationSourceCrashResumeAndAbort is the source-death drill. A
// replica set holds the full trace on a primary and a synchronously
// acked follower; the primary dies. (a) An ingest sourced at the dead
// member first must rotate to the live follower and still drain to the
// exact event count. (b) An ingest whose only source is dead makes no
// progress, aborts cleanly on Stop, and the same target then resumes
// from the live member — again to the exact count. The WAL oracle is
// TestFailoverRetryDedupedConcurrent's: one log record per event, so
// the target head equals the moved-slot event count precisely.
func TestMigrationSourceCrashResumeAndAbort(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a replica set and crashes its primary")
	}
	events := testEvents()
	dir := t.TempDir()
	src := launchRNode(t, filepath.Join(dir, "src.wal"), replica.Config{
		Role: replica.RolePrimary, SyncFollowers: 1, AckTimeout: 10 * time.Second,
	})
	fol := launchRNode(t, filepath.Join(dir, "fol.wal"), replica.Config{
		Role: replica.RoleFollower, PrimaryURL: src.url, SelfID: "fol",
		PollWait: 100 * time.Millisecond,
	})
	scl := server.NewClient(src.url)
	const batches = 4
	for i := 0; i < batches; i++ {
		lo, hi := i*len(events)/batches, (i+1)*len(events)/batches
		if _, err := scl.Append(events[lo:hi]); err != nil {
			t.Fatalf("preload batch %d: %v", i, err)
		}
	}
	head := src.log.LastSeq()
	deadline := time.Now().Add(15 * time.Second)
	for fol.log.LastSeq() < head {
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up to %d (at %d)", head, fol.log.LastSeq())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The moving slots and their exact event count.
	var moved []int
	for s := 0; s < NumSlots; s += 2 {
		moved = append(moved, s)
	}
	inMoved := make(map[int]bool, len(moved))
	for _, s := range moved {
		inMoved[s] = true
	}
	var want uint64
	for _, ev := range events {
		if inMoved[SlotOfEvent(ev)] {
			want++
		}
	}
	if want == 0 || want == uint64(len(events)) {
		t.Fatalf("degenerate moved-slot count %d of %d", want, len(events))
	}

	src.stop() // the crash

	// (a) Resume: the dead member listed first, the live follower second.
	// fetchPage must rotate past the refused connection and stream the
	// whole moved history from the follower.
	ctx := context.Background()
	tgtA := launchRNode(t, filepath.Join(dir, "tgtA.wal"), replica.Config{Role: replica.RolePrimary})
	if _, err := replica.Migrate(ctx, http.DefaultClient, tgtA.url, replica.MigrateRequest{
		Sources: []replica.MigrateSource{{URLs: []string{src.url, fol.url}, Slots: moved}},
	}); err != nil {
		t.Fatalf("starting migration: %v", err)
	}
	if _, err := replica.Migrate(ctx, http.DefaultClient, tgtA.url, replica.MigrateRequest{
		Finalize: []uint64{head},
	}); err != nil {
		t.Fatalf("finalizing migration: %v", err)
	}
	st := waitMigrationState(t, tgtA.url, "done", func(st *replica.MigrateStatus) bool { return st.Done })
	if st.Applied != want {
		t.Fatalf("resumed migration applied %d events, want %d", st.Applied, want)
	}
	if got := tgtA.log.LastSeq(); got != want {
		t.Fatalf("resumed target logged %d records, want %d", got, want)
	}
	if _, err := replica.Migrate(ctx, http.DefaultClient, tgtA.url, replica.MigrateRequest{Stop: true}); err != nil {
		t.Fatalf("stopping migration: %v", err)
	}

	// (b) Abort: only the dead member as source — no progress, surfaced
	// as a fetch error, never fatal. Stop aborts cleanly; the same target
	// (WAL still empty) then restarts from the live member and drains.
	tgtB := launchRNode(t, filepath.Join(dir, "tgtB.wal"), replica.Config{Role: replica.RolePrimary})
	if _, err := replica.Migrate(ctx, http.DefaultClient, tgtB.url, replica.MigrateRequest{
		Sources: []replica.MigrateSource{{URLs: []string{src.url}, Slots: moved}},
	}); err != nil {
		t.Fatalf("starting doomed migration: %v", err)
	}
	stB := waitMigrationState(t, tgtB.url, "a surfaced fetch error",
		func(st *replica.MigrateStatus) bool { return st.Error != "" && !st.Done })
	if stB.Applied != 0 {
		t.Fatalf("doomed migration applied %d events from a dead source", stB.Applied)
	}
	if _, err := replica.Migrate(ctx, http.DefaultClient, tgtB.url, replica.MigrateRequest{Stop: true}); err != nil {
		t.Fatalf("aborting migration: %v", err)
	}
	if got := tgtB.log.LastSeq(); got != 0 {
		t.Fatalf("aborted migration left %d WAL records", got)
	}
	if _, err := replica.Migrate(ctx, http.DefaultClient, tgtB.url, replica.MigrateRequest{
		Sources: []replica.MigrateSource{{URLs: []string{fol.url}, Slots: moved}},
	}); err != nil {
		t.Fatalf("restarting aborted migration: %v", err)
	}
	if _, err := replica.Migrate(ctx, http.DefaultClient, tgtB.url, replica.MigrateRequest{
		Finalize: []uint64{head},
	}); err != nil {
		t.Fatalf("finalizing restarted migration: %v", err)
	}
	st = waitMigrationState(t, tgtB.url, "done", func(st *replica.MigrateStatus) bool { return st.Done })
	if st.Applied != want || tgtB.log.LastSeq() != want {
		t.Fatalf("restarted migration: applied %d, logged %d, want %d", st.Applied, tgtB.log.LastSeq(), want)
	}
}

// TestReshardTargetCrashAborts is the new-owner-death drill: a reshard
// aimed at a dead target must abort without flipping the epoch or
// perturbing a single answer, and a retry with a live target must then
// succeed — with the migrated count matching the moved slots' event
// count exactly, on both the reported status and the target's WAL.
func TestReshardTargetCrashAborts(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a WAL-backed cluster")
	}
	events := testEvents()
	dir := t.TempDir()
	p0 := launchRNode(t, filepath.Join(dir, "p0.wal"), replica.Config{Role: replica.RolePrimary})
	p1 := launchRNode(t, filepath.Join(dir, "p1.wal"), replica.Config{Role: replica.RolePrimary})
	co, err := NewReplicated([][]string{{p0.url}, {p1.url}}, Config{PartitionTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	front := httptest.NewServer(co.Handler())
	defer front.Close()
	client := server.NewClient(front.URL)
	for i := 0; i < 4; i++ {
		lo, hi := i*len(events)/4, (i+1)*len(events)/4
		if _, err := client.Append(events[lo:hi]); err != nil {
			t.Fatalf("preload batch %d: %v", i, err)
		}
	}
	_, ourl := func() (*historygraph.GraphManager, string) {
		gm, _, u := oracle(t, events)
		return gm, u
	}()
	_, last := events.Span()

	compare := func(stage string) {
		t.Helper()
		for _, tp := range []historygraph.Time{last / 2, last} {
			mustMatchRaw(t, stage, ourl, front.URL, fmt.Sprintf("/snapshot?t=%d&full=1", tp))
		}
	}
	compare("preloaded")

	// The dead target: launched to claim a real port, then stopped, so
	// the coordinator's first migration call hits a refused connection.
	dead := launchRNode(t, filepath.Join(dir, "dead.wal"), replica.Config{Role: replica.RolePrimary})
	deadURL := dead.url
	dead.stop()
	_, code, errBody := postReshard(t, front.URL, ReshardRequest{Target: []string{deadURL}})
	if code != http.StatusBadGateway {
		t.Fatalf("reshard to dead target: HTTP %d (%s), want 502", code, errBody)
	}
	if co.Epoch() != 1 || co.NumPartitions() != 2 {
		t.Fatalf("aborted reshard changed the layout: epoch %d partitions %d", co.Epoch(), co.NumPartitions())
	}
	if got := co.reshards.Value(); got != 0 {
		t.Fatalf("aborted reshard counted as completed (%d)", got)
	}
	compare("after aborted reshard")

	// Retry with a live target: the exact-count oracle. Every preload
	// event whose slot moved is exactly one WAL record on the new owner.
	tgt := launchRNode(t, filepath.Join(dir, "tgt.wal"), replica.Config{Role: replica.RolePrimary})
	st, code, errBody := postReshard(t, front.URL, ReshardRequest{Target: []string{tgt.url}})
	if code != http.StatusOK {
		t.Fatalf("retry reshard: HTTP %d: %s", code, errBody)
	}
	if st.Epoch != 2 || st.Partitions != 3 {
		t.Fatalf("retry status: %+v", st)
	}
	movedSlots := co.rt().table.OwnedBy(2)
	if len(movedSlots) != st.Moved {
		t.Fatalf("status moved %d slots, table shows %d", st.Moved, len(movedSlots))
	}
	inMoved := make(map[int]bool, len(movedSlots))
	for _, s := range movedSlots {
		inMoved[s] = true
	}
	var want uint64
	for _, ev := range events {
		if inMoved[SlotOfEvent(ev)] {
			want++
		}
	}
	if st.Migrated != want {
		t.Fatalf("migrated %d events, moved slots hold %d", st.Migrated, want)
	}
	if got := tgt.log.LastSeq(); got != want {
		t.Fatalf("target logged %d records, want exactly %d", got, want)
	}
	compare("after recovery reshard")
}

// TestStaleEpochReadReroutedOnce: a read leg fenced with 410 Gone is
// replanned exactly once against the freshly installed table and
// succeeds; the worker that fenced is never asked again. The whole-message
// /snapshot and the streamed one take the same reroute.
func TestStaleEpochReadReroutedOnce(t *testing.T) {
	events := testEvents()
	gm := buildManager(t, events)
	svc := server.New(gm, server.Config{CacheSize: 16})
	hs := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { hs.Close(); svc.Close() })
	last := gm.LastTime()

	for _, shape := range []string{"json", wire.NameBinaryStream} {
		t.Run(shape, func(t *testing.T) {
			var co *Coordinator
			coReady := make(chan struct{})
			var fences atomic.Int64
			// The fencing worker: data reads get 410 after the successor
			// routing (epoch 2, pointing straight at the real worker) is
			// installed — the worker-pushed-before-install window of a real
			// cutover.
			proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != "/snapshot" {
					http.NotFound(w, r)
					return
				}
				<-coReady
				fences.Add(1)
				next := DefaultSlotTable(1)
				next.Epoch = 2
				co.installRouting(&routing{table: next, sets: []*replicaSet{newReplicaSet([]string{hs.URL}, co.hc)}})
				server.WriteError(w, http.StatusGone, fmt.Errorf("routing epoch 1 does not match installed epoch 2"))
			}))
			t.Cleanup(proxy.Close)

			var err error
			co, err = New([]string{proxy.URL}, Config{PartitionTimeout: time.Second, CacheSize: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer co.Close()
			close(coReady)
			front := httptest.NewServer(co.Handler())
			defer front.Close()
			// A streamed read asks with Accept: wire.ContentTypeBinaryStream.
			client, err := server.NewClient(front.URL).SetWire(shape)
			if err != nil {
				t.Fatal(err)
			}

			got, err := client.Snapshot(last/2, "", true)
			if err != nil {
				t.Fatal(err)
			}
			want, err := server.NewClient(hs.URL).Snapshot(last/2, "", true)
			if err != nil {
				t.Fatal(err)
			}
			if got.NumNodes != want.NumNodes || got.NumEdges != want.NumEdges || len(got.Nodes) != len(want.Nodes) || len(got.Partial) != 0 {
				t.Fatalf("rerouted read answered %d/%d (%d listed, partial %v), worker holds %d/%d",
					got.NumNodes, got.NumEdges, len(got.Nodes), got.Partial, want.NumNodes, want.NumEdges)
			}
			if got := co.reroutes.Value(); got != 1 {
				t.Errorf("reroutes = %d, want exactly 1", got)
			}
			if got := fences.Load(); got != 1 {
				t.Errorf("fenced worker was asked %d times, want 1", got)
			}
			// Later reads run against the installed table: no further fences.
			if _, err := client.Snapshot(last/2, "", true); err != nil {
				t.Fatal(err)
			}
			if got := co.reroutes.Value(); got != 1 {
				t.Errorf("reroutes after settled read = %d, want 1", got)
			}
			if got := fences.Load(); got != 1 {
				t.Errorf("settled read went back to the fenced worker (%d hits)", got)
			}
		})
	}
}

// TestStaleEpochAppendRerouteDeduped: an append leg that was applied by
// the worker but answered with 410 — the dual-write window of a cutover
// driven outside this coordinator's gate — is resent under the freshly
// installed table with the leg's ORIGINAL batch ID, and the new owner's
// batch-ID machinery absorbs the duplicate: one WAL record per event,
// counted once, with the retry acked as deduped. A batch and a one-frame
// append stream are the same request to the coordinator, so both forms
// are re-routed alike.
func TestStaleEpochAppendRerouteDeduped(t *testing.T) {
	for _, form := range []struct {
		name string
		send func(*server.Client, historygraph.EventList) (*wire.AppendResult, error)
	}{
		{"batch", (*server.Client).Append},
		{"stream", func(cl *server.Client, events historygraph.EventList) (*wire.AppendResult, error) {
			stream, err := cl.AppendStream()
			if err != nil {
				return nil, err
			}
			if err := stream.Send(events); err != nil {
				return nil, err
			}
			return stream.Close()
		}},
	} {
		t.Run(form.name, func(t *testing.T) {
			testStaleEpochAppendReroute(t, form.send)
		})
	}
}

func testStaleEpochAppendReroute(t *testing.T, send func(*server.Client, historygraph.EventList) (*wire.AppendResult, error)) {
	f := newFencedAppend(t)
	const n = 20
	res, err := send(f.client, f.fresh(0, n))
	if err != nil {
		t.Fatalf("append across the fence: %v", err)
	}
	if len(res.Partial) > 0 {
		t.Fatalf("append reported partial: %+v", res.Partial)
	}
	if !res.Deduped {
		t.Error("rerouted append was not absorbed by the batch-ID dedup")
	}
	if got := f.primary.log.LastSeq(); got != f.preSeq+n {
		t.Fatalf("primary logged %d records, want %d: the dual-written batch must land exactly once", got, f.preSeq+n)
	}
	if got := f.co.reroutes.Value(); got != 1 {
		t.Errorf("reroutes = %d, want exactly 1", got)
	}
	if got := f.fences.Load(); got != 1 {
		t.Errorf("fenced worker saw %d appends, want 1", got)
	}
}

// TestStaleEpochStreamFencedMidStream: a stream whose lane is fenced at
// frame 0 of two drops frame 1's slice, so re-routing frame 0 alone would
// answer success over a hole. The fence stands: the stream fails naming
// frame 0, nothing is re-routed, and only frame 0's events were logged
// (the fencing proxy applied them).
func TestStaleEpochStreamFencedMidStream(t *testing.T) {
	f := newFencedAppend(t)
	stream, err := f.client.AppendStream()
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	for frame := 0; frame < 2; frame++ {
		if err := stream.Send(f.fresh(frame, n)); err != nil {
			t.Fatal(err)
		}
	}
	_, err = stream.Close()
	var he *server.HTTPError
	if !errors.As(err, &he) || he.Status != http.StatusGone || !strings.Contains(err.Error(), "frame 0:") {
		t.Fatalf("stream fenced at frame 0 answered %v, want a 410 naming frame 0", err)
	}
	if got := f.primary.log.LastSeq(); got != f.preSeq+n {
		t.Errorf("primary logged %d records, want frame 0's %d", got-f.preSeq, n)
	}
	if got := f.co.reroutes.Value(); got != 0 {
		t.Errorf("reroutes = %d, want 0", got)
	}
	if got := f.fences.Load(); got != 1 {
		t.Errorf("fenced worker saw %d appends, want 1", got)
	}
}

// fencedAppend is a one-partition coordinator whose only member is a
// fencing proxy in front of a WAL-backed primary: the proxy forwards an
// append verbatim (batch ID, epoch stamp and all) to the primary, which
// durably applies it — then moves the coordinator's routing on to epoch 2
// (the same primary) and answers 410, as a worker that cut over
// mid-request would. Later appends go straight to the primary.
type fencedAppend struct {
	primary *rnode
	co      *Coordinator
	client  *server.Client
	fences  *atomic.Int64
	preSeq  uint64
	last    historygraph.Time
}

func newFencedAppend(t *testing.T) *fencedAppend {
	events := testEvents()
	primary := launchRNode(t, filepath.Join(t.TempDir(), "p.wal"), replica.Config{Role: replica.RolePrimary})
	if _, err := server.NewClient(primary.url).Append(events); err != nil {
		t.Fatal(err)
	}
	_, last := events.Span()
	f := &fencedAppend{primary: primary, fences: new(atomic.Int64), preSeq: primary.log.LastSeq(), last: last}
	coReady := make(chan struct{})
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/append" {
			http.NotFound(w, r)
			return
		}
		<-coReady
		f.fences.Add(1)
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Errorf("proxy read: %v", err)
		}
		req, err := http.NewRequest(http.MethodPost, primary.url+r.URL.RequestURI(), bytes.NewReader(body))
		if err != nil {
			t.Errorf("proxy build: %v", err)
			return
		}
		req.Header = r.Header.Clone()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Errorf("proxy forward: %v", err)
		} else {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("forwarded append: HTTP %d", resp.StatusCode)
			}
		}
		next := DefaultSlotTable(1)
		next.Epoch = 2
		f.co.installRouting(&routing{table: next, sets: []*replicaSet{newReplicaSet([]string{primary.url}, f.co.hc)}})
		server.WriteError(w, http.StatusGone, fmt.Errorf("routing epoch 1 does not match installed epoch 2"))
	}))
	t.Cleanup(proxy.Close)

	co, err := New([]string{proxy.URL}, Config{PartitionTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Close)
	f.co = co
	close(coReady)
	front := httptest.NewServer(co.Handler())
	t.Cleanup(front.Close)
	f.client = server.NewClient(front.URL)
	return f
}

// fresh is frame's batch of n new nodes, one timestamp past the seed each.
func (f *fencedAppend) fresh(frame, n int) historygraph.EventList {
	batch := make(historygraph.EventList, 0, n)
	for i := 0; i < n; i++ {
		batch = append(batch, historygraph.Event{
			Type: historygraph.AddNode, At: f.last + 1 + historygraph.Time(frame), Node: historygraph.NodeID(1<<21 + frame<<10 + i),
		})
	}
	return batch
}

// TestReshardValidation pins the admission errors: a target already in
// the layout, mutually exclusive modes, an empty target list, an
// out-of-range merge index, a concurrent reshard, and the idle status
// answer.
func TestReshardValidation(t *testing.T) {
	events := testEvents()
	c := newCluster(t, events, 2, Config{})
	front := c.client.BaseURL()

	_, code, msg := postReshard(t, front, ReshardRequest{Target: []string{c.httpSrvs[0].URL}})
	if code != http.StatusUnprocessableEntity {
		t.Errorf("target already a member: HTTP %d (%s), want 422", code, msg)
	}
	_, code, msg = postReshard(t, front, ReshardRequest{
		Target: []string{"http://127.0.0.1:1"}, Slots: []int{3}, Merge: []int{1},
	})
	if code != http.StatusBadRequest {
		t.Errorf("merge+slots: HTTP %d (%s), want 400", code, msg)
	}
	_, code, msg = postReshard(t, front, ReshardRequest{})
	if code != http.StatusBadRequest {
		t.Errorf("empty target: HTTP %d (%s), want 400", code, msg)
	}
	_, code, msg = postReshard(t, front, ReshardRequest{
		Target: []string{"http://127.0.0.1:1"}, Merge: []int{7},
	})
	if code != http.StatusUnprocessableEntity {
		t.Errorf("merge out of range: HTTP %d (%s), want 422", code, msg)
	}

	// One reshard at a time: with the driver lock held, the endpoint
	// answers 409 instead of queueing a second cutover.
	c.co.reshardMu.Lock()
	_, status, err := c.co.Reshard(context.Background(), ReshardRequest{Target: []string{"http://127.0.0.1:1"}})
	c.co.reshardMu.Unlock()
	if status != http.StatusConflict || err == nil {
		t.Errorf("concurrent reshard: status %d err %v, want 409", status, err)
	}

	// Idle status: the boot layout, epoch 1.
	var st ReshardStatus
	if err := json.Unmarshal(rawGET(t, front+"/admin/reshard"), &st); err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 1 || st.Partitions != 2 {
		t.Errorf("idle reshard status: %+v", st)
	}
}

// TestSlotTableOps pins the routing-table algebra the reshard planner
// builds on: the boot table matches the boot hash, Reassign bumps the
// epoch and moves exactly the listed slots, Renumber demands totality,
// and the auto-picker takes a balanced share without emptying any owner.
func TestSlotTableOps(t *testing.T) {
	tbl := DefaultSlotTable(3)
	if tbl.Epoch != 1 {
		t.Fatalf("boot epoch = %d", tbl.Epoch)
	}
	for s, p := range tbl.Slots {
		if p != s%3 {
			t.Fatalf("boot slot %d -> %d, want %d", s, p, s%3)
		}
	}
	next, err := tbl.Reassign([]int{0, 3, 6}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if next.Epoch != 2 {
		t.Fatalf("reassign epoch = %d, want 2", next.Epoch)
	}
	movedCount := 0
	for s := range next.Slots {
		if next.Slots[s] != tbl.Slots[s] {
			movedCount++
			if next.Slots[s] != 3 || (s != 0 && s != 3 && s != 6) {
				t.Fatalf("slot %d moved to %d", s, next.Slots[s])
			}
		}
	}
	if movedCount != 3 {
		t.Fatalf("reassign moved %d slots, want 3", movedCount)
	}
	if _, err := next.Renumber(map[int]int{0: 0, 1: 1}); err == nil {
		t.Fatal("partial renumbering accepted")
	}

	picked := pickSlots(DefaultSlotTable(2), 2)
	if want := NumSlots / 3; len(picked) != want {
		t.Fatalf("auto-pick chose %d slots, want %d", len(picked), want)
	}
	left := map[int]int{}
	seen := map[int]bool{}
	for _, s := range picked {
		if seen[s] {
			t.Fatalf("slot %d picked twice", s)
		}
		seen[s] = true
	}
	for s, p := range DefaultSlotTable(2).Slots {
		if !seen[s] {
			left[p]++
		}
	}
	for p := 0; p < 2; p++ {
		if left[p] < 1 {
			t.Fatalf("auto-pick emptied partition %d", p)
		}
	}
}
