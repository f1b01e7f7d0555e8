package deltagraph

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"historygraph/internal/baseline"
	"historygraph/internal/datagen"
	"historygraph/internal/graph"
	"historygraph/internal/graphpool"
	"historygraph/internal/kvstore"
)

// Queries must be able to run concurrently with appends, with checkpoints
// and with each other: the index takes the read lock for retrieval and for
// Checkpoint, the write lock for appends. Run with -race for full effect.
func TestConcurrentQueriesAndAppends(t *testing.T) {
	events := makeTrace(30, 4000)
	half := len(events) / 2
	pool := graphpool.New()
	dg, err := Build(events[:half], Options{LeafSize: 150, Arity: 3, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	firstHalfLast := events[half-1].At

	var wg sync.WaitGroup
	errs := make(chan error, 64)

	// Writer: appends the second half.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, ev := range events[half:] {
			if err := dg.Append(ev); err != nil {
				errs <- err
				return
			}
		}
	}()

	// Readers: snapshot queries over the stable first half, checked
	// against the reference; plus multipoint and aux-free plan costs.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				q := firstHalfLast * graph.Time(i%10+1) / 11
				got, err := dg.GetSnapshot(q, allAttrs)
				if err != nil {
					errs <- err
					return
				}
				want := graph.SnapshotAt(events, q)
				if !got.Equal(want) {
					errs <- errMismatch(q)
					return
				}
				if r == 0 {
					if _, err := dg.GetSnapshots([]graph.Time{q, q / 2}, allAttrs); err != nil {
						errs <- err
						return
					}
				}
			}
		}(r)
	}
	// A retriever into the pool, releasing as it goes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			id, err := dg.Retrieve(firstHalfLast/2, allAttrs)
			if err != nil {
				errs <- err
				return
			}
			if err := pool.Release(id); err != nil {
				errs <- err
				return
			}
			pool.CleanNow()
		}
	}()

	// Two checkpointers, racing each other, the writer and the readers.
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if err := dg.Checkpoint(); err != nil {
					errs <- err
					return
				}
				if st := dg.Stats(); st.CheckpointBytes <= 0 {
					errs <- fmt.Errorf("stats after a checkpoint: %+v", st)
					return
				}
			}
		}()
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// After the dust settles the whole trace must be queryable, and so
	// must what the last checkpoint caught of it (its newest timestamp
	// may be split, so probe strictly before that).
	checkAgainstReference(t, dg, events, allAttrs, probeTimes(events, 7))
	re, err := Open(Options{Store: dg.Store()})
	if err != nil {
		t.Fatal(err)
	}
	if re.LastTime() < firstHalfLast {
		t.Fatalf("reopened index ends at t=%d, before the bulk-built half (t=%d)", re.LastTime(), firstHalfLast)
	}
	var probes []graph.Time
	for _, q := range probeTimes(events, 12) {
		if q < re.LastTime() {
			probes = append(probes, q)
		}
	}
	checkAgainstReference(t, re, events, allAttrs, probes)
}

// TestPendingReadsUnderConcurrency: a read starts from the pending nodes'
// graphs in the pool, which only a leaf cut makes and lets go of, under the
// write lock. Readers at random past times race an appender across more than twenty
// cuts: every answer equals the oracle, and the skeleton holds nothing the
// cuts did not add.
func TestPendingReadsUnderConcurrency(t *testing.T) {
	events := makeTrace(31, 5000)
	const quiet = 2000 // events ingested before any reader starts
	dg, err := New(Options{LeafSize: 100, Arity: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := appendBatches(dg, events[:quiet]); err != nil {
		t.Fatal(err)
	}
	st := dg.Stats()
	if st.Leaves < 10 {
		t.Fatalf("an ingest of %d leaves", st.Leaves)
	}
	stable := events[quiet-1].At // history up to here never changes again

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	done := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				q := graph.Time(rng.Int63n(int64(stable) + 1))
				var got *graph.Snapshot
				var err error
				if i%5 == 4 {
					var many []*graph.Snapshot
					if many, err = dg.GetSnapshots([]graph.Time{q, stable}, allAttrs); err == nil {
						got = many[0]
					}
				} else {
					got, err = dg.GetSnapshot(q, allAttrs)
				}
				if err != nil {
					errs <- err
					return
				}
				if !got.Equal(graph.SnapshotAt(events, q)) {
					errs <- errMismatch(q)
					return
				}
			}
		}(r)
	}
	for lo := quiet; lo < len(events); lo += 16 {
		if err := dg.AppendAll(events[lo:min(lo+16, len(events))]); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	end := dg.Stats()
	cuts := end.Leaves - st.Leaves
	if cuts < 20 {
		t.Fatalf("only %d leaf cuts raced the readers", cuts)
	}
	if err := dg.onlyWhatCutsAdd(); err != nil {
		t.Error(err)
	}
	checkAgainstReference(t, dg, events, allAttrs, probeTimes(events, 9))
	if err := dg.validateInvariant(); err != nil {
		t.Error(err)
	}
}

type errMismatch graph.Time

func (e errMismatch) Error() string { return "snapshot mismatch under concurrency" }

// TestAppendWhileReading is the seam this package shares with the pool now
// that the current graph lives there alone: one appender crossing leaf cuts
// (ApplyEvent and ClearRecent under the index's write lock), readers that
// follow it closely on every path that reads the current graph (GetSnapshot
// and Retrieve just behind the head and at it, Checkpoint), and the pool's
// cleaner taking the pool's lock every millisecond. Every answer equals a
// naive replay at its time; a wrong lock order is a deadlock the test timeout
// reports. Run with -race.
func TestAppendWhileReading(t *testing.T) {
	events := datagen.MessyTrace(31, 18000)
	pool := graphpool.New()
	cleaner := graphpool.NewCleaner(pool, time.Millisecond)
	cleaner.Start()
	defer cleaner.Stop()
	const leaf, pace = 64, 256 // events a leaf holds, and between two waits for the readers
	dg, err := New(Options{LeafSize: leaf, Arity: 2, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	// settled is a time every event at or before which has been appended:
	// answers up to it are final.
	var settled atomic.Int64
	settled.Store(-1)
	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	failed := make(chan struct{}) // closed at the first error
	var failOnce sync.Once
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
		failOnce.Do(func() { close(failed) })
	}
	// The appender paces itself by the readers: after every pace events (four
	// leaves' worth) it waits for pace/leaf reads, so that the two meet however
	// the scheduler runs them. A reader hands over a token for each read it
	// completes; the buffer holds the tokens of one wait.
	tokens := make(chan struct{}, pace/leaf)
	wg.Add(1)
	go func() { // the appender
		defer wg.Done()
		defer close(done)
		for lo := 0; lo < len(events); lo += 7 {
			hi := min(lo+7, len(events))
			if err := dg.AppendAll(events[lo:hi]); err != nil {
				fail(err)
				return
			}
			if hi < len(events) && events[hi].At > events[hi-1].At {
				settled.Store(int64(events[hi-1].At))
			}
			if lo/pace != hi/pace {
				for range pace / leaf {
					select {
					case <-tokens:
					case <-failed:
					}
				}
			}
		}
	}()
	var seed int64
	var reads atomic.Int64
	reading := func(read func(rng *rand.Rand, settled graph.Time) error) {
		wg.Add(1)
		seed++
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				at := graph.Time(settled.Load())
				if at < 0 {
					runtime.Gosched() // nothing is final yet
					continue
				}
				if err := read(rng, at); err != nil {
					fail(err)
					return
				}
				reads.Add(1)
				select {
				case tokens <- struct{}{}:
				default:
				}
			}
		}(seed)
	}
	// near draws a settled time, most often within a leaf or two of the head.
	near := func(rng *rand.Rand, settled graph.Time) graph.Time {
		if rng.Intn(4) == 0 {
			return graph.Time(rng.Int63n(int64(settled) + 1))
		}
		return max(0, settled-graph.Time(rng.Intn(12)))
	}
	for i := 0; i < 2; i++ {
		reading(func(rng *rand.Rand, settled graph.Time) error {
			q := near(rng, settled)
			got, err := dg.GetSnapshot(q, allAttrs)
			if err == nil && !got.Equal(graph.SnapshotAt(events, q)) {
				err = fmt.Errorf("GetSnapshot(%d) with the head at %d: %w", q, dg.LastTime(), errMismatch(q))
			}
			return err
		})
	}
	reading(func(rng *rand.Rand, settled graph.Time) error {
		q := near(rng, settled)
		id, err := dg.Retrieve(q, allAttrs)
		if err != nil {
			return err
		}
		view, err := pool.View(id)
		if err != nil {
			return err
		}
		// A dependent of the current graph reads through bits the appender
		// is changing: it is good only until the next append (View.DependsOnCurrent),
		// and here there is always a next append.
		if !view.DependsOnCurrent() && !view.Snapshot().Equal(graph.SnapshotAt(events, q)) {
			return fmt.Errorf("Retrieve(%d): %w", q, errMismatch(q))
		}
		return pool.Release(id)
	})
	reading(func(*rand.Rand, graph.Time) error {
		if s := dg.CurrentSnapshot(); s == nil {
			return fmt.Errorf("no current graph")
		}
		return dg.Checkpoint()
	})
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := dg.Stats(); st.Leaves < 20 || reads.Load() < 100 {
		t.Fatalf("%d leaves were cut under %d reads: the appender and the readers hardly met", st.Leaves, reads.Load())
	}
	t.Logf("%d reads while %d leaves were cut", reads.Load(), dg.Stats().Leaves)
	checkAgainstReference(t, dg, events, allAttrs, probeTimes(events, 9))
	if !dg.CurrentSnapshot().Equal(graph.SnapshotAt(events, graph.MaxTime)) {
		t.Fatal("the current graph differs from a replay of the whole trace")
	}
}

// intervalOf is GetInterval's graph by replay: every add and attribute set in
// [ts, te) applied to the null graph. events must hold no event the index
// drops (canonical).
func intervalOf(events graph.EventList, ts, te graph.Time) *graph.Snapshot {
	g := graph.NewSnapshot()
	for _, ev := range events[events.SearchTime(ts-1):events.SearchTime(te-1)] {
		switch ev.Type {
		case graph.AddNode, graph.AddEdge, graph.SetNodeAttr, graph.SetEdgeAttr:
			g.Apply(ev)
		}
	}
	return g
}

// TestBuilderSeamUnderRace is the seam between a leaf cut and the builder
// goroutine that stores what the cut queued: an appender crosses dozens of
// cuts in 256-event batches while readers ask for past times on every path
// that reads stored payloads or the skeleton — GetSnapshot, Retrieve,
// GetInterval, Leaves and Children, Stats — and two checkpointers
// write into the same store. Every answer equals a naive replay of the log,
// Stats never counts a leaf whose eventlist edge is not in the
// skeleton, and the last checkpoint reopens exact. Run with -race.
func TestBuilderSeamUnderRace(t *testing.T) {
	events := canonical(makeTrace(34, 10000))
	naive, err := baseline.BuildNaiveLog(events, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := graphpool.New()
	dg, err := New(Options{LeafSize: 48, Arity: 2, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	var settled atomic.Int64 // every event at or before it has been appended
	settled.Store(-1)
	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	wg.Add(1)
	go func() { // the appender
		defer wg.Done()
		defer close(done)
		for lo := 0; lo < len(events); lo += 256 {
			hi := min(lo+256, len(events))
			if err := dg.AppendAll(events[lo:hi]); err != nil {
				fail(err)
				return
			}
			settled.Store(int64(events[hi-1].At) - 1)
		}
	}()
	var reads [6]atomic.Int64 // by reader
	reading := func(seed int64, read func(rng *rand.Rand, settled graph.Time) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				at := graph.Time(settled.Load())
				if at < 0 {
					runtime.Gosched()
					continue
				}
				if err := read(rng, at); err != nil {
					fail(err)
					return
				}
				reads[seed-1].Add(1)
			}
		}()
	}
	past := func(rng *rand.Rand, settled graph.Time) graph.Time { return graph.Time(rng.Int63n(int64(settled) + 1)) }
	reading(1, func(rng *rand.Rand, settled graph.Time) error {
		q := past(rng, settled)
		want, err := naive.Snapshot(q, allAttrs)
		if err != nil {
			return err
		}
		got, err := dg.GetSnapshot(q, allAttrs)
		if err == nil && !got.Equal(want) {
			err = fmt.Errorf("GetSnapshot(%d): %w", q, errMismatch(q))
		}
		return err
	})
	reading(2, func(rng *rand.Rand, settled graph.Time) error {
		q := past(rng, settled)
		want, err := naive.Snapshot(q, allAttrs)
		if err != nil {
			return err
		}
		id, err := dg.Retrieve(q, allAttrs)
		if err != nil {
			return err
		}
		view, err := pool.View(id)
		if err != nil {
			return err
		}
		if !view.DependsOnCurrent() && !view.Snapshot().Equal(want) {
			return fmt.Errorf("Retrieve(%d): %w", q, errMismatch(q))
		}
		return pool.Release(id)
	})
	reading(3, func(rng *rand.Rand, settled graph.Time) error {
		lo := past(rng, settled)
		hi := min(lo+1+graph.Time(rng.Intn(200)), settled+1)
		res, err := dg.GetInterval(lo, hi, allAttrs)
		if err != nil {
			return err
		}
		if !res.Graph.Snapshot().Equal(intervalOf(events, lo, hi)) {
			return fmt.Errorf("GetInterval(%d, %d) differs from the replay", lo, hi)
		}
		return pool.Release(res.Graph.ID())
	})
	reading(4, func(rng *rand.Rand, settled graph.Time) error {
		leaves, times := dg.Leaves(), dg.LeafTimes()
		if len(leaves) == 0 {
			return nil
		}
		i := rng.Intn(min(len(leaves), len(times)))
		if kids := dg.Children(leaves[i]); len(kids) != 0 {
			return fmt.Errorf("leaf %d has children %v", leaves[i], kids)
		}
		if q := times[i]; q <= settled {
			want, err := naive.Snapshot(q, allAttrs)
			if err != nil {
				return err
			}
			if got, err := dg.GetSnapshot(q, allAttrs); err != nil || !got.Equal(want) {
				return fmt.Errorf("at leaf time %d (%v): %w", q, err, errMismatch(q))
			}
		}
		st := dg.Stats()
		if st.EventlistEdges != st.Leaves {
			return fmt.Errorf("Stats counts %d leaves and %d eventlist edges", st.Leaves, st.EventlistEdges)
		}
		return nil
	})
	for c := int64(0); c < 2; c++ {
		reading(5+c, func(*rand.Rand, graph.Time) error { return dg.Checkpoint() })
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var counts []int64
	for i := range reads {
		counts = append(counts, reads[i].Load())
	}
	if st := dg.Stats(); st.Leaves < 20 || slices.Min(counts) == 0 {
		t.Fatalf("%d leaves were cut under %v reads by each reader: the appender and the readers hardly met", st.Leaves, counts)
	}
	t.Logf("%v reads by each reader while %d leaves were cut", counts, dg.Stats().Leaves)
	checkAgainstReference(t, dg, events, allAttrs, probeTimes(events, 9))
	re, err := Open(Options{Store: dg.Store()})
	if err != nil {
		t.Fatal(err)
	}
	var probes []graph.Time
	for _, q := range probeTimes(events, 12) {
		if q < re.LastTime() {
			probes = append(probes, q)
		}
	}
	checkAgainstReference(t, re, events, allAttrs, probes)
}

// TestClosedIndexHoldsNothing: the builder goroutine lives only while there
// is work, so an index that is built, takes more events live and is closed
// leaves no goroutine behind, and nothing keeps it or its store reachable.
func TestClosedIndexHoldsNothing(t *testing.T) {
	events := makeTrace(35, 3000)
	base := runtime.NumGoroutine()
	var finalized atomic.Int32
	for i := 0; i < 3; i++ {
		fs := openFileStore(t, filepath.Join(t.TempDir(), "index"))
		dg, err := Build(events[:2000], Options{LeafSize: 64, Arity: 2, Store: fs})
		if err == nil {
			err = appendBatches(dg, events[2000:])
		}
		if err == nil {
			err = dg.Close()
		}
		if err == nil {
			err = fs.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(fs, func(*kvstore.FileStore) { finalized.Add(1) })
	}
	for deadline := time.Now().Add(10 * time.Second); finalized.Load() < 3 || runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of 3 closed stores were collected, %d goroutines run (%d before)", finalized.Load(), runtime.NumGoroutine(), base)
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// failingStore fails every Put once fail is set.
type failingStore struct {
	kvstore.Store
	fail atomic.Bool
}

var errPutFailed = errors.New("put failed")

func (s *failingStore) Put(key, val []byte) error {
	if s.fail.Load() {
		return errPutFailed
	}
	return s.Store.Put(key, val)
}

// TestBuilderPutErrorIsKept: a put the builder fails is not lost with the
// goroutine that met it. The next append, read (at the head too, and of an
// expression), Checkpoint and Close return it.
func TestBuilderPutErrorIsKept(t *testing.T) {
	events := makeTrace(36, 1000)
	store := &failingStore{Store: kvstore.NewMemStore()}
	dg, err := New(Options{LeafSize: 64, Arity: 2, Store: store})
	if err == nil {
		err = dg.AppendAll(events[:500])
	}
	if err == nil {
		err = dg.Flush()
	}
	if err != nil {
		t.Fatal(err)
	}
	store.fail.Store(true)
	// These cuts queue the failing puts. They do not wait for them, but a
	// later cut of the same run may find the first one failed.
	if err := dg.AppendAll(events[500:700]); err != nil && !errors.Is(err, errPutFailed) {
		t.Fatal(err)
	}
	// The calls below run in map order: wait for the builder to meet the
	// failing put, so that none of them runs before it has.
	for deadline := time.Now().Add(10 * time.Second); dg.build.failed() == nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the builder never met the failing put")
		}
	}
	past := events[100].At
	for what, call := range map[string]func() error{
		"Close":       dg.Close,
		"AppendAll":   func() error { return dg.AppendAll(events[700:]) },
		"GetSnapshot": func() error { _, err := dg.GetSnapshot(past, allAttrs); return err },
		"at the head": func() error { _, err := dg.GetSnapshot(dg.LastTime(), allAttrs); return err },
		"GetInterval": func() error { _, err := dg.GetInterval(past, past+10, allAttrs); return err },
		"Expression": func() error {
			_, err := dg.RetrieveExpression(TimeExpression{Times: []graph.Time{past, past + 10}, Expr: And{Var(0), Not{Var(1)}}}, allAttrs)
			return err
		},
		"Checkpoint": dg.Checkpoint,
		"Flush":      dg.Flush,
	} {
		if err := call(); !errors.Is(err, errPutFailed) {
			t.Errorf("%s after a failed put: %v", what, err)
		}
	}
}
