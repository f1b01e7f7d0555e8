package deltagraph

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"historygraph/internal/datagen"
	"historygraph/internal/graph"
	"historygraph/internal/graphpool"
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
				if st := dg.Stats(); st.CheckpointBytes <= 0 || st.SpineBytes <= 0 {
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

// TestSealOnDemandUnderConcurrency: a leaf cut drops the spine and the first
// reader after it builds it again, under the write lock it has to trade its
// read lock for. Readers at random past times race an appender across more
// than twenty cuts: every answer equals the oracle, the spine is sealed at
// most once per cut, and not at all before the first read.
func TestSealOnDemandUnderConcurrency(t *testing.T) {
	events := makeTrace(31, 5000)
	const quiet = 2000 // events ingested before any reader starts
	dg, err := New(Options{LeafSize: 100, Arity: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := appendBatches(dg, events[:quiet]); err != nil {
		t.Fatal(err)
	}
	if _, err := dg.GetSnapshot(dg.LastTime(), allAttrs); err != nil { // a head read is no reason to seal
		t.Fatal(err)
	}
	st := dg.StatsUnsealed()
	if st.Leaves < 10 || st.SpineSeals != 0 || !st.SpineStale || st.SpineBytes != 0 {
		t.Fatalf("an ingest of %d leaves with no historical read: %+v", st.Leaves, st)
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
	end := dg.StatsUnsealed()
	cuts := end.Leaves - st.Leaves
	if cuts < 20 {
		t.Fatalf("only %d leaf cuts raced the readers", cuts)
	}
	// One seal for the stale spine the readers found, then at most one a
	// cut: never more seals than cuts, whichever cuts are counted.
	if end.SpineSeals < 1 || end.SpineSeals > int64(cuts)+1 || end.SpineSeals > int64(end.Leaves) {
		t.Errorf("%d seals over %d cuts raced (%d in all)", end.SpineSeals, cuts, end.Leaves)
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
	events := datagen.MessyTrace(31, 6000)
	pool := graphpool.New()
	cleaner := graphpool.NewCleaner(pool, time.Millisecond)
	cleaner.Start()
	defer cleaner.Stop()
	dg, err := New(Options{LeafSize: 64, Arity: 2, Pool: pool})
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
		for lo := 0; lo < len(events); lo += 7 {
			hi := min(lo+7, len(events))
			if err := dg.AppendAll(events[lo:hi]); err != nil {
				fail(err)
				return
			}
			if hi < len(events) && events[hi].At > events[hi-1].At {
				settled.Store(int64(events[hi-1].At))
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
	if st := dg.StatsUnsealed(); st.Leaves < 20 || reads.Load() < 100 {
		t.Fatalf("%d leaves were cut under %d reads: the appender and the readers hardly met", st.Leaves, reads.Load())
	}
	t.Logf("%d reads while %d leaves were cut", reads.Load(), dg.StatsUnsealed().Leaves)
	checkAgainstReference(t, dg, events, allAttrs, probeTimes(events, 9))
	if !dg.CurrentSnapshot().Equal(graph.SnapshotAt(events, graph.MaxTime)) {
		t.Fatal("the current graph differs from a replay of the whole trace")
	}
}
