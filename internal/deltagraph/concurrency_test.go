package deltagraph

import (
	"fmt"
	"sync"
	"testing"

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

type errMismatch graph.Time

func (e errMismatch) Error() string { return "snapshot mismatch under concurrency" }
