package shard

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"time"

	"historygraph/internal/server"
	"historygraph/internal/wire"
)

// reqCtx is the context handed to one fan-out leg: the per-partition
// deadline plus the partition index the leg is talking to and the
// partition count of the routing snapshot the scatter ran over.
type reqCtx struct {
	context.Context
	part  int
	parts int
}

// scatter runs call against every partition's replica set in the given
// routing snapshot concurrently, each leg derived from parent and bounded
// by the coordinator's partition timeout — canceling parent (a client
// that went away on a direct path) cancels every leg immediately instead
// of letting them run out the timeout against workers nobody is waiting
// for. Every leg is stamped with the snapshot's routing epoch, so a
// worker that has moved on answers 410 Gone instead of serving a stale
// ownership view. A leg's context ends when call returns, so an answer
// read after that (a streamed leg's body) needs a context of its own.
// results[i] holds partition i's answer (the zero value
// where it failed); errs lists the failed partitions in partition order.
// The call itself never fails — total failure is the caller's decision
// (len(errs) == len(rt.sets)).
//
// Each leg is counted and timed per partition; a failed leg is charged
// to leg_cancels when parent was already canceled (the client went away
// — the partition did nothing wrong) and to leg_failures otherwise.
func scatter[T any](co *Coordinator, rt *routing, parent context.Context, call func(ctx reqCtx, rs *replicaSet) (T, error)) (results []T, errs []wire.PartitionError) {
	results = make([]T, len(rt.sets))
	failed := make([]error, len(rt.sets))
	var wg sync.WaitGroup
	for i := range rt.sets {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			part := strconv.Itoa(i)
			co.legs.With(part).Inc()
			begin := time.Now()
			ctx, cancel := context.WithTimeout(parent, co.timeout)
			defer cancel()
			v, err := call(reqCtx{
				Context: server.WithEpoch(ctx, rt.epoch()),
				part:    i, parts: len(rt.sets),
			}, rt.sets[i])
			co.legDur.With(part).Observe(time.Since(begin).Seconds())
			if err != nil {
				if parent.Err() != nil {
					co.legCancels.With(part).Inc()
				} else {
					co.legFails.With(part).Inc()
				}
				failed[i] = err
				return
			}
			results[i] = v
		}(i)
	}
	wg.Wait()
	for i, err := range failed {
		if err != nil {
			errs = append(errs, partitionError(i, err))
		}
	}
	return results, errs
}

// partitionError reports partition part's failed leg: the error's text
// and, when a member answered with one, its HTTP status — what allFailed
// and the 410 epoch-fence retries decide on.
func partitionError(part int, err error) wire.PartitionError {
	pe := wire.PartitionError{Partition: part, Error: err.Error()}
	var he *server.HTTPError
	if errors.As(err, &he) {
		pe.Status = he.Status
	}
	return pe
}

// staleEpoch reports whether any leg failed the routing-epoch fence: a
// worker answered 410 Gone because the leg was planned against a table a
// reshard has since replaced.
func staleEpoch(errs []wire.PartitionError) bool {
	for _, pe := range errs {
		if pe.Status == http.StatusGone {
			return true
		}
	}
	return false
}

// awaitEpochChange polls the installed routing for up to bound and
// returns the fresh snapshot once its epoch differs from cur (nil on
// timeout). A read's 410 fence usually races the cutover by
// milliseconds — the workers are pushed to the new epoch just before the
// coordinator installs its table — so a short wait converts that window
// into one clean retry instead of a client-visible error.
func (co *Coordinator) awaitEpochChange(cur uint64, bound time.Duration) *routing {
	deadline := time.Now().Add(bound)
	for {
		if fresh := co.rt(); fresh.epoch() != cur {
			return fresh
		}
		if time.Now().After(deadline) {
			return nil
		}
		select {
		case <-co.stop:
			return nil
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// epochWait bounds how long a fenced read waits for the cutover's table
// install before giving up (a worker genuinely ahead of this coordinator
// never resolves, so the wait must stay short).
func (co *Coordinator) epochWait() time.Duration {
	if co.timeout < 2*time.Second {
		return co.timeout
	}
	return 2 * time.Second
}

// scatterRead is scatter for read queries: each leg tries the partition's
// replicas in round-robin in-sync-first order until one answers, so a
// single dead or lagging member costs a retry, not a partial response.
// Reads are not gated during a reshard cutover, so a scatter planned
// against the old table can reach workers already fenced to the new
// epoch; their 410s trigger exactly one re-scatter against the freshly
// installed routing; the streamed legs the discarded attempt opened are
// closed, or they would hold their connections until the request ends. The
// routing the final attempt ran over is returned so callers judge totals
// against the right partition count.
func scatterRead[T any](co *Coordinator, parent context.Context, call func(ctx reqCtx, cl *server.Client) (T, error)) ([]T, []wire.PartitionError, *routing) {
	rt := co.rt()
	for retried := false; ; {
		results, errs := scatter(co, rt, parent, func(ctx reqCtx, rs *replicaSet) (T, error) {
			return readFrom(ctx, parent, rs, func(cl *server.Client) (T, error) {
				return call(ctx, cl)
			})
		})
		if !retried && staleEpoch(errs) {
			if fresh := co.awaitEpochChange(rt.epoch(), co.epochWait()); fresh != nil {
				co.reroutes.Inc()
				for _, v := range results {
					if l, ok := any(v).(*leg); ok && l != nil {
						l.close()
					}
				}
				rt, retried = fresh, true
				continue
			}
		}
		return results, errs, rt
	}
}

// notePartial charges a partial data response (some but not all of the
// parts partitions failed) to the partial_responses stat. Data endpoints
// call it; /stats and /readyz probes and total failures do not count.
func (co *Coordinator) notePartial(errs []wire.PartitionError, parts int) {
	if len(errs) > 0 && len(errs) < parts {
		co.partials.Inc()
	}
}
