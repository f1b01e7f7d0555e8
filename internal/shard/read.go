package shard

// The coordinator's one read path. Every read endpoint answers the same
// way — each partition computes its share, the disjoint shares are unioned
// here — so an endpoint supplies only what a share is and how shares
// combine (read); the rest is serveRead over gather.

import (
	"context"
	"net/http"
	"strconv"

	"historygraph"
	"historygraph/internal/cache"
	"historygraph/internal/server"
	"historygraph/internal/wire"
)

// read is everything one endpoint contributes to a cached read. P is one
// partition's share, M the merged response.
type read[P, M any] struct {
	// key names the answer in the flight group and, with the negotiated
	// codec appended, in the merged-response cache.
	key string
	// maxT is the latest timepoint the answer depends on: an append at or
	// before it invalidates the cached entry.
	maxT historygraph.Time
	// leg asks one partition member for its share.
	leg func(ctx reqCtx, cl *server.Client) (P, error)
	// merge unions the shares that arrived (nil/zero where a partition
	// failed) and reports the failed partitions in the response.
	merge func(parts []P, errs []wire.PartitionError) M
	// flags locates the response's Cached and Coalesced markers (the
	// latter nil when the shape has none). A later cache hit answers with
	// Cached on, exactly like a worker-cache hit; a request served by
	// another's fan-out answers with Coalesced on. A nil flags stores and
	// replays the served bytes unmarked.
	flags func(m *M) (cached, coalesced *bool)
	// coalesce shares one fan-out among concurrent identical requests.
	// The shared fan-out is detached from any one client's cancellation
	// (but keeps the leader's request ID): waiters may still be listening
	// when the leader disconnects, and a lone abandoned fan-out still ends
	// at the partition timeout. An uncoalesced read keeps its client's
	// context, so a closed connection cancels every leg at once.
	coalesce bool
}

// merged is what a fan-out hands every request waiting on it: the merged
// response plus the cache bookkeeping the leader snapshotted.
type merged[M any] struct {
	v        M
	gen      int64
	complete bool // every partition answered — cacheable
}

// gather is the scatter→merge step of every coordinator read: one leg per
// partition, total failure as an error carrying the status to answer
// with, partial failure counted and left to merge to report.
func gather[P, M any](co *Coordinator, parent context.Context,
	leg func(ctx reqCtx, cl *server.Client) (P, error),
	merge func(parts []P, errs []wire.PartitionError) M) (m M, complete bool, err error) {
	parts, errs, rt := scatterRead(co, parent, leg)
	if len(errs) == len(rt.sets) {
		return m, false, co.allFailed(errs)
	}
	co.notePartial(errs, len(rt.sets))
	return merge(parts, errs), len(errs) == 0, nil
}

// serveRead answers one cached read: a merged-response cache hit is one
// Write of stored bytes (zero fan-out, zero encode); a miss fans out once
// however many identical requests are waiting, and the request that led
// the fan-out encodes the merge, writes it, and — when every partition
// answered — admits it. The returned error is a total fan-out failure,
// already answered.
func serveRead[P, M any](co *Coordinator, w http.ResponseWriter, r *http.Request, q read[P, M]) error {
	ctx := r.Context()
	codec := wire.Negotiate(r.Header.Get("Accept"))
	ckey := cacheKey(q.key, codec.Name())
	server.Annotate(ctx, "partitions", strconv.Itoa(co.NumPartitions()))
	if co.cache.WriteHit(w, ckey) {
		server.Annotate(ctx, "cache", "merged-hit")
		return nil
	}
	parent := ctx
	fanout := func() (any, error) {
		co.fanouts.Inc()
		fm := merged[M]{gen: co.cache.Gen()}
		var err error
		fm.v, fm.complete, err = gather(co, parent, q.leg, q.merge)
		return fm, err
	}
	var v any
	var shared bool
	var err error
	if q.coalesce {
		parent = context.WithoutCancel(ctx)
		v, shared, err = co.flights.Do(q.key, fanout)
	} else {
		v, err = fanout()
	}
	if err != nil {
		writeAllFailed(w, err)
		return err
	}
	fm := v.(merged[M])
	if shared {
		// Waiters serve the shared merge but leave caching to the leader.
		server.Annotate(ctx, "cache", "coalesced")
		if q.flags != nil {
			if _, coalesced := q.flags(&fm.v); coalesced != nil {
				*coalesced = true
			}
		}
		server.WriteWire(w, r, http.StatusOK, fm.v)
		return nil
	}
	server.Annotate(ctx, "cache", "miss")
	if !fm.complete {
		ckey = "" // a response missing a partition is never admitted
	}
	var hit any
	if q.flags != nil {
		variant := fm.v
		cached, _ := q.flags(&variant)
		*cached = true
		hit = variant
	}
	co.cache.Write(w, codec, fm.v, hit, ckey, cache.Entry[cache.Body]{At: q.maxT}, fm.gen)
	return nil
}

// serveUncached answers a read that is neither cached nor shared
// (/interval, /expr): gather under the client's own context, then write.
func serveUncached[P, M any](co *Coordinator, w http.ResponseWriter, r *http.Request,
	leg func(ctx reqCtx, cl *server.Client) (P, error),
	merge func(parts []P, errs []wire.PartitionError) M) {
	m, _, err := gather(co, r.Context(), leg, merge)
	if err != nil {
		writeAllFailed(w, err)
		return
	}
	server.WriteWire(w, r, http.StatusOK, m)
}
