package shard

// The streamed /snapshot at the coordinator. Its legs open through
// scatterRead like any read's — the epoch fence and its one retry, replica
// rotation, the leg counters — and each opened leg is a worker's chunked
// element-run stream (server.SnapshotStreamCtx). mergeLegs reads the legs
// run by run as it merges them into the encoder, so the coordinator holds
// at most one run per leg: its peak memory under N concurrent large
// snapshots is O(run size × partitions) per request, not O(snapshot).
//
// Once the merged stream has started, a leg that dies cannot be retried on
// another replica (its earlier runs are already in the output). It is
// dropped and named in the summary frame's partial list: the client gets a
// complete, well-formed stream that says which partitions are missing,
// never a truncated merge.

import (
	"context"
	"net/http"
	"strconv"

	"historygraph"
	"historygraph/internal/cache"
	"historygraph/internal/server"
	"historygraph/internal/wire"
)

// openLeg opens one partition's snapshot stream on cl. ctx is scatter's leg
// context, which ends at the partition timeout, with the client, or when
// scatter returns; it bounds the open alone. The body is read as fast as
// the client drains the merged stream, so only streamCap bounds it, and the
// client going away (parent ending) cancels it at once. The body keeps
// ctx's routing epoch and request ID.
func (co *Coordinator) openLeg(ctx reqCtx, parent context.Context, cl *server.Client, t historygraph.Time, attrs string) (*leg, error) {
	body, cancel := context.WithTimeout(context.WithoutCancel(co.snapshotLeg(ctx)), co.streamCap)
	opening := context.AfterFunc(ctx, cancel)
	ss, err := cl.SnapshotStreamCtx(body, t, attrs)
	opening()
	if err != nil {
		cancel()
		return nil, err
	}
	context.AfterFunc(parent, cancel)
	return &leg{next: ss.Next, close: func() { ss.Close(); cancel() }}, nil
}

// streamSnapshot answers a full /snapshot request as a merged chunked
// stream. Streams bypass the flight group (a live stream cannot be
// shared) but still hit and feed the merged-response cache: a hot
// streamed timepoint replays the stored frames in one write with no
// fan-out and no encode.
func (co *Coordinator) streamSnapshot(w http.ResponseWriter, r *http.Request, t historygraph.Time, attrs string, key string) {
	ck := cacheKey(key, wire.NameBinaryStream)
	if co.cache.WriteHit(w, ck) {
		server.Annotate(r.Context(), "cache", "merged-hit")
		return
	}
	server.Annotate(r.Context(), "cache", "miss")
	gen := co.cache.Gen()
	co.fanouts.Inc()

	parent := r.Context()
	legs, errs, _ := scatterRead(co, parent, func(ctx reqCtx, cl *server.Client) (*leg, error) {
		return co.openLeg(ctx, parent, cl, t, attrs)
	})
	defer func() {
		// A leg open or dead when the handler unwinds with the client gone
		// was canceled by that client, not failed by its partition.
		for i, l := range legs {
			if l == nil {
				continue
			}
			switch {
			case parent.Err() != nil:
				co.legCancels.With(strconv.Itoa(i)).Inc()
			case l.err != nil:
				co.legFails.With(strconv.Itoa(i)).Inc()
			}
			l.close()
		}
	}()
	if len(errs) == len(legs) {
		writeAllFailed(w, co.allFailed(errs))
		return
	}

	se, admit := co.cache.Stream(w, co.runSize, ck)
	sum := wire.Snapshot{At: int64(t)}
	var err error
	sum.Partial, sum.Cached, err = mergeLegs(legs, errs,
		func(n wire.Node) error { sum.NumNodes++; return se.Node(n) },
		func(e wire.Edge) error { sum.NumEdges++; return se.Edge(e) })
	if err != nil || se.Summary(&sum) != nil {
		return // the client went away; the stream stays truncated
	}
	// The summary is not flushed: it leaves when the handler returns,
	// after the body is registered, so a client that has seen the whole
	// stream finds its repeat request cached.
	co.notePartial(sum.Partial, len(legs))
	if len(sum.Partial) == 0 {
		admit(cache.Entry[cache.Body]{At: t}, gen)
	}
}
