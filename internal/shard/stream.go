package shard

// The streaming /snapshot path at the coordinator: a k-way merge of live
// worker streams. Each scatter leg is a chunked element-run stream
// (server.SnapshotStreamCtx) consumed run by run; the merge repeatedly
// emits the smallest next ID across the legs into bounded output runs.
// Disjoint partitions mean the merge is a plain sorted union — and since
// every leg arrives ID-sorted, it never needs more than one buffered run
// per leg: coordinator peak memory under N concurrent large snapshots is
// O(run size × partitions) per request, not O(snapshot).
//
// Failure semantics differ from the whole-message path by necessity:
// once the merged stream has started, a leg that dies mid-stream cannot
// be retried on another replica (its earlier runs are already interleaved
// into the output). The dead partition is dropped and reported in the
// terminating summary frame's partial list — the client gets a complete,
// well-formed stream that says exactly which partitions are missing,
// never a truncated merge. Replica retry still applies at open time,
// before any bytes are merged.

import (
	"context"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"historygraph"
	"historygraph/internal/cache"
	"historygraph/internal/server"
	"historygraph/internal/wire"
)

// legStream is one partition's live snapshot stream plus its merge
// cursor: the currently buffered run of each phase and the terminal
// state (summary or error).
type legStream struct {
	part   int
	ss     *server.SnapshotStream
	cancel context.CancelFunc

	nodes   []wire.Node
	ni      int
	edges   []wire.Edge
	ei      int
	summary *wire.Snapshot
	err     error // terminal: the leg is dead and must be reaped
}

// pull reads one frame into the leg's buffers.
func (l *legStream) pull() {
	frame, err := l.ss.Next()
	if err != nil {
		l.err = err
		return
	}
	switch {
	case frame.Summary != nil:
		l.summary = frame.Summary
	case frame.Nodes != nil:
		l.nodes, l.ni = frame.Nodes, 0
	case frame.Edges != nil:
		l.edges, l.ei = frame.Edges, 0
	}
}

// curNode returns the leg's next unconsumed node, pulling frames as
// needed. ok is false when the leg has left its node phase (an edge run
// or the summary arrived, buffered for later) or died (l.err set).
func (l *legStream) curNode() (wire.Node, bool) {
	for l.err == nil && l.summary == nil && l.ei >= len(l.edges) {
		if l.ni < len(l.nodes) {
			return l.nodes[l.ni], true
		}
		l.pull()
	}
	return wire.Node{}, false
}

// curEdge returns the leg's next unconsumed edge, pulling frames as
// needed; ok is false at the summary or on death.
func (l *legStream) curEdge() (wire.Edge, bool) {
	for l.err == nil && l.summary == nil {
		if l.ei < len(l.edges) {
			return l.edges[l.ei], true
		}
		l.pull()
	}
	return wire.Edge{}, false
}

// drainSummary pulls until the leg's summary frame (or death).
func (l *legStream) drainSummary() {
	for l.err == nil && l.summary == nil {
		l.pull()
	}
}

func (l *legStream) close() {
	l.ss.Close()
	l.cancel()
}

// openStreams opens one snapshot stream per partition concurrently, with
// the usual replica retry (readFrom) while no bytes are committed yet.
// legs[i] is nil for a partition that failed entirely; errs reports those.
//
// Two different bounds apply per leg. The *open* — finding a member that
// answers the stream header, retries included — is held to the ordinary
// partition timeout, like any scatter leg. The stream *body* is not:
// reads are back-pressured by the client draining the merged output, so
// delivery legitimately takes as long as the client takes to read, and
// only the much larger streamCap bounds it (so a wedged worker or an
// abandoned client cannot pin legs forever).
// Stream legs derive from parent — the merged request's own context —
// so a client that closes the merged stream cancels every worker leg
// immediately instead of leaving them blocked on back-pressured writes
// until streamCap expires. The per-partition leg counter and the
// duration histogram observe the open (header answered), the phase the
// partition timeout governs.
func (co *Coordinator) openStreams(rt *routing, parent context.Context, t historygraph.Time, attrs string) (legs []*legStream, errs []wire.PartitionError) {
	legs = make([]*legStream, len(rt.sets))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := range rt.sets {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			part := strconv.Itoa(i)
			co.legs.With(part).Inc()
			begin := time.Now()
			tctx, cancel := context.WithTimeout(parent, co.streamCap)
			ctx := co.snapshotLeg(server.WithEpoch(tctx, rt.epoch()))
			// The open guard cancels the leg if no member has answered
			// the stream header within the partition timeout; once the
			// stream is live the guard is disarmed and only streamCap
			// applies.
			openGuard := time.AfterFunc(co.timeout, cancel)
			ss, err := readFrom(ctx, parent, rt.sets[i], func(cl *server.Client) (*server.SnapshotStream, error) {
				return cl.SnapshotStreamCtx(ctx, t, attrs)
			})
			openGuard.Stop()
			co.legDur.With(part).Observe(time.Since(begin).Seconds())
			if err != nil {
				cancel()
				if parent.Err() != nil {
					co.legCancels.With(part).Inc()
				} else {
					co.legFails.With(part).Inc()
				}
				mu.Lock()
				errs = append(errs, partitionError(i, err))
				mu.Unlock()
				return
			}
			legs[i] = &legStream{part: i, ss: ss, cancel: cancel}
		}(i)
	}
	wg.Wait()
	return legs, errs
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

	// A live stream cannot be shared, so its legs hang directly off the
	// request context: the client closing the merged stream cancels them
	// at once (satisfying back-pressured workers included) instead of
	// pinning workers until streamCap runs out.
	parent := r.Context()
	rt := co.rt()
	legs, errs := co.openStreams(rt, parent, t, attrs)
	if staleEpoch(errs) {
		// No bytes are committed yet at open time, so a routing-epoch fence
		// gets one whole-scatter reopen against the fresh table — the same
		// single-retry contract as scatterRead.
		if fresh := co.awaitEpochChange(rt.epoch(), co.epochWait()); fresh != nil {
			co.reroutes.Inc()
			for _, l := range legs {
				if l != nil {
					l.close()
				}
			}
			rt = fresh
			legs, errs = co.openStreams(rt, parent, t, attrs)
		}
	}
	live := make([]*legStream, 0, len(legs))
	for _, l := range legs {
		if l != nil {
			live = append(live, l)
		}
	}
	if len(live) == 0 {
		sort.Slice(errs, func(a, b int) bool { return errs[a].Partition < errs[b].Partition })
		writeAllFailed(w, co.allFailed(errs))
		return
	}
	defer func() {
		// Legs still open when the handler unwinds with a dead client
		// were canceled by that client, not by worker failure.
		canceled := parent.Err() != nil
		for _, l := range live {
			if canceled {
				co.legCancels.With(strconv.Itoa(l.part)).Inc()
			}
			l.close()
		}
	}()
	// reap drops dead legs from live into errs; their already-merged runs
	// stay (they were exact data), the summary reports the hole. A leg
	// that died because the client canceled the merged stream is counted
	// as a cancel, not a partition failure.
	reap := func() {
		kept := live[:0]
		for _, l := range live {
			if l.err != nil {
				if parent.Err() != nil {
					co.legCancels.With(strconv.Itoa(l.part)).Inc()
				} else {
					co.legFails.With(strconv.Itoa(l.part)).Inc()
				}
				errs = append(errs, partitionError(l.part, l.err))
				l.close()
			} else {
				kept = append(kept, l)
			}
		}
		live = kept
	}

	se, admit := co.cache.Stream(w, co.runSize, ck)

	// Node phase: emit the globally smallest next node ID until every leg
	// has left its node phase. Linear scan per element — partition counts
	// are small and the runs behind the cursors are contiguous memory.
	nodesOut, edgesOut := 0, 0
	for {
		var best *legStream
		var bestNode wire.Node
		for _, l := range live {
			if nd, ok := l.curNode(); ok && (best == nil || nd.ID < bestNode.ID) {
				best, bestNode = l, nd
			}
		}
		reap()
		if best == nil {
			break
		}
		best.ni++
		nodesOut++
		if se.Node(bestNode) != nil {
			return // client went away; abandon (stream stays truncated)
		}
	}
	// Edge phase, identically.
	for {
		var best *legStream
		var bestEdge wire.Edge
		for _, l := range live {
			if ed, ok := l.curEdge(); ok && (best == nil || ed.ID < bestEdge.ID) {
				best, bestEdge = l, ed
			}
		}
		reap()
		if best == nil {
			break
		}
		best.ei++
		edgesOut++
		if se.Edge(bestEdge) != nil {
			return
		}
	}
	for _, l := range live {
		l.drainSummary()
	}
	reap()
	sort.Slice(errs, func(a, b int) bool { return errs[a].Partition < errs[b].Partition })
	// Cached mirrors the whole-message merge: on only when every
	// partition answered from its hot cache and nothing is missing.
	cached := len(errs) == 0
	for _, l := range live {
		cached = cached && l.summary.Cached
	}
	sum := wire.Snapshot{
		At: int64(t), NumNodes: nodesOut, NumEdges: edgesOut,
		Cached: cached, Partial: errs,
	}
	if se.Summary(&sum) != nil {
		return
	}
	// The summary is not flushed: it leaves when the handler returns,
	// after the body is registered, so a client that has seen the whole
	// stream finds its repeat request cached.
	co.notePartial(errs, len(rt.sets))
	if len(errs) == 0 {
		admit(cache.Entry[cache.Body]{At: t}, gen)
	}
}
