package shard

// Streaming ingest through the coordinator: POST /append?stream=1 frames
// are routed per partition as they arrive, with one worker goroutine per
// partition consuming a bounded channel of frame slices. The worker calls
// the same appendBatchToSet machinery as a standalone append (batch-ID
// idempotency, failover retry), so the partitions see a stream exactly as
// a sequence of independent batches — but the reader keeps decoding the
// next frame while earlier slices are still in flight, which is where the
// throughput over per-request appends comes from. When every partition's
// channel is full the reader blocks, the client's TCP send buffer fills,
// and its writes stall: the transport is the flow control, same as the
// replica node's stream window.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"historygraph"
	"historygraph/internal/server"
	"historygraph/internal/wire"
)

// streamRouteWindow bounds how many frame slices per partition the reader
// will buffer ahead of the worker. Past it the reader blocks, which is the
// coordinator's per-stream backpressure.
const streamRouteWindow = 4

// streamSlice is one frame's share of one partition.
type streamSlice struct {
	events historygraph.EventList
	batch  string            // per-partition idempotency ID
	frame  int               // frame index, for error reporting
	minAt  historygraph.Time // earliest time in the frame, for cache invalidation
}

// streamWorker is one partition's lane: a bounded feed of slices and the
// running aggregate. err is written only by the worker goroutine and read
// only after it exits.
type streamWorker struct {
	ch  chan streamSlice
	res wire.AppendResult
	err *wire.PartitionError
}

// runStreamWorker drains one partition's slices in order. After the first
// failure it keeps draining but drops the remaining slices — the recorded
// error names the frame where the partition's coverage stops, so a client
// resuming the stream knows exactly where to replay from.
func (co *Coordinator) runStreamWorker(base context.Context, part int, rs *replicaSet, wk *streamWorker, wg *sync.WaitGroup) {
	defer wg.Done()
	label := strconv.Itoa(part)
	for sl := range wk.ch {
		if wk.err != nil {
			continue
		}
		co.legs.With(label).Inc()
		begin := time.Now()
		ctx, cancel := context.WithTimeout(base, co.timeout)
		res, err := co.appendBatchToSet(ctx, rs, sl.events, sl.batch)
		cancel()
		co.legDur.With(label).Observe(time.Since(begin).Seconds())
		// Invalidate after the slice lands (not before): a merge cached
		// between an early invalidation and the apply would go stale the
		// moment the events hit the partition.
		co.cache.InvalidateFrom(sl.minAt)
		if err != nil {
			co.legFails.With(label).Inc()
			pe := partitionError(part, fmt.Errorf("frame %d: %w", sl.frame, err))
			wk.err = &pe
			continue
		}
		wk.res.Fold(*res)
	}
}

// handleAppendStream routes a streaming ingest body across the partitions
// frame by frame and answers one aggregated AppendResult after the end
// frame.
func (co *Coordinator) handleAppendStream(w http.ResponseWriter, r *http.Request) {
	dec, err := wire.NewAppendStreamDecoder(r.Body)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, err)
		return
	}
	// The append gate is held shared for the whole stream: every frame is
	// routed by the routing captured here, and a reshard cutover (which
	// takes the gate exclusively) waits the stream out rather than
	// flipping the table under it.
	co.appendGate.RLock()
	defer co.appendGate.RUnlock()
	rt := co.rt()
	server.Annotate(r.Context(), "partitions", strconv.Itoa(len(rt.sets)))
	// Like the per-request path, in-flight slices detach from the client's
	// cancellation: aborting half-landed frames on a disconnect would leave
	// the partitions inconsistent with no response to report the split.
	// Every slice carries the captured routing epoch so a worker fenced
	// ahead (a cutover pushed from outside this coordinator) rejects with
	// 410 instead of silently accepting misrouted events.
	base := server.WithEpoch(context.WithoutCancel(r.Context()), rt.epoch())
	workers := make([]*streamWorker, len(rt.sets))
	var wg sync.WaitGroup
	for i := range rt.sets {
		workers[i] = &streamWorker{ch: make(chan streamSlice, streamRouteWindow)}
		wg.Add(1)
		go co.runStreamWorker(base, i, rt.sets[i], workers[i], &wg)
	}
	settle := func() {
		for _, wk := range workers {
			close(wk.ch)
		}
		wg.Wait()
	}
	frames := 0
	// fail aborts the stream. Frames already handed to the workers still
	// settle (and may be durable on their partitions) — the message tells
	// the client how far routing got so a resumed stream replays from
	// there; per-partition batch IDs make the overlap safe.
	fail := func(status int, cause error) {
		settle()
		server.WriteError(w, status, fmt.Errorf(
			"append stream failed at frame %d: %w (earlier frames were routed and may be durable)", frames, cause))
	}
	for {
		frame, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			fail(http.StatusBadRequest, err)
			return
		}
		perPart, minAt, err := routeEvents(rt, frame.Events)
		if err != nil {
			fail(http.StatusUnprocessableEntity, err)
			return
		}
		for p, slice := range perPart {
			if len(slice) == 0 {
				continue
			}
			workers[p].ch <- streamSlice{events: slice, batch: partBatchID(frame.Batch, p), frame: frames, minAt: minAt}
		}
		frames++
	}
	settle()
	var errs []wire.PartitionError
	out := wire.AppendResult{}
	for _, wk := range workers {
		if wk.err != nil {
			errs = append(errs, *wk.err)
			continue
		}
		out.Fold(wk.res)
	}
	if len(errs) == len(rt.sets) && frames > 0 {
		writeAllFailed(w, co.allFailed(errs))
		return
	}
	co.notePartial(errs, len(rt.sets))
	out.Partial = errs
	server.WriteWire(w, r, http.StatusOK, out)
}
