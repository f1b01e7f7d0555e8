package shard

// POST /append through the coordinator, a batch and an append stream
// alike: server.AppendFrames yields the body's frames (a batch is one),
// each frame is split by owning partition as it arrives, and one lane a
// partition — a goroutine draining a bounded channel of slices — sends
// its slices in order through appendBatchToSet (batch-ID idempotency,
// failover retry), so a partition sees a request as a sequence of
// independent batches. The reader keeps decoding the next frame while
// earlier slices are still in flight, which is where a stream's
// throughput comes from. When every lane's channel is full the reader
// blocks, the client's TCP send buffer fills, and its writes stall: the
// transport is the flow control, same as the replica node's stream
// window. Two rules make every form answer alike:
//
//   - When the frames end, a lane that got no slice sends one empty
//     slice, so every partition answers once per request (an empty
//     append still reports the worker's last_time, keeping the merged
//     clock exact).
//   - After the lanes settle, a lane fenced with 410 at its last slice,
//     with nothing dropped behind it, has that slice re-routed by
//     retryGoneAppends under its original batch ID.

import (
	"context"
	"errors"
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

// laneWindow bounds how many frame slices per partition the reader will
// buffer ahead of the lane. Past it the reader blocks, which is the
// coordinator's per-request backpressure.
const laneWindow = 4

// appendSlice is one frame's share of one partition.
type appendSlice struct {
	events historygraph.EventList
	batch  string            // per-partition idempotency ID
	frame  int               // frame index, for error reporting
	minAt  historygraph.Time // earliest time in the frame, for cache invalidation
}

// appendLane is one partition's lane. sent is the reader's; the rest is
// written by the lane goroutine and read after it exits.
type appendLane struct {
	ch      chan appendSlice
	sent    bool              // the lane got a slice
	res     wire.AppendResult // the slices that landed
	err     error             // the first failure; the slices after it are dropped
	failed  appendSlice       // the slice err belongs to
	dropped bool              // a slice arrived after err
}

// run sends the lane's slices in order. After the first failure it keeps
// draining but drops the remaining slices — the recorded error names the
// frame where the partition's coverage stops, so a client resuming the
// stream knows exactly where to replay from.
func (ln *appendLane) run(co *Coordinator, base context.Context, rt *routing, part int) {
	for sl := range ln.ch {
		if ln.err != nil {
			ln.dropped = true
			continue
		}
		res, err := co.appendLeg(base, rt, part, sl)
		if err != nil {
			ln.err, ln.failed = err, sl
			continue
		}
		ln.res.Fold(*res)
	}
}

// appendLeg sends one slice to partition part of rt: counted and timed as
// a leg, stamped with rt's epoch, and bounded by the partition timeout.
// Merged responses from the slice's earliest time are invalidated after
// it lands (not before: a merge cached between an early invalidation and
// the apply would go stale the moment the events hit the partition), and
// after it fails too, as a prefix may have landed.
func (co *Coordinator) appendLeg(base context.Context, rt *routing, part int, sl appendSlice) (*wire.AppendResult, error) {
	label := strconv.Itoa(part)
	co.legs.With(label).Inc()
	begin := time.Now()
	ctx, cancel := context.WithTimeout(base, co.timeout)
	defer cancel()
	res, err := co.appendBatchToSet(server.WithEpoch(ctx, rt.epoch()), rt.sets[part], sl.events, sl.batch)
	co.legDur.With(label).Observe(time.Since(begin).Seconds())
	if len(sl.events) > 0 {
		co.cache.InvalidateFrom(sl.minAt)
	}
	if err != nil {
		co.legFails.With(label).Inc()
	}
	return res, err
}

// handleAppend routes a POST /append body across the partitions frame by
// frame and answers one AppendResult for the whole body.
func (co *Coordinator) handleAppend(w http.ResponseWriter, r *http.Request) {
	frames, err := server.AppendFrames(r)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, err)
		return
	}
	// The append gate is held shared for the whole request: every frame is
	// routed by the routing captured here, and a reshard cutover (which
	// takes the gate exclusively) waits the request out rather than
	// flipping the table under it, so its head freeze sees every
	// in-flight slice durable.
	co.appendGate.RLock()
	defer co.appendGate.RUnlock()
	rt := co.rt()
	server.Annotate(r.Context(), "partitions", strconv.Itoa(len(rt.sets)))
	// Slices detach from the client's cancellation: aborting half-landed
	// frames on a disconnect would leave the partitions inconsistent with
	// no response to report the split.
	base := context.WithoutCancel(r.Context())
	lanes := make([]*appendLane, len(rt.sets))
	var wg sync.WaitGroup
	for p := range lanes {
		ln := &appendLane{ch: make(chan appendSlice, laneWindow)}
		lanes[p] = ln
		wg.Add(1)
		go func() {
			defer wg.Done()
			ln.run(co, base, rt, p)
		}()
	}
	settle := func() {
		for _, ln := range lanes {
			close(ln.ch)
		}
		wg.Wait()
	}
	n, tag := 0, ""
	// fail aborts the request. Slices already handed to the lanes still
	// settle (and may be durable on their partitions); per-partition batch
	// IDs make a resumed stream's overlap safe.
	fail := func(status int, cause error) {
		settle()
		server.WriteError(w, status, frames.Fail(n, cause, "routed and may be durable"))
	}
	for ; ; n++ {
		frame, err := frames.Next()
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
			if len(slice) > 0 {
				lanes[p].sent = true
				lanes[p].ch <- appendSlice{events: slice, batch: partBatchID(frame.Batch, p), frame: n, minAt: minAt}
			}
		}
		tag = frame.Batch
	}
	for p, ln := range lanes {
		if !ln.sent {
			ln.ch <- appendSlice{batch: partBatchID(tag, p), frame: n}
		}
	}
	settle()
	co.retryGoneAppends(base, rt, lanes)
	var errs []wire.PartitionError
	out := wire.AppendResult{}
	for p, ln := range lanes {
		if ln.err == nil {
			out.Fold(ln.res)
			continue
		}
		err := ln.err
		if frames.Stream() {
			err = fmt.Errorf("frame %d: %w", ln.failed.frame, err)
		}
		errs = append(errs, partitionError(p, err))
	}
	if len(errs) == len(rt.sets) {
		writeAllFailed(w, co.allFailed(errs))
		return
	}
	co.notePartial(errs, len(rt.sets))
	out.Partial = errs
	server.WriteWire(w, r, http.StatusOK, out)
}

// retryGoneAppends re-routes the lanes fenced with 410 at their last
// slice: the slice was planned against a routing table the workers have
// moved past (a cutover driven outside this coordinator's append gate —
// an operator slot push or another coordinator's reshard). The slice's
// events are re-split under the freshly installed table and resent under
// its ORIGINAL batch ID: the fenced slice logged nothing, and any of its
// events the migration already copied to a new owner registered the ID
// there, so the resend dedupes instead of double-applying. One round
// only — a slice fenced again stays an error. A lane that dropped slices
// behind the fenced one keeps its error: resending only the fenced slice
// would leave a hole.
func (co *Coordinator) retryGoneAppends(base context.Context, old *routing, lanes []*appendLane) {
	var fresh *routing
	for _, ln := range lanes {
		var he *server.HTTPError
		if ln.dropped || !errors.As(ln.err, &he) || he.Status != http.StatusGone {
			continue
		}
		if fresh == nil {
			if fresh = co.rt(); fresh.epoch() == old.epoch() {
				// Nothing newer installed here: the workers are ahead of
				// this coordinator (see the OPERATIONS.md note on
				// coordinator restarts) and the fence has to stand.
				return
			}
			co.reroutes.Inc()
		}
		resplit := make([]historygraph.EventList, len(fresh.sets))
		for _, ev := range ln.failed.events {
			np := fresh.table.Partition(ev)
			resplit[np] = append(resplit[np], ev)
		}
		ln.err = nil
		for np, slice := range resplit {
			if len(slice) == 0 {
				continue
			}
			sl := ln.failed
			sl.events = slice
			res, err := co.appendLeg(base, fresh, np, sl)
			if err != nil {
				// A lane with an error is left out of the answer, so
				// the pieces folded into it before this one are not
				// counted.
				ln.err = fmt.Errorf("rerouted to partition %d: %w", np, err)
				break
			}
			ln.res.Fold(*res)
		}
	}
}
