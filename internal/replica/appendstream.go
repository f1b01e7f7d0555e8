package replica

// POST /append, a batch and an append stream alike: server.AppendFrames
// yields the body's frames (a batch is one, tagged with ?batch=), and each
// frame is admitted through the pipeline's admission stage — dedup table,
// order validation, WAL write — so a frame and a batch with the same ID
// are interchangeable across retries. The handler keeps a window of
// admitted-but-unsettled frames: inside the window it reads the next
// frame while earlier ones are still syncing and applying (this is where
// a stream's throughput comes from), at the window edge it settles the
// oldest before reading more. Because settling blocks the read loop, the
// client's TCP send buffer eventually fills and its writes stall — the
// transport itself is the backpressure; no ack frames flow upstream
// (HTTP/1.1 gives the client no response bytes to read while it is still
// writing). One follower-ack wait ends the request.

import (
	"fmt"
	"io"
	"net/http"

	"historygraph/internal/server"
	"historygraph/internal/wire"
)

func (n *Node) handleAppend(w http.ResponseWriter, r *http.Request) {
	if !n.srv.CheckEpoch(w, r) {
		return
	}
	if n.Role() != RolePrimary {
		n.mu.Lock()
		primary := n.primaryURL
		n.mu.Unlock()
		server.WriteJSON(w, http.StatusMisdirectedRequest, map[string]string{
			"error":   "replica: this node is a follower; appends go to the primary",
			"primary": primary,
		})
		return
	}
	frames, err := server.AppendFrames(r)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, err)
		return
	}
	var (
		agg     wire.AppendResult
		pending []admitted // admitted frames not yet settled, oldest first
		acked   uint64     // highest seq the follower-ack wait must cover
		count   int        // frames admitted so far
	)
	// settleOne folds the oldest pending admission into the aggregate.
	settleOne := func() error {
		ad := pending[0]
		pending = pending[1:]
		res, err := n.settle(ad)
		if err != nil {
			return err
		}
		agg.Fold(res)
		// Frames settle in log order on this node's own log, so the
		// request's sequence number is the newest frame's.
		agg.Seq = max(agg.Seq, res.Seq)
		return nil
	}
	settleAll := func() error {
		for len(pending) > 0 {
			if err := settleOne(); err != nil {
				return err
			}
		}
		return nil
	}
	// fail aborts the request. Frames admitted before the failure are
	// durably logged and will apply regardless of the error answer.
	fail := func(status int, cause error) {
		settleErr := settleAll()
		msg := frames.Fail(count, cause, "admitted and are durable")
		if settleErr != nil {
			msg = fmt.Errorf("%w; settle error: %v", msg, settleErr)
		}
		server.WriteError(w, status, msg)
	}
	for {
		frame, err := frames.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			fail(http.StatusBadRequest, err)
			return
		}
		ad, status, err := n.admit(frame.Events, frame.Batch)
		if err != nil {
			fail(status, err)
			return
		}
		acked = max(acked, ad.acked)
		pending = append(pending, ad)
		count++
		// Window edge: settle the oldest before reading another frame.
		// Blocking here (instead of reading on) is the per-stream
		// backpressure that bounds this connection's claim on the shared
		// pipeline queue.
		if len(pending) >= StreamWindow {
			if err := settleOne(); err != nil {
				fail(http.StatusInternalServerError, err)
				return
			}
		}
	}
	if err := settleAll(); err != nil {
		fail(http.StatusInternalServerError, err)
		return
	}
	// One follower-ack wait covers every frame: acks are seq-watermark
	// based, so confirming the highest admitted sequence confirms all.
	what := "the batch"
	if frames.Stream() {
		what = fmt.Sprintf("the stream of %d frames", count)
	}
	if err := n.confirm(acked, what); err != nil {
		server.WriteError(w, http.StatusServiceUnavailable, err)
		return
	}
	server.WriteWire(w, r, http.StatusOK, agg)
}
