package replica

// Streaming ingest: POST /append?stream=1 carries many batches on one
// long-lived connection as binary frames (internal/wire append-stream
// encoding). Each frame is admitted through the same pipeline stage as a
// standalone POST /append — same dedup table, same order validation, same
// WAL write — so a frame and a request with the same batch ID are
// interchangeable across retries. The handler keeps a window of admitted-
// but-unsettled frames: inside the window it reads the next frame while
// earlier ones are still syncing and applying (this is where the
// throughput comes from), at the window edge it settles the oldest before
// reading more. Because settling blocks the read loop, the client's TCP
// send buffer eventually fills and its writes stall — the transport
// itself is the backpressure; no ack frames flow upstream (HTTP/1.1 gives
// the client no response bytes to read while it is still writing).

import (
	"fmt"
	"io"
	"net/http"

	"historygraph/internal/server"
	"historygraph/internal/wire"
)

func (n *Node) handleAppendStream(w http.ResponseWriter, r *http.Request) {
	dec, err := wire.NewAppendStreamDecoder(r.Body)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, err)
		return
	}
	var (
		agg     wire.AppendResult
		pending []admitted // admitted frames not yet settled, oldest first
		acked   uint64     // highest seq the follower-ack wait must cover
		frames  int        // frames admitted so far
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
		// stream's sequence number is the newest frame's.
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
	// fail aborts the stream. Frames admitted before the failure are
	// durably logged and will apply regardless of the error answer — the
	// message tells the client exactly how far the stream got, so a
	// resuming client replays from that frame (batch IDs make the overlap
	// safe).
	fail := func(status int, cause error) {
		settleErr := settleAll()
		msg := fmt.Errorf("append stream failed at frame %d: %w (earlier frames were admitted and are durable)", frames, cause)
		if settleErr != nil {
			msg = fmt.Errorf("%w; settle error: %v", msg, settleErr)
		}
		server.WriteError(w, status, msg)
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
		ad, status, err := n.admit(frame.Events, frame.Batch)
		if err != nil {
			fail(status, err)
			return
		}
		if ad.acked > acked {
			acked = ad.acked
		}
		pending = append(pending, ad)
		frames++
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
	// One follower-ack wait covers the whole stream: acks are seq-watermark
	// based, so confirming the highest admitted sequence confirms every
	// frame.
	if err := n.confirm(acked, fmt.Sprintf("the stream of %d frames", frames)); err != nil {
		server.WriteError(w, http.StatusServiceUnavailable, err)
		return
	}
	server.WriteWire(w, r, http.StatusOK, agg)
}
