package server

// Streaming ingest, both sides of the wire. The server side drains a
// POST /append?stream=1 body frame by frame; the client side (AppendStream)
// holds one long-lived connection and encodes a frame per Send, so a
// sustained writer pays connection setup, HTTP headers, and response
// parsing once per stream instead of once per batch. A WAL-backed replica
// node intercepts the same endpoint with its pipelined variant
// (internal/replica); this plain handler applies frames sequentially —
// there is no log to overlap against.

import (
	"context"
	"fmt"
	"io"
	"net/http"

	"historygraph"
	"historygraph/internal/wire"
)

// handleAppendStream drains a streaming ingest body, applying each frame
// as it arrives and answering one aggregated AppendResult after the end
// frame.
func (s *Server) handleAppendStream(w http.ResponseWriter, r *http.Request) {
	dec, err := wire.NewAppendStreamDecoder(r.Body)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	var agg wire.AppendResult
	frames := 0
	for {
		frame, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("append stream failed at frame %d: %w (earlier frames were applied)", frames, err))
			return
		}
		res, appendErr := s.ApplyEvents(frame.Events)
		agg.Fold(res)
		if appendErr != nil {
			WriteError(w, http.StatusUnprocessableEntity,
				fmt.Errorf("append stream frame %d: %w (earlier frames were applied)", frames, appendErr))
			return
		}
		frames++
	}
	WriteWire(w, r, http.StatusOK, agg)
}

// appendStreamResp carries the transport goroutine's answer back to Close.
type appendStreamResp struct {
	resp *http.Response
	err  error
}

// AppendStream is one long-lived streaming ingest connection: each Send
// encodes a batch frame onto the request body, Close writes the end frame
// and decodes the server's aggregated AppendResult. Not safe for
// concurrent use — open one stream per writer goroutine.
//
// Flow control is the transport itself: the server reads ahead a bounded
// window of frames; past it, Send blocks in the socket write until
// earlier frames settle. There are no per-frame acks — a writer that
// needs a durability receipt before its next batch should use
// AppendBatchCtx instead.
type AppendStream struct {
	enc  *wire.AppendStreamEncoder
	pw   *io.PipeWriter
	resp chan appendStreamResp
	done bool
}

// AppendStream opens a streaming ingest connection. Events flow with
// Send/SendBatch; Close completes the stream and returns the aggregated
// result.
func (c *Client) AppendStream() (*AppendStream, error) {
	return c.AppendStreamCtx(context.Background())
}

// AppendStreamCtx is AppendStream bounded by a context covering the whole
// stream's lifetime.
func (c *Client) AppendStreamCtx(ctx context.Context) (*AppendStream, error) {
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/append?stream=1", pr)
	if err != nil {
		pw.Close()
		return nil, err
	}
	req.Header.Set("Content-Type", wire.ContentTypeAppendStream)
	if a := c.accept(); a != "" {
		req.Header.Set("Accept", a)
	}
	forwardRequestID(ctx, req)
	s := &AppendStream{enc: wire.NewAppendStreamEncoder(pw), pw: pw, resp: make(chan appendStreamResp, 1)}
	go func() {
		resp, err := c.hc.Do(req)
		if err != nil {
			// Unblock any Send stuck writing into a dead transport.
			pr.CloseWithError(err)
		}
		s.resp <- appendStreamResp{resp: resp, err: err}
	}()
	return s, nil
}

// Send appends one untagged batch frame to the stream.
func (s *AppendStream) Send(events historygraph.EventList) error {
	return s.SendBatch(events, "")
}

// SendBatch is Send carrying an idempotency batch ID (the same semantics
// AppendBatchCtx gives a standalone append). A write error usually means
// the server aborted the stream early; Close returns its error body.
func (s *AppendStream) SendBatch(events historygraph.EventList, batch string) error {
	if s.done {
		return fmt.Errorf("server: send on a closed append stream")
	}
	return s.enc.Events(batch, events)
}

// Close writes the end frame, completes the request, and returns the
// server's aggregated result for the whole stream. It must be called
// exactly once; after an error it still consumes the connection.
func (s *AppendStream) Close() (*wire.AppendResult, error) {
	if s.done {
		return nil, fmt.Errorf("server: append stream closed twice")
	}
	s.done = true
	endErr := s.enc.End()
	s.pw.Close()
	r := <-s.resp
	if r.err != nil {
		return nil, r.err
	}
	var out wire.AppendResult
	if err := decodeResponse(r.resp, &out); err != nil {
		// The server's error body explains an abort better than the local
		// broken-pipe the abort caused.
		return nil, err
	}
	if endErr != nil {
		return nil, endErr
	}
	return &out, nil
}
