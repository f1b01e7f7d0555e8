package server

// POST /append, both sides of the wire. A body is a run of frames, each
// one batch of events under an optional idempotency ID: an append stream
// (?stream=1) is decoded frame by frame, and a whole batch is one frame
// tagged with ?batch=. AppendFrames is that frame source, and every
// role's append handler is one loop over it that serves both forms: this
// plain handler applies frames sequentially (there is no log to overlap
// against); a WAL-backed replica node (internal/replica) admits a window
// of frames ahead of their settling; the coordinator (internal/shard)
// routes each frame into per-partition lanes. The client side
// (AppendStream) holds one long-lived connection and encodes a frame per
// Send, so a sustained writer pays connection setup, HTTP headers, and
// response parsing once per stream instead of once per batch.

import (
	"context"
	"fmt"
	"io"
	"net/http"

	"historygraph"
	"historygraph/internal/wire"
)

// Frames is the frame source of one POST /append body.
type Frames struct {
	dec   *wire.AppendStreamDecoder // nil for a batch
	batch *wire.AppendFrame         // a batch's one frame, until Next hands it out
}

// AppendFrames opens r's body as frames: the append-stream decoder under
// ?stream=1, otherwise the body read by ReadBody as one frame tagged with
// ?batch=. Its error is the client's (a 400).
func AppendFrames(r *http.Request) (*Frames, error) {
	if BoolParam(r.URL.Query().Get("stream")) {
		dec, err := wire.NewAppendStreamDecoder(r.Body)
		if err != nil {
			return nil, err
		}
		return &Frames{dec: dec}, nil
	}
	var events historygraph.EventList
	if err := ReadBody(r, &events); err != nil {
		return nil, fmt.Errorf("bad append body: %w", err)
	}
	return &Frames{batch: &wire.AppendFrame{Batch: r.URL.Query().Get("batch"), Events: events}}, nil
}

// Next returns the next frame, and io.EOF after the last. A stream's
// other errors are the client's: a corrupt or truncated frame.
func (f *Frames) Next() (*wire.AppendFrame, error) {
	if f.dec != nil {
		return f.dec.Next()
	}
	frame := f.batch
	if frame == nil {
		return nil, io.EOF
	}
	f.batch = nil
	return frame, nil
}

// Stream reports whether the body is an append stream.
func (f *Frames) Stream() bool { return f.dec != nil }

// Fail is the error that stops the request at frame n. A batch answers
// its cause unchanged; a stream also names the frame, and says what
// became of the frames before it ("earlier frames were " + earlier), so a
// resuming client knows where to replay from.
func (f *Frames) Fail(n int, cause error, earlier string) error {
	if f.dec == nil {
		return cause
	}
	return fmt.Errorf("append stream failed at frame %d: %w (earlier frames were %s)", n, cause, earlier)
}

// handleAppend applies a POST /append body frame by frame and answers one
// AppendResult for the whole body.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	if !s.CheckEpoch(w, r) {
		return
	}
	frames, err := AppendFrames(r)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	var agg wire.AppendResult
	for n := 0; ; n++ {
		frame, err := frames.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			WriteError(w, http.StatusBadRequest, frames.Fail(n, err, "applied"))
			return
		}
		res, appendErr := s.ApplyEvents(frame.Events)
		agg.Fold(res)
		if appendErr != nil {
			WriteError(w, http.StatusUnprocessableEntity, frames.Fail(n, appendErr, "applied"))
			return
		}
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
