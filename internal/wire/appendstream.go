package wire

// The streaming ingest encoding: a long-lived POST /append?stream=1 body
// carrying many event batches as length-prefixed binary frames, so a
// writer pays one HTTP round trip per *connection* instead of one per
// batch. The framing mirrors the chunked snapshot stream:
//
//	stream  := 'D' version kindAppendStream frame*
//	frame   := uvarint(len) body           ; len counts the body bytes
//	body    := frameAppendEvents | frameAppendEnd
//
//	frameAppendEvents := 0x01 string(batch) uvarint(count) event*
//	frameAppendEnd    := 0x0F uvarint(frames)
//
// Events use the exact encoding of the whole-message codec
// (EncodeEventTo); the attribute/type intern table carries across frames,
// so a long stream pays the key bytes once. Each event frame is one
// append batch: the receiver admits it atomically, under its own
// idempotency batch ID (empty for untagged appends), exactly as if it had
// arrived as its own POST /append?batch= request. The end frame carries
// the event-frame count and terminates the stream — a reader that hits
// EOF before it has seen a truncated stream (the writer died mid-send)
// and must report the data it admitted rather than pretend completeness.
//
// Acks are windowed, not per-frame: HTTP/1.1 gives the client no
// full-duplex response reading while it still writes the request, so the
// server bounds how many admitted-but-unsettled frames it will read ahead
// (its stream window) and otherwise simply stops reading — TCP backpressure
// is the flow control — then answers one aggregated AppendResult after the
// end frame.

import (
	"fmt"
	"io"

	"historygraph/internal/graph"
)

// kindAppendStream frames a streaming ingest body (whole-message kinds
// stop at kindExprRequest; 0x08 is the snapshot stream, 0x09-0x0d the
// PageRank plane).
const kindAppendStream = 0x0e

// Append-stream frame type bytes.
const (
	frameAppendEvents = 0x01
	frameAppendEnd    = 0x0F
)

// ContentTypeAppendStream is the MIME type of a streaming ingest request
// body. It extends ContentTypeBinary textually, like the snapshot stream
// type, so content-type routing that substring-matches the binary type
// still classifies the bytes as the binary family.
const ContentTypeAppendStream = ContentTypeBinary + "-append-stream"

// AppendFrame is one decoded ingest frame: a batch of events under an
// optional idempotency ID.
type AppendFrame struct {
	Batch  string
	Events graph.EventList
}

// AppendStreamEncoder writes one streaming ingest body. Not safe for
// concurrent use; allocate one per connection. The frame buffer is reused
// across frames and the intern table persists stream-wide.
type AppendStreamEncoder struct {
	frameWriter
	frames uint64
}

// NewAppendStreamEncoder returns an ingest-stream encoder over w. Nothing
// is written until the first frame.
func NewAppendStreamEncoder(w io.Writer) *AppendStreamEncoder {
	return &AppendStreamEncoder{frameWriter: newFrameWriter(w, kindAppendStream)}
}

// Events writes one batch frame under the given idempotency ID (empty for
// an untagged append).
func (e *AppendStreamEncoder) Events(batch string, events graph.EventList) error {
	e.enc.Byte(frameAppendEvents)
	e.enc.String(batch)
	e.enc.Uvarint(uint64(len(events)))
	for i := range events {
		EncodeEventTo(e.enc, events[i])
	}
	e.frames++
	return e.writeFrame(nil)
}

// End terminates the stream with the integrity frame. No frame may follow
// it.
func (e *AppendStreamEncoder) End() error {
	if e.done {
		return nil
	}
	e.enc.Byte(frameAppendEnd)
	e.enc.Uvarint(e.frames)
	return e.writeLast()
}

// AppendStreamDecoder reads a streaming ingest body frame by frame. Not
// safe for concurrent use.
type AppendStreamDecoder struct {
	fr     frameReader
	frames uint64
}

// NewAppendStreamDecoder wraps r and consumes the stream header.
func NewAppendStreamDecoder(r io.Reader) (*AppendStreamDecoder, error) {
	fr, err := newFrameReader(r, kindAppendStream, "append stream")
	if err != nil {
		return nil, err
	}
	return &AppendStreamDecoder{fr: fr}, nil
}

// Next returns the next batch frame. After the end frame it reports
// io.EOF; EOF from the underlying reader before the end frame means the
// writer died mid-stream and Next returns an error wrapping
// io.ErrUnexpectedEOF. The returned frame's events are the caller's to
// keep: receivers queue them for an applier that outlives the frame.
func (d *AppendStreamDecoder) Next() (*AppendFrame, error) {
	typ, dec, err := d.fr.next()
	if err != nil {
		return nil, err
	}
	switch typ {
	case frameAppendEvents:
		batch := dec.String()
		n := dec.Len()
		events := make(graph.EventList, 0, n)
		for i := 0; i < n && dec.Err() == nil; i++ {
			events = append(events, DecodeEventFrom(dec))
		}
		d.frames++
		if err := d.fr.end(typ, false); err != nil {
			return nil, err
		}
		return &AppendFrame{Batch: batch, Events: events}, nil
	case frameAppendEnd:
		want := dec.Uvarint()
		if dec.Err() == nil && want != d.frames {
			return nil, d.fr.fail(fmt.Errorf("wire: append stream end frame declares %d frames, read %d", want, d.frames))
		}
		if err := d.fr.end(typ, true); err != nil {
			return nil, err
		}
		return nil, d.fr.fail(io.EOF)
	default:
		return nil, d.fr.fail(fmt.Errorf("wire: unknown append stream frame type 0x%02x", typ))
	}
}
