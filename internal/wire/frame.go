package wire

// The length-prefixed frame loop every chunked stream kind shares:
//
//	stream := 'D' version kind frame*
//	frame  := uvarint(len) body        ; len counts the body bytes
//
// What a body holds is the stream kind's business (stream.go,
// appendstream.go); this file owns the header, the length prefix, the
// size bound, buffer reuse and the truncation contract: a stream that
// ends before its terminating frame fails with io.ErrUnexpectedEOF,
// never a clean io.EOF and never a silent short result.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// maxStreamFrame bounds one frame's declared body length; a corrupt or
// hostile length prefix fails decode instead of forcing a giant
// allocation. Generous: a DefaultRunSize run of attribute-heavy elements
// is well under 1 MiB.
const maxStreamFrame = 1 << 26

// errFrameAfterLast refuses anything written after a stream's terminating
// frame.
var errFrameAfterLast = fmt.Errorf("wire: frame after the stream's terminating frame")

// frameWriter writes the frames of one stream. A frame's body is built in
// enc (whose intern table persists stream-wide, so a frame boundary costs
// only its length prefix) and flushed with writeFrame; nothing reaches w
// before the first frame, so a handler can still fail cleanly before
// committing to a response.
type frameWriter struct {
	w          io.Writer
	kind       byte
	enc        *Encoder
	headerDone bool
	done       bool // the terminating frame was written
	scratch    [2*binary.MaxVarintLen64 + 1]byte
}

func newFrameWriter(w io.Writer, kind byte) frameWriter {
	return frameWriter{w: w, kind: kind, enc: NewEncoder()}
}

// writeFrame writes head followed by enc's bytes as one frame — after the
// stream header, if this is the first — and empties enc for the next.
// head (at most MaxVarintLen64+1 bytes, usually nil) is the part of the
// body a producer only knows once the rest is encoded: an element run's
// type and count.
func (fw *frameWriter) writeFrame(head []byte) error {
	if fw.done {
		return errFrameAfterLast
	}
	if !fw.headerDone {
		if _, err := fw.w.Write([]byte{binaryMagic, binaryVersion, fw.kind}); err != nil {
			return err
		}
		fw.headerDone = true
	}
	body := fw.enc.Bytes()
	prefix := append(binary.AppendUvarint(fw.scratch[:0], uint64(len(head)+len(body))), head...)
	if _, err := fw.w.Write(prefix); err != nil {
		return err
	}
	_, err := fw.w.Write(body)
	fw.enc.buf = fw.enc.buf[:0] // reuse the frame buffer; keys persist
	return err
}

// writeLast writes the terminating frame; no frame may follow it.
func (fw *frameWriter) writeLast() error {
	err := fw.writeFrame(nil)
	fw.done = err == nil
	return err
}

// frameReader reads the frames of one stream. Errors are sticky.
type frameReader struct {
	r    *bufio.Reader
	name string  // the stream kind, for error messages
	dec  Decoder // over the current frame; its intern table carries across frames
	buf  []byte  // frame body scratch, reused
	done bool    // the terminating frame was read
	err  error
}

// newFrameReader wraps r and consumes the stream header. A reader whose
// first bytes are not this kind's header fails here, so a caller can
// still fall back to another decoder on the buffered bytes.
func newFrameReader(r io.Reader, kind byte, name string) (frameReader, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	var hdr [3]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return frameReader{}, fmt.Errorf("wire: %s header: %w", name, err)
	}
	if hdr[0] != binaryMagic || hdr[1] != binaryVersion || hdr[2] != kind {
		return frameReader{}, fmt.Errorf("wire: not a %s (header % x)", name, hdr)
	}
	return frameReader{r: br, name: name}, nil
}

// next reads one frame and returns its type byte and a decoder positioned
// after it; the caller decodes the body and then calls end. After the
// terminating frame next reports io.EOF. The decoder and everything it
// returned that aliases the frame buffer are reused by the following
// next.
func (fr *frameReader) next() (byte, *Decoder, error) {
	if fr.err != nil {
		return 0, nil, fr.err
	}
	if fr.done {
		return 0, nil, fr.fail(io.EOF)
	}
	n, err := binary.ReadUvarint(fr.r)
	if err != nil {
		return 0, nil, fr.fail(fr.truncated(err, "before its terminating frame"))
	}
	if n == 0 || n > maxStreamFrame {
		return 0, nil, fr.fail(fmt.Errorf("wire: %s frame of %d bytes (max %d)", fr.name, n, maxStreamFrame))
	}
	if uint64(cap(fr.buf)) < n {
		fr.buf = make([]byte, n)
	}
	body := fr.buf[:n]
	if _, err := io.ReadFull(fr.r, body); err != nil {
		return 0, nil, fr.fail(fr.truncated(err, "inside a frame"))
	}
	fr.dec = Decoder{data: body, keys: fr.dec.keys}
	return fr.dec.Byte(), &fr.dec, nil
}

// end closes the frame next opened: the body must have decoded without
// error and to its last byte. last marks the terminating frame.
func (fr *frameReader) end(typ byte, last bool) error {
	if err := fr.dec.Err(); err != nil {
		return fr.fail(err)
	}
	if rem := fr.dec.Remaining(); rem != 0 {
		return fr.fail(fmt.Errorf("wire: %d trailing bytes in %s frame 0x%02x", rem, fr.name, typ))
	}
	fr.done = last
	return nil
}

func (fr *frameReader) fail(err error) error {
	fr.err = err
	return err
}

// truncated rewrites an end-of-input error as the truncation it is.
func (fr *frameReader) truncated(err error, where string) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("wire: %s truncated %s: %w", fr.name, where, io.ErrUnexpectedEOF)
	}
	return err
}
