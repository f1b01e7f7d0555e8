package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"

	"historygraph/internal/graph"
)

func streamFrames(n, perFrame int) []graph.EventList {
	frames := make([]graph.EventList, n)
	for f := range frames {
		events := make(graph.EventList, perFrame)
		for i := range events {
			events[i] = graph.Event{
				Type: graph.SetNodeAttr,
				At:   graph.Time(f*perFrame + i + 1),
				Node: graph.NodeID(f*1000 + i),
				// The same attr key on every event exercises the intern
				// table carrying across frames.
				Attr:   "affiliation",
				New:    fmt.Sprintf("v%d", f),
				HasNew: true,
			}
		}
		frames[f] = events
	}
	return frames
}

// TestAppendStreamRoundTrip: frames encoded onto a stream come back one by
// one, batch IDs intact, and the decoder reports io.EOF exactly after the
// end frame.
func TestAppendStreamRoundTrip(t *testing.T) {
	frames := streamFrames(5, 7)
	var buf bytes.Buffer
	enc := NewAppendStreamEncoder(&buf)
	for f, events := range frames {
		if err := enc.Events(fmt.Sprintf("batch-%d", f), events); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.End(); err != nil {
		t.Fatal(err)
	}
	if err := enc.Events("late", frames[0]); err == nil {
		t.Fatal("frame after End should be rejected")
	}

	dec, err := NewAppendStreamDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for f, want := range frames {
		frame, err := dec.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
		if frame.Batch != fmt.Sprintf("batch-%d", f) {
			t.Fatalf("frame %d batch = %q", f, frame.Batch)
		}
		// The event slice is scratch: compare before pulling the next frame.
		if !reflect.DeepEqual(frame.Events, want) {
			t.Fatalf("frame %d events diverge:\n got %+v\nwant %+v", f, frame.Events, want)
		}
	}
	if _, err := dec.Next(); err != io.EOF {
		t.Fatalf("after end frame: %v, want io.EOF", err)
	}
	if _, err := dec.Next(); err != io.EOF {
		t.Fatalf("repeated Next after EOF: %v, want io.EOF", err)
	}
}

// TestAppendStreamTruncation: a stream cut anywhere before the end frame
// must decode the complete frames, then fail with an error wrapping
// io.ErrUnexpectedEOF — never a clean io.EOF, which would let a receiver
// mistake a dead writer for a finished stream.
func TestAppendStreamTruncation(t *testing.T) {
	frames := streamFrames(3, 4)
	var buf bytes.Buffer
	enc := NewAppendStreamEncoder(&buf)
	for f, events := range frames {
		if err := enc.Events(fmt.Sprintf("b%d", f), events); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.End(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	for cut := 0; cut < len(full); cut++ {
		dec, err := NewAppendStreamDecoder(bytes.NewReader(full[:cut]))
		if err != nil {
			if cut >= 3 {
				t.Fatalf("cut %d: header rejected: %v", cut, err)
			}
			continue // inside the 3-byte header: rejection is right
		}
		sawErr := false
		for i := 0; i <= len(frames); i++ {
			_, err := dec.Next()
			if err == nil {
				continue
			}
			if err == io.EOF {
				t.Fatalf("cut %d: decoder reported clean EOF on a truncated stream", cut)
			}
			sawErr = true
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				// A cut can also land inside a frame body, surfacing as a
				// decode error; both shapes are acceptable, silence is not.
				if cut >= len(full)-1 {
					t.Fatalf("cut %d: %v does not wrap io.ErrUnexpectedEOF", cut, err)
				}
			}
			break
		}
		if !sawErr {
			t.Fatalf("cut %d: truncated stream decoded without error", cut)
		}
	}
}

// TestAppendStreamEndCountMismatch: an end frame declaring the wrong frame
// count is an integrity failure, not EOF.
func TestAppendStreamEndCountMismatch(t *testing.T) {
	var buf bytes.Buffer
	enc := NewAppendStreamEncoder(&buf)
	if err := enc.Events("b", streamFrames(1, 2)[0]); err != nil {
		t.Fatal(err)
	}
	// Forge an end frame claiming 9 frames.
	enc.enc.Byte(frameAppendEnd)
	enc.enc.Uvarint(9)
	if err := enc.writeFrame(nil); err != nil {
		t.Fatal(err)
	}
	dec, err := NewAppendStreamDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Next(); err == nil || err == io.EOF {
		t.Fatalf("mismatched end frame answered %v, want an integrity error", err)
	}
}
