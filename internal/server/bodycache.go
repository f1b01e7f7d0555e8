package server

import (
	"io"
	"net/http"

	"historygraph/internal/cache"
	"historygraph/internal/metrics"
	"historygraph/internal/wire"
)

// BodyCache is an encoded-bytes cache level — the worker's "encoded", the
// coordinator's "merged" — together with the one way either role answers
// through it: a hit is a single Write of the stored bytes, a miss is
// encoded, written, and admitted in the form a later hit should replay.
// Both levels are built with cache.Options.SecondRequest, so a body is
// admitted on its key's second request: a body read once is never held,
// and no hit form is encoded for it. A nil Cache is a disabled level: hits
// miss, nothing is admitted, and no hit form is encoded for it.
type BodyCache struct {
	*cache.Cache[cache.Body]
	// Encodes counts body encode executions; a hit performs none, and
	// tests assert that against this counter.
	Encodes *metrics.Counter
}

// cacheable reports whether an encoded body of n bytes may enter an
// encoded-bytes cache — the one admission rule for whole-message bodies
// and captured streams. The levels are bounded by entry count, so this
// cap is what bounds their memory.
func cacheable(n int) bool { return n <= wire.MaxCachedBody }

// exact returns a copy of b at its length, for admission: an encoder's
// buffer grows by appending, and the cache would hold its slack for as long
// as it holds the bytes.
func exact(b []byte) []byte { return append(make([]byte, 0, len(b)), b...) }

// WriteHit serves the body stored under key, if there is one: one Write,
// zero encode work.
func (bc BodyCache) WriteHit(w http.ResponseWriter, key string) bool {
	body, ok := bc.Get(key)
	if ok {
		writeBody(w, http.StatusOK, body.ContentType, body.Bytes)
	}
	return ok
}

// Write answers 200 with v encoded by codec and then, unless key is empty
// or this is its first request, admits the response under key at
// generation gen; e carries the entry's invalidation facts and its Value
// is filled in here. hit is the form a later hit answers with when that
// differs from v (the Cached flag flips on) and costs one more encode,
// once per admission; nil stores the served bytes themselves.
func (bc BodyCache) Write(w http.ResponseWriter, codec wire.Codec, v, hit any, key string, e cache.Entry[cache.Body], gen int64) {
	bc.Encodes.Inc()
	body, err := codec.Encode(v)
	if err != nil {
		// The negotiated codec cannot encode this body; fall back to JSON
		// (and do not cache — the stored content type would lie).
		WriteJSON(w, http.StatusOK, v)
		return
	}
	var hitForm func() ([]byte, error)
	if hit != nil {
		hitForm = func() ([]byte, error) { return codec.Encode(hit) }
	}
	bc.WriteBody(w, codec.ContentType(), body, hitForm, key, e, gen)
}

// WriteBody is Write for a body its caller encoded (and counted): it
// answers 200 with body and admits as Write does, hit making the form a
// later hit answers with, counted as one more encode.
func (bc BodyCache) WriteBody(w http.ResponseWriter, contentType string, body []byte, hit func() ([]byte, error), key string, e cache.Entry[cache.Body], gen int64) {
	writeBody(w, http.StatusOK, contentType, body)
	if key == "" || !bc.Admit(key) {
		return
	}
	if hit != nil {
		bc.Encodes.Inc()
		var err error
		if body, err = hit(); err != nil {
			return
		}
	}
	if cacheable(len(body)) {
		e.Value = cache.Body{Bytes: exact(body), ContentType: contentType}
		bc.Insert(key, e, gen)
	}
}

// Stream commits w to a 200 chunked snapshot-stream response and returns
// its encoder, which cuts runs of runSize elements and flushes each to
// the client as it fills. Unless key is empty or this is its first
// request, the stream's bytes are captured on the way out, and admit — to
// be called once the summary frame is written, with the entry's
// invalidation facts — registers them under key. A stream hit replays
// the stored body as it was served (no Cached flip: re-streaming a
// variant would cost the very encode the cache exists to skip).
func (bc BodyCache) Stream(w http.ResponseWriter, runSize int, key string) (se *wire.StreamEncoder, admit func(e cache.Entry[cache.Body], gen int64)) {
	w.Header().Set("Content-Type", wire.ContentTypeBinaryStream)
	w.WriteHeader(http.StatusOK)
	var sink io.Writer = w
	admit = func(cache.Entry[cache.Body], int64) {}
	if key != "" && bc.Admit(key) {
		capture := &cappedBuffer{}
		sink = io.MultiWriter(w, capture)
		admit = func(e cache.Entry[cache.Body], gen int64) {
			if !capture.overflow {
				e.Value = cache.Body{Bytes: exact(capture.buf), ContentType: wire.ContentTypeBinaryStream}
				bc.Insert(key, e, gen)
			}
		}
	}
	se = wire.NewStreamEncoder(sink, runSize)
	if f, ok := w.(http.Flusher); ok {
		se.AfterRun = f.Flush
	}
	return se, admit
}

// cappedBuffer tees stream bytes into memory for an encoded-bytes cache,
// giving up (and freeing what it held) once the body is no longer
// cacheable. Write never fails: a capture problem must not break the live
// response the buffer is teed off.
type cappedBuffer struct {
	buf      []byte
	overflow bool
}

func (b *cappedBuffer) Write(p []byte) (int, error) {
	if !b.overflow {
		if b.overflow = !cacheable(len(b.buf) + len(p)); b.overflow {
			b.buf = nil
		} else {
			b.buf = append(b.buf, p...)
		}
	}
	return len(p), nil
}
