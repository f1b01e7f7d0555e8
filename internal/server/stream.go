package server

// The streaming /snapshot path: a full=1 response is written as a chunked
// element-run stream (wire.StreamEncoder) while the handler walks the
// pinned GraphPool view — the pool's ordered walk the whole-message
// response is built by (walkSnapshot), with the encoder as its sink —
// instead of materializing the whole []Node/[]Edge response struct and
// one contiguous encoded body first. The walk holds the pool's read lock
// for one run at a time and lets go of it before the run's frame is
// written and flushed, so a slow client never holds up a writer.
// Peak response-build memory is proportional to the run size (plus the
// sorted ID lists), not the snapshot — the property the shard coordinator
// relies on to keep N concurrent large snapshots from multiplying into
// N full response buffers. A body bound for the encoded-bytes cache is
// also captured whole on the way out; the coordinator's legs are sent
// no-store while its merged cache is on, so for them it is not.

import (
	"net/http"

	"historygraph"
	"historygraph/internal/cache"
	"historygraph/internal/wire"
)

// streamSnapshot writes one full snapshot as a chunked element-run
// stream. The view stays pinned (release deferred) for the whole walk;
// the encoder emits and flushes runs as they fill so a slow client reads
// data while the walk continues. A mid-walk write error means the client
// went away — the response is abandoned (the missing summary frame tells
// any reader the stream is truncated). ekey is empty when the body must
// not be cached.
func (s *Server) streamSnapshot(w http.ResponseWriter, h *historygraph.HistGraph, release func(), cached, coalesced bool, ekey string, gen int64, own *slotOwnership) {
	defer release()
	s.enc.Encodes.Inc()
	slot := cache.Entry[cache.Body]{At: h.At(), DepCur: h.DependsOnCurrent()}

	se, admit := s.enc.Stream(w, s.runSize, ekey)
	nodes, edges, walk := walkSnapshot(h, own, true)
	if walk.Walk(se.RunSize(), se) != nil {
		return
	}
	sum := wire.Snapshot{
		At: int64(slot.At), NumNodes: nodes, NumEdges: edges,
		Cached: cached, Coalesced: coalesced,
	}
	if se.Summary(&sum) != nil {
		return
	}
	// The summary is not flushed: it leaves when the handler returns,
	// after the body is registered, so a client that has seen the whole
	// stream finds its repeat request cached.
	admit(slot, gen)
}
