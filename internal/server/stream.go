package server

// The streaming /snapshot path: a full=1 response is written as a chunked
// element-run stream (wire.StreamEncoder) while the handler walks the
// pinned GraphPool view run by run, instead of materializing the whole
// []Node/[]Edge response struct and one contiguous encoded body first.
// Peak response-build memory is proportional to the run size (plus the
// sorted ID lists), not the snapshot — the property the shard coordinator
// relies on to keep N concurrent large snapshots from multiplying into
// N full response buffers.

import (
	"io"
	"net/http"
	"sort"

	"historygraph"
	"historygraph/internal/cache"
	"historygraph/internal/wire"
)

// edgeRef pairs an edge ID with its endpoints, collected under one pool
// lock acquisition so the per-run walk only re-locks for attributes.
type edgeRef struct {
	id   historygraph.EdgeID
	info historygraph.EdgeInfo
}

// streamSnapshot writes one full snapshot as a chunked element-run
// stream. The view stays pinned (release deferred) for the whole walk;
// runs are emitted and flushed as they fill so a slow client reads data
// while the walk continues. A mid-walk write error means the client went
// away — the response is abandoned (the missing summary frame tells any
// reader the stream is truncated).
func (s *Server) streamSnapshot(w http.ResponseWriter, h *historygraph.HistGraph, release func(), cached, coalesced bool, ekey string, gen int64, own *slotOwnership) {
	defer release()
	s.encodes.Inc()
	depCur := h.DependsOnCurrent()
	at := h.At()

	// Slot filtering happens on the collected ID lists before the walk,
	// so the summary counts and the streamed runs agree by construction.
	nodeIDs := h.Nodes()
	if own.filtering() {
		kept := nodeIDs[:0]
		for _, id := range nodeIDs {
			if own.ownsNode(id) {
				kept = append(kept, id)
			}
		}
		nodeIDs = kept
	}
	sort.Slice(nodeIDs, func(i, j int) bool { return nodeIDs[i] < nodeIDs[j] })
	var edges []edgeRef
	h.ForEachEdge(func(id historygraph.EdgeID, info historygraph.EdgeInfo) bool {
		if own.filtering() && !own.ownsNode(info.From) {
			return true
		}
		edges = append(edges, edgeRef{id: id, info: info})
		return true
	})
	sort.Slice(edges, func(i, j int) bool { return edges[i].id < edges[j].id })

	w.Header().Set("Content-Type", wire.ContentTypeBinaryStream)
	w.WriteHeader(http.StatusOK)
	var sink io.Writer = w
	var capture *wire.CappedBuffer
	if ekey != "" && !coalesced {
		// Stream hits replay the stored body as-is (no Cached flip —
		// re-streaming a variant would cost the very encode the cache
		// exists to skip), like the coordinator's batch entries.
		capture = &wire.CappedBuffer{Max: wire.MaxCachedBody}
		sink = io.MultiWriter(w, capture)
	}
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	se := wire.NewStreamEncoder(sink)

	runSize := s.runSize
	nrun := make([]wire.Node, 0, min(runSize, len(nodeIDs)))
	for _, id := range nodeIDs {
		nrun = append(nrun, wire.Node{ID: int64(id), Attrs: h.NodeAttrs(id)})
		if len(nrun) == runSize {
			if se.Nodes(nrun) != nil {
				return
			}
			nrun = nrun[:0]
			flush()
		}
	}
	if len(nrun) > 0 {
		if se.Nodes(nrun) != nil {
			return
		}
		flush()
	}
	erun := make([]wire.Edge, 0, min(runSize, len(edges)))
	for _, er := range edges {
		erun = append(erun, wire.Edge{
			ID: int64(er.id), From: int64(er.info.From), To: int64(er.info.To),
			Directed: er.info.Directed, Attrs: h.EdgeAttrs(er.id),
		})
		if len(erun) == runSize {
			if se.Edges(erun) != nil {
				return
			}
			erun = erun[:0]
			flush()
		}
	}
	if len(erun) > 0 {
		if se.Edges(erun) != nil {
			return
		}
		flush()
	}
	sum := SnapshotJSON{
		At: int64(at), NumNodes: len(nodeIDs), NumEdges: len(edges),
		Cached: cached, Coalesced: coalesced,
	}
	if se.Summary(&sum) != nil {
		return
	}
	// No flush: the summary leaves when the handler returns, after the
	// body is registered, so a client that has seen the whole stream
	// finds its repeat request cached.
	if capture != nil {
		if body, ok := capture.Bytes(); ok {
			s.enc.Insert(ekey, cache.Entry[cache.Body]{
				At: at, DepCur: depCur, Value: cache.Body{Bytes: body, ContentType: wire.ContentTypeBinaryStream},
			}, gen)
		}
	}
}
