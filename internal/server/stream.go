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
// the encoder emits and flushes runs as they fill so a slow client reads
// data while the walk continues. A mid-walk write error means the client
// went away — the response is abandoned (the missing summary frame tells
// any reader the stream is truncated). ekey is empty when the body must
// not be cached.
func (s *Server) streamSnapshot(w http.ResponseWriter, h *historygraph.HistGraph, release func(), cached, coalesced bool, ekey string, gen int64, own *slotOwnership) {
	defer release()
	s.enc.Encodes.Inc()
	slot := cache.Entry[cache.Body]{At: h.At(), DepCur: h.DependsOnCurrent()}

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

	se, admit := s.enc.Stream(w, s.runSize, ekey)
	for _, id := range nodeIDs {
		if se.Node(wire.Node{ID: int64(id), Attrs: h.NodeAttrs(id)}) != nil {
			return
		}
	}
	for _, er := range edges {
		if se.Edge(wire.Edge{
			ID: int64(er.id), From: int64(er.info.From), To: int64(er.info.To),
			Directed: er.info.Directed, Attrs: h.EdgeAttrs(er.id),
		}) != nil {
			return
		}
	}
	sum := SnapshotJSON{
		At: int64(slot.At), NumNodes: len(nodeIDs), NumEdges: len(edges),
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
