package server

// Worker-side slot ownership: the serving half of the cluster's elastic
// resharding protocol. The coordinator owns the authoritative slot table
// (internal/shard); each worker holds only its own projection of it — the
// installed epoch and the set of graph.NumSlots hash slots it owns — and
// enforces two things:
//
//   - the epoch fence: a request stamped with a routing epoch that
//     disagrees with the installed one answers 410 Gone, which the
//     coordinator turns into one retry against its fresh table, and
//   - read filtering: after a migration a retired owner still holds the
//     moved slots' history in its graph, so data-plane reads drop
//     elements outside the owned slots. The coordinator's scatter-merge
//     then sees each element from exactly one worker, keeping merged
//     responses byte-identical to an unsharded oracle.
//
// A worker that has never been configured (standalone servers, clusters
// predating slot routing) owns everything and fences nothing — the zero
// state costs one atomic load per request.

import (
	"context"
	"fmt"
	"net/http"
	"slices"
	"strconv"

	"historygraph"
	"historygraph/internal/graph"
)

// EpochHeader stamps a coordinator scatter leg with the routing-table
// epoch it was planned against.
const EpochHeader = "X-DG-Epoch"

// WithEpoch returns ctx carrying the routing epoch; the Client stamps
// every outgoing request built under it with EpochHeader, the way it
// forwards request IDs.
func WithEpoch(ctx context.Context, epoch uint64) context.Context {
	return context.WithValue(ctx, epochKey, epoch)
}

// WithNoStore returns ctx marking the requests the Client builds under it
// Cache-Control: no-store (RFC 9111 §5.2.1.5): the caller keeps the
// encoded answer itself, so the server serves it without admitting a copy.
// A coordinator with its merged level on marks its /snapshot legs so.
func WithNoStore(ctx context.Context) context.Context {
	return context.WithValue(ctx, noStoreKey, true)
}

// epochFrom returns the routing epoch threaded through ctx, if any.
func epochFrom(ctx context.Context) (uint64, bool) {
	e, ok := ctx.Value(epochKey).(uint64)
	return e, ok
}

// forwardLeg stamps an outgoing request with the coordinator-leg markers
// ctx carries: the routing epoch (WithEpoch) and Cache-Control: no-store
// (WithNoStore). A no-op for direct clients, which set neither.
func forwardLeg(ctx context.Context, req *http.Request) {
	if e, ok := epochFrom(ctx); ok {
		req.Header.Set(EpochHeader, strconv.FormatUint(e, 10))
	}
	if ctx.Value(noStoreKey) != nil {
		req.Header.Set("Cache-Control", "no-store")
	}
}

// SlotsJSON is the /admin/slots wire shape: the routing epoch plus the
// slot set the worker owns. All means every slot (the unconfigured
// default, reported by GET on a standalone server).
type SlotsJSON struct {
	Epoch uint64 `json:"epoch"`
	All   bool   `json:"all,omitempty"`
	Slots []int  `json:"slots,omitempty"`
}

// slotOwnership is one installed ownership state, immutable once
// published through the server's atomic pointer.
type slotOwnership struct {
	epoch uint64
	all   bool
	owned [graph.NumSlots]bool
}

// owns reports whether slot s is served here. A nil ownership (never
// configured) owns everything.
func (o *slotOwnership) owns(s int) bool { return o == nil || o.all || o.owned[s] }

// ownsNode reports whether the node's slot is served here.
func (o *slotOwnership) ownsNode(n historygraph.NodeID) bool {
	return o == nil || o.all || o.owned[graph.Slot(n)]
}

// filtering reports whether data-plane reads must restrict to the owned
// slots; false is the zero-cost fast path.
func (o *slotOwnership) filtering() bool { return o != nil && !o.all }

// ownership returns the installed slot ownership (nil = own everything).
func (s *Server) ownership() *slotOwnership { return s.slots.Load() }

// SetSlots installs a slot-ownership state. Encoded response bodies were
// built under the previous ownership, so the encoded-bytes cache is
// dropped wholesale (the generation bump also refuses in-flight inserts);
// pinned views and CSRs are ownership-agnostic — filtering happens at
// response build — and survive.
func (s *Server) SetSlots(cfg SlotsJSON) error {
	own := &slotOwnership{epoch: cfg.Epoch, all: cfg.All}
	count := 0
	for _, sl := range cfg.Slots {
		if sl < 0 || sl >= graph.NumSlots {
			return fmt.Errorf("slot %d out of range [0, %d)", sl, graph.NumSlots)
		}
		if !own.owned[sl] {
			own.owned[sl] = true
			count++
		}
	}
	if cfg.All {
		count = graph.NumSlots
	}
	s.slots.Store(own)
	s.slotEpoch.Set(float64(cfg.Epoch))
	s.slotsOwned.Set(float64(count))
	s.enc.Purge()
	return nil
}

// Slots reports the installed ownership in wire form.
func (s *Server) Slots() SlotsJSON {
	own := s.ownership()
	if own == nil {
		return SlotsJSON{All: true}
	}
	out := SlotsJSON{Epoch: own.epoch, All: own.all}
	if !own.all {
		for sl := range own.owned {
			if own.owned[sl] {
				out.Slots = append(out.Slots, sl)
			}
		}
	}
	return out
}

func (s *Server) handleSlotsGet(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.Slots())
}

func (s *Server) handleSlotsPost(w http.ResponseWriter, r *http.Request) {
	var cfg SlotsJSON
	if err := ReadBody(r, &cfg); err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("bad slots body: %w", err))
		return
	}
	if err := s.SetSlots(cfg); err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// CheckEpoch enforces the routing-epoch fence. An unstamped request (a
// direct client, or a coordinator predating slot routing) and an
// unconfigured worker both pass; a stamped request against a configured
// worker must match its epoch exactly or the answer is 410 Gone — the
// signal the coordinator converts into a routed retry. Exported because
// the replica node fences its own append path with it.
func (s *Server) CheckEpoch(w http.ResponseWriter, r *http.Request) bool {
	hdr := r.Header.Get(EpochHeader)
	if hdr == "" {
		return true
	}
	e, err := strconv.ParseUint(hdr, 10, 64)
	if err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("bad %s %q", EpochHeader, hdr))
		return false
	}
	own := s.ownership()
	if own == nil || own.epoch == 0 || e == own.epoch {
		return true
	}
	WriteError(w, http.StatusGone,
		fmt.Errorf("routing epoch %d does not match installed epoch %d", e, own.epoch))
	return false
}

// ownedNeighbors computes the degree and neighbor list restricted to
// owned edges. The list is distinct and ascending, as View.Neighbors's is,
// so the filtered answer agrees element-for-element with the unfiltered one
// whenever every incident edge is owned.
func ownedNeighbors(h *historygraph.HistGraph, n historygraph.NodeID, own *slotOwnership) (int, []historygraph.NodeID) {
	var out []historygraph.NodeID
	for _, e := range h.IncidentEdges(n) {
		if info, ok := h.EdgeInfo(e); ok && own.ownsNode(info.From) {
			out = append(out, info.Other(n))
		}
	}
	degree := len(out)
	slices.Sort(out)
	return degree, slices.Compact(out)
}
