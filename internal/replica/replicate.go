package replica

// GET /replicate: the primary's side of log shipping — followers, the
// lineage handshake and the slot-migration puller all read the WAL through
// it — and the binary encoding of its response.
//
// With JSON a catch-up fetch of up to FetchMax records paid a full
// per-field encode on the primary and decode on the follower for each,
// which dominated the transfer. The binary body is the wire package's
// event encoding (wire.EncodeEventTo), with one encoder per response so
// attribute keys and event type names intern across the whole page.
//
// Layout after the standard wire frame ('D', version, kindReplicate):
//
//	uvarint last_seq
//	uvarint record count
//	per record: uvarint seq | string batch | event
//
// A slot-filtered fetch (the resharding migration stream, ?slots=...)
// answers kindReplicateSlots instead: the same record list restricted to
// the requested hash slots, plus the cursor/horizon pair the puller needs
// because filtered-out records still advance the scan:
//
//	uvarint last_seq
//	uvarint next_from   (first sequence the next fetch should scan)
//	varint  last_time   (safe time horizon: every event this source will
//	                     ever serve past next_from is at or after it)
//	uvarint record count
//	per record: uvarint seq | string batch | event

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"historygraph/internal/graph"
	"historygraph/internal/server"
	"historygraph/internal/wire"
)

// replicateResponse is the GET /replicate body. NextFrom and LastTime are
// set on slot-filtered fetches only: filtered-out records still advance
// the scan, so the puller resumes at NextFrom rather than past the last
// returned record; LastTime is the source's safe time horizon — every
// record it will ever serve past NextFrom carries an event time at or
// after it (WAL records are time-ordered).
type replicateResponse struct {
	Records  []Record `json:"records"`
	LastSeq  uint64   `json:"last_seq"`
	NextFrom uint64   `json:"next_from,omitempty"`
	LastTime int64    `json:"last_time,omitempty"`
}

func (n *Node) handleReplicate(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if err != nil || from == 0 {
		server.WriteError(w, http.StatusBadRequest, fmt.Errorf("replicate wants from=<seq> >= 1"))
		return
	}
	max := n.fetchMax
	if mq := q.Get("max"); mq != "" {
		if m, err := strconv.Atoi(mq); err == nil && m > 0 && m < max {
			max = m
		}
	}
	var slots *slotSet
	if sq := q.Get("slots"); sq != "" {
		if q.Get("id") != "" {
			server.WriteError(w, http.StatusBadRequest,
				fmt.Errorf("slots= and id= are mutually exclusive: a migration fetch is not a follower ack"))
			return
		}
		ss, err := parseSlotBitmap(sq)
		if err != nil {
			server.WriteError(w, http.StatusBadRequest, err)
			return
		}
		slots = &ss
	} else if id := q.Get("id"); id != "" && from > 1 {
		// from=N acknowledges that the caller has durably logged 1..N-1 —
		// but never past this node's own durable end: followers are only
		// ever served durable records, so a larger claim is not a copy of
		// this log (a stray client, or a follower that outran a newly
		// promoted primary) and must not release a -sync-followers wait.
		n.recordAck(id, min(from-1, n.log.LastSeq()))
	}
	if wq := q.Get("wait"); wq != "" {
		if wait, err := time.ParseDuration(wq); err == nil && wait > 0 {
			if wait > n.pollWait {
				wait = n.pollWait
			}
			n.log.Wait(from-1, wait) // long-poll until the log grows past from-1
		}
	}
	recs, err := n.log.Read(from, max)
	if err != nil {
		server.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	out := replicateResponse{Records: recs, LastSeq: n.log.LastSeq()}
	if slots != nil {
		// The scan cursor and time horizon come from the unfiltered page:
		// a record outside the requested slots is consumed (never served
		// to this puller again) and still bounds the times of everything
		// after it.
		out.NextFrom = from
		if len(recs) > 0 {
			out.NextFrom = recs[len(recs)-1].Seq + 1
			out.LastTime = int64(recs[len(recs)-1].Event.At)
		}
		out.Records = recs[:0]
		for _, rec := range recs {
			if slots.has(graph.Slot(rec.Event.Node)) {
				out.Records = append(out.Records, rec)
			}
		}
	}
	// Followers ask for the binary stream (one encoder per batch, interned
	// keys, no per-record JSON) and read nothing else; anything else — a
	// plain curl — gets the JSON body.
	if wire.Negotiate(r.Header.Get("Accept")).Name() == wire.NameBinary {
		w.Header().Set("Content-Type", wire.ContentTypeBinary)
		w.WriteHeader(http.StatusOK)
		w.Write(encodeReplicate(out, slots != nil))
		return
	}
	server.WriteJSON(w, http.StatusOK, out)
}

// Binary /replicate body kinds. Kinds 0x20+ are the replica package's
// slice of the wire kind space.
const (
	kindReplicate      = 0x21
	kindReplicateSlots = 0x22
)

// minRecordBytes is the least a record can take on the wire: a byte each
// for seq, the batch length, the event's type and attr keys, its four
// numbers and its flags.
const minRecordBytes = 9

// encodeReplicate renders a /replicate response in the binary format:
// kindReplicateSlots with the cursor/horizon pair for a slot-filtered
// fetch, kindReplicate otherwise.
func encodeReplicate(r replicateResponse, filtered bool) []byte {
	e := wire.NewEncoder()
	if filtered {
		e.Header(kindReplicateSlots)
		e.Uvarint(r.LastSeq)
		e.Uvarint(r.NextFrom)
		e.Varint(r.LastTime)
	} else {
		e.Header(kindReplicate)
		e.Uvarint(r.LastSeq)
	}
	e.Uvarint(uint64(len(r.Records)))
	for _, rec := range r.Records {
		e.Uvarint(rec.Seq)
		e.String(rec.Batch)
		wire.EncodeEventTo(e, rec.Event)
	}
	return e.Bytes()
}

// decodeReplicate reads a binary /replicate response, either kind.
func decodeReplicate(data []byte) (replicateResponse, error) {
	d := wire.NewDecoder(data)
	kind, err := d.Header()
	if err != nil {
		return replicateResponse{}, err
	}
	var out replicateResponse
	switch kind {
	case kindReplicate:
		out.LastSeq = d.Uvarint()
	case kindReplicateSlots:
		out.LastSeq = d.Uvarint()
		out.NextFrom = d.Uvarint()
		out.LastTime = d.Varint()
	default:
		return replicateResponse{}, fmt.Errorf("replica: message kind 0x%02x, want 0x%02x or 0x%02x", kind, kindReplicate, kindReplicateSlots)
	}
	// Len holds the count to one record per remaining byte, but a decoded
	// Record is over a hundred bytes: hold it to what the bytes can really
	// carry before allocating for it.
	n := d.Len()
	if n > d.Remaining()/minRecordBytes {
		return replicateResponse{}, fmt.Errorf("replica: %d records declared in %d bytes", n, d.Remaining())
	}
	out.Records = make([]Record, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		out.Records = append(out.Records, Record{
			Seq:   d.Uvarint(),
			Batch: d.String(),
			Event: wire.DecodeEventFrom(d),
		})
	}
	return out, d.Err()
}
