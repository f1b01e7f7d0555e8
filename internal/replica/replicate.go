package replica

// The binary replication stream: GET /replicate's response in the wire
// package's binary encoding. A catch-up fetch moves up to FetchMax
// records per round trip, and with JSON each of them paid a full
// per-field encode on the primary and decode on the follower — on the
// catch-up path that dominated the transfer. The binary body reuses the
// exact event encoding WAL payloads are stored in (wire.EncodeEventTo),
// with one encoder per response so attribute keys and event type names
// intern across the whole batch.
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

	"historygraph/internal/wire"
)

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
