// Package wire is the data-plane wire layer of the snapshot service: the
// typed request/response structs every HTTP endpoint speaks, plus the
// pluggable codecs that turn them into bytes.
//
// Three encodings ship (full specification in docs/WIRE.md):
//
//   - JSON (the default): the exact encoding internal/server has always
//     produced — field-for-field identical, so existing clients and the
//     byte-identity oracle tests see no change.
//   - Binary: a compact length-prefixed whole-message format (varint ids
//     with delta coding, interned attribute keys, no field names) for the
//     paths where JSON encode/decode dominates latency — coordinator
//     scatter legs, replication catch-up, large full-snapshot responses.
//   - Stream: the chunked form of a full snapshot (StreamEncoder and
//     StreamDecoder) — the same element encodings cut into bounded
//     element runs terminated by a summary frame, so producers and
//     consumers of arbitrarily large snapshots hold one run at a time
//     instead of the whole body.
//
// Codecs are negotiated per request: Accept selects the response
// encoding (binary with ContentTypeBinary, the chunked stream with
// ContentTypeBinaryStream — which only full /snapshot responses honor),
// and request bodies declare theirs via Content-Type. Everything else
// (errors, /stats, /healthz) stays JSON. The stream MIME type textually
// contains the binary one, so under the substring matching of
// Negotiate a streaming client degrades to whole-message binary against
// an older server, and to JSON against an even older one.
//
// Contract and concurrency rules:
//
//   - Codec implementations are stateless and safe for concurrent use;
//     decode(encode(x)) == x exactly for every supported type
//     (FuzzWireRoundTrip), with one documented exception — the stream
//     form spells empty element lists as nil.
//   - Encoder, Decoder, StreamEncoder, and StreamDecoder are
//     single-message/single-stream state machines: allocate one per
//     message or response, never share one across goroutines.
//     internal/replica deliberately shares one Encoder across the
//     records of a replication batch so the intern table spans it.
//   - Decoders are hardened against corrupt input: lengths and counts
//     are bounded by the remaining bytes, errors are sticky, and a
//     malformed message fails cleanly rather than panicking or
//     allocating unboundedly.
//
// The structs here are shared by internal/server, internal/shard's merge
// layer, and internal/replica's WAL and replication stream. An event is not
// one of them: every message carries graph.Event itself.
package wire
