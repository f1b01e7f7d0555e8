// Package server is the concurrent snapshot query service: an HTTP layer
// over historygraph.GraphManager that many clients hit at once — the
// long-lived Historical Graph Index process the paper assumes
// (Section 3), exposed over the network.
//
// Three serving-layer mechanisms keep concurrent load off the DeltaGraph
// (the cache hierarchy across the whole system is mapped in
// docs/ARCHITECTURE.md):
//
//   - Request coalescing: concurrent retrievals of the same (timepoint,
//     attribute-spec) share one in-flight GetHistGraph execution instead
//     of racing N identical plan walks (FlightGroup).
//   - Hot-snapshot caching: an LRU of recently served GraphPool views,
//     kept resident with reference-counted pins, serves repeat queries at
//     popular timepoints with zero plan executions. Eviction releases the
//     view back to the pool, whose lazy cleaner reclaims the bits once
//     the last in-flight reader unpins.
//   - Encoded-bytes caching: an LRU of fully encoded /snapshot bodies,
//     one entry per (timepoint, attrs, full, encoding), so a hot
//     timepoint costs zero *encode* work too — a hit is a single write
//     of stored bytes (Server.Encodes counts encode executions; hits
//     leave it untouched).
//
// Large full=1 snapshot responses can additionally be answered as a
// chunked element-run stream (Accept:
// application/x-deltagraph-bin-stream): the handler walks the pinned
// view run by run through wire.StreamEncoder instead of materializing
// the whole response struct, bounding response-build memory by
// Config.StreamRun rather than the snapshot size.
//
// Endpoints:
//
//	GET  /snapshot?t=T[&attrs=SPEC][&full=1]        one timepoint
//	GET  /neighbors?t=T&node=N[&attrs=SPEC]         neighborhood at T
//	GET  /batch?t=T1,T2,...[&attrs=SPEC][&full=1]   multipoint (shared-delta plan)
//	GET  /interval?from=TS&to=TE[&attrs=SPEC][&full=1]
//	POST /expr    {"times":[...],"expr":"0 & !1",...}
//	POST /append  [{"type":"NN","at":1,"node":23}, ...]
//	GET  /stats   index + pool + serving-layer counters
//	GET  /healthz
//
// Concurrency and invalidation rules:
//
//   - A Server is safe for concurrent use; handlers share the cache
//     levels (each an internal/cache.Cache under its own mutex) and
//     counters are atomics.
//   - ApplyEvents is the single path by which events enter the node —
//     the HTTP append handler, WAL replay, and follower apply all call
//     it — and it runs one invalidation pass over every level under
//     internal/cache's policy: appending with earliest timestamp t
//     evicts every entry at a timepoint >= t plus every
//     current-dependent entry, and bumps each level's generation so
//     responses built concurrently with the append cannot register
//     afterwards.
//   - The Go Client is safe for concurrent use after configuration;
//     SetWire is not synchronized with in-flight requests.
package server
