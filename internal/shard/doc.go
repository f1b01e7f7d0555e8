// Package shard implements the horizontally sharded deployment of the
// snapshot query service: a coordinator that fans every query out across
// N partitions and merges the partial answers into one response — the
// paper's distributed architecture (Section 4.6) lifted from the storage
// layer (internal/kvstore.Partitioned splits one index across stores) to
// the serving layer (one full query-processor process per horizontal
// slice of the node space). The system-wide picture, including where the
// coordinator's caches sit in the hierarchy, is in docs/ARCHITECTURE.md;
// operating a cluster is covered in docs/OPERATIONS.md.
//
// Each partition is served by a replica set: one or more ordinary
// internal/server.Server processes (optionally wrapped in
// internal/replica.Node for WAL durability and replication) whose
// GraphManagers hold only the events routed to the partition by the
// node-hash partitioning (graph.PartitionOfEvent — the same hash space
// kvstore.Partitioned routes storage keys by). Every graph element's
// entire event history lands on exactly one partition: node events hash
// by node ID, and edge events (including edge-attribute updates) hash by
// their From endpoint. Partial snapshots are therefore disjoint, and
// merging is a union — counts add, and the legs' ID-ordered element lists
// merge in one pass, reproducing the exact bytes an unsharded server
// would emit.
//
// The coordinator preserves the serving-layer mechanisms end-to-end and
// adds the availability layer:
//
//   - Coalescing: concurrent identical /snapshot and /neighbors requests
//     share one scatter-gather via a FlightGroup, so N clients asking for
//     the same timepoint cost one fan-out — and each worker coalesces its
//     own slice underneath and keeps its view in its hot-snapshot cache.
//   - Merged-response cache: an internal/cache level (the workers'
//     policy: LRU, invalidate-from-t, generation guard, plus an optional
//     TTL) over complete merged responses, stored as encoded bytes per
//     encoding — a hit is one write: no fan-out, no merge, no encode.
//     While it is on it is the only encoded copy of a /snapshot answer:
//     the legs are sent Cache-Control: no-store (server.WithNoStore), so
//     a worker encodes its share once and does not store it. With it off
//     (Config.CacheSize < 0) the workers' encoded level admits instead.
//     Only complete responses are admitted, and only appends routed
//     through this coordinator invalidate it: deployments whose writers
//     can reach a partition primary directly set Config.CacheTTL.
//   - Streaming merge: a full /snapshot requested as a chunked stream
//     fans out like any read, each leg a worker's stream, and the one
//     merge reads the legs run by run, so coordinator peak memory under
//     concurrent large snapshots is bounded by run size × partitions, not
//     snapshot size. A leg dying mid-stream is dropped and reported in
//     the terminating summary frame's partial list — never a truncated
//     merge.
//   - Append lanes: POST /append, a batch or an append stream alike
//     (server.AppendFrames), is routed frame by frame into one lane per
//     partition that sends its slices to the set's primary in order.
//     Every partition answers once per request (a lane that got no slice
//     sends an empty one), and a slice fenced by a reshard at the lane's
//     end is re-routed under its batch ID, so both forms answer alike.
//   - Replica routing: reads spread round-robin across each set's
//     in-sync members with latency-EWMA demotion, retrying the next
//     replica when one fails; appends go to the set's primary, and a
//     dark primary triggers promotion of the most-caught-up follower
//     (internal/replica).
//   - Per-partition timeouts and partial failure: every fan-out leg is
//     bounded by Config.PartitionTimeout; if some (not all) partitions
//     fail, the merged response carries the live partitions' data with
//     the failures named in the wire types' "partial" field.
//
// Concurrency rules: a Coordinator is safe for concurrent use — it is
// immutable after New except for atomics (routing state, counters), the
// mutex-guarded merged-response cache and flight group, and the per-set
// failover mutex that serializes promotions. Every scatter leg runs in
// its own goroutine; nothing blocks on a slow partition beyond its
// timeout.
//
// Endpoints mirror internal/server exactly, so server.Client speaks to a
// coordinator transparently.
package shard
