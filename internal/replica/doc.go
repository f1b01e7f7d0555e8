// Package replica adds durability and replication to a snapshot query
// service: a write-ahead event log that is synced before any append is
// acknowledged, primary/follower replication of that log, and the role
// machinery a coordinator uses to fail over. Operating procedures —
// failover behavior, the manual WAL re-seed for a deposed primary, the
// -sync-followers trade-offs, and the /replstatus field reference — live
// in docs/OPERATIONS.md.
//
// A Node wraps an internal/server.Server:
//
//   - Primary role: POST /append runs a staged pipeline, one loop over
//     the body's frames (server.AppendFrames: a batch is one frame, an
//     append stream many). Admission (one short lock) checks a frame
//     against the admitted clock — a client error can never poison the
//     log — writes it to the WAL as one packed record (replica.Log over
//     kvstore.SeqLog's CRC-checked runs: one payload under as many
//     sequence numbers as the frame has events) without waiting for the
//     sync, and hands the applier a ticket for the records. The loop
//     admits up to StreamWindow frames ahead of their settling. The
//     applier waits for the group commit covering them and applies them
//     in sequence order; the request then acks, after optionally waiting
//     once until Config.SyncFollowers followers have durably logged its
//     last frame. Restart replays the local WAL through the same applier.
//   - Follower role: rejects external appends and tails its primary's
//     WAL over long-poll GET /replicate?from=<seq> (binary pages only;
//     the JSON one a plain curl gets is refused), writing each page
//     to its own WAL (synced) before applying, so its log stays a
//     prefix of the primary's, Record by Record (its runs are cut where
//     its pages were, so not byte by byte), and catch-up after downtime
//     resumes from the last stored sequence.
//   - Either role answers GET /replstatus (role, log head, applied
//     sequence, skipped-record count) and POST /role (promote / follow),
//     which internal/shard's failover drives.
//
// Appends carry idempotency batch IDs persisted with each WAL run, carried
// by every Record read from it and mirrored to followers, so a retry
// after failover or a lost response is acked without double-applying —
// including resuming a batch the node holds only a prefix of.
//
// Concurrency rules: the local log is the queue and one applier goroutine
// owns the cursor into it (appliedSeq, which never overstates the graph).
// Every writer — live append, stream frame, migration ingest, follower
// mirror — writes its records, registers their batch span, and hands the
// applier a ticket carrying the events it already decoded; the applier
// uses them when they begin exactly at cursor+1 and reads the log
// otherwise (boot, a follower's backlog, a hole a failed apply left are
// all the same hint-less ticket). Nothing else applies events, so there
// is no apply lock: Node.mu (role, tail loop, follower acks), the
// admission lock (sequence order == admission order) and the dedup-table
// lock are the node's locks. The Log group-commits fsyncs through a
// single flusher goroutine, so concurrent appenders share each sync;
// Log.Read and Wait never return records beyond the durable watermark. A
// Node and a Log are each safe for concurrent use.
package replica
