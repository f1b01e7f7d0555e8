// Package kvstore provides the persistent key-value storage substrate
// the DeltaGraph index is stored in. The paper's prototype used Kyoto
// Cabinet and notes that "since we only require a simple get/put
// interface from the storage engine, we can easily plug in other ...
// key-value stores"; this package supplies that interface plus the
// implementations:
//
//   - MemStore:    in-memory map, for tests and ephemeral indexes.
//   - FileStore:   disk-based append-only log with CRC-checked records,
//     every value flate-compressed where that shrinks it (Kyoto Cabinet's
//     role), and an in-memory key index rebuilt on open. A record
//     half-written at a crash fails its CRC on reopen and is dropped — the
//     torn tail never corrupts earlier data.
//   - Partitioned: horizontal composition of k stores, one per storage
//     "machine", routed by the partition prefix of the key — the same
//     hash space internal/shard splits the serving layer by.
//   - SeqLog:      contiguous sequence numbers layered on FileStore's
//     format, a record being a run: one payload under n of them — the
//     substrate internal/replica's write-ahead log is built on (a batch
//     is one run; recovery reads the keys and checks that they tile
//     1..max). It keeps its own run index and leaves FileStore's empty,
//     and stores its payloads raw.
//
// Concurrency rules: every Store implementation is safe for concurrent
// use. FileStore compresses a value before it takes its mutex and inflates
// one after it lets go, so concurrent Gets inflate in parallel; it
// serializes writes under the mutex but runs Sync's
// fsync *outside* the store lock, so writers overlap a sync in flight —
// the property replica.Log's group commit batches on. SeqLog appends
// take that same mutex, a run at a time; its reads are concurrent-safe.
package kvstore
