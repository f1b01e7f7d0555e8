// Package replica makes a snapshot-serving deployment survive the
// failures a heavy-traffic cluster actually sees. Three mechanisms,
// stacked:
//
//   - Durable write-ahead log: every event batch is appended to a
//     sequenced, CRC-checked on-disk log (kvstore.SeqLog over the
//     FileStore append-only format) and synced before the append is
//     acked, so a process restart replays the log and loses nothing that
//     was ever acknowledged. A torn tail from a crash mid-write is
//     detected by the CRC on reopen and dropped. Syncs are group-committed:
//     a single flusher goroutine runs one fsync covering every append in
//     flight, so concurrent appenders share the durability tax instead of
//     each paying their own.
//
//   - Primary/follower replication: a partition becomes a replica set —
//     one primary that accepts appends plus N followers that tail the
//     primary's WAL over GET /replicate?from=<seq> (long-poll) and apply
//     events in order, each into its own WAL first. Sequence numbers make
//     catch-up trivial: a follower that was down resumes from its last
//     applied sequence. With SyncFollowers >= 1 the primary delays the
//     append ack until that many followers have durably logged the batch,
//     so promoting the most-caught-up follower after a primary failure
//     loses no acked event.
//
//   - Role switching: POST /role promotes a follower to primary (the
//     shard coordinator does this when a primary goes dark) or points a
//     follower at a new primary.
//
// A Node wraps an ordinary internal/server.Server: reads pass straight
// through (coalescing and the hot-snapshot cache keep working), appends
// gain the WAL hook, and three control endpoints are added. The shard
// coordinator (internal/shard) stacks replica sets into a sharded cluster
// with failover.
package replica

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"historygraph"
	"historygraph/internal/kvstore"
	"historygraph/internal/metrics"
	"historygraph/internal/wire"
)

// Record is one WAL entry: a single event under its sequence number.
// Appending a batch of k events produces k consecutive records covered by
// one group-committed sync, so durability is paid at most once per batch
// — less under concurrency. Batch, when set, is the append's idempotency
// ID: every record of the batch carries it, it survives in the on-disk
// payload, and it replicates with the record — so both a restarted node
// and a promoted follower can recognize a retried batch they already hold
// (Node's dedup table).
type Record struct {
	Seq   uint64             `json:"seq"`
	Event historygraph.Event `json:"event"`
	Batch string             `json:"batch,omitempty"`
}

// walBinaryMarker is the first byte of a record payload: the batch ID and
// the event follow in the wire package's binary event encoding. Payloads
// written before that format are the event's JSON object with the
// optional batch ID flattened into it; they start with '{', so one byte
// disambiguates and such WAL directories replay unchanged.
const walBinaryMarker = 0x00

// appendPayload renders a record body onto e.
func appendPayload(e *wire.Encoder, ev historygraph.Event, batch string) {
	e.Byte(walBinaryMarker)
	e.String(batch)
	wire.EncodeEventTo(e, ev)
}

// decodePayload reads either payload format.
func decodePayload(payload []byte) (ev historygraph.Event, batch string, err error) {
	if len(payload) == 0 {
		return ev, "", fmt.Errorf("replica: empty WAL payload")
	}
	if payload[0] == '{' {
		var tag struct {
			Batch string `json:"batch"`
		}
		if err = json.Unmarshal(payload, &ev); err == nil {
			err = json.Unmarshal(payload, &tag)
		}
		return ev, tag.Batch, err
	}
	d := wire.NewDecoder(payload)
	if d.Byte() != walBinaryMarker {
		return ev, "", fmt.Errorf("replica: unknown WAL payload format (leading byte 0x%02x)", payload[0])
	}
	batch = d.String()
	ev = wire.DecodeEventFrom(d)
	return ev, batch, d.Err()
}

// errLogClosed is returned to appenders caught by Close.
var errLogClosed = errors.New("replica: WAL closed")

// Log is the durable write-ahead event log: historygraph events encoded
// onto a kvstore.SeqLog. It is safe for concurrent use. Durability is
// group-committed: appenders enqueue their records and then wait for the
// single flusher goroutine to run a sync covering them, so N concurrent
// appends cost one fsync, not N.
type Log struct {
	sl *kvstore.SeqLog

	mu     sync.Mutex
	notify chan struct{} // closed and replaced on every durable append (tail wake-up)

	flushMu   sync.Mutex
	flushCond *sync.Cond
	want      uint64 // highest written sequence awaiting durability
	synced    uint64 // highest sequence covered by a completed sync
	syncErr   error  // sticky: a failed sync leaves stranded buffered records
	closed    bool
	flushDone chan struct{}

	// metrics is swapped in atomically by SetMetrics so the flusher
	// goroutine — already running since OpenLog — reads it without locks.
	metrics atomic.Pointer[logMetrics]
}

// logMetrics are the WAL's registry collectors.
type logMetrics struct {
	appendDur *metrics.Histogram // durable append wall time (group sync included)
	batchRecs *metrics.Histogram // records covered per group commit
	records   *metrics.Counter   // records durably appended
}

// SetMetrics registers the WAL's collectors on reg and starts feeding
// them: append latency (dg_wal_append_duration_seconds), fsync latency
// (dg_wal_fsync_duration_seconds, via the kvstore sync observer),
// group-commit batch sizes (dg_wal_commit_batch_records), and the record
// counter (dg_wal_records_total). Registration is idempotent per
// registry; call it once after OpenLog, before serving.
func (l *Log) SetMetrics(reg *metrics.Registry) {
	fsyncDur := reg.Histogram("dg_wal_fsync_duration_seconds", "WAL group-commit sync wall time (buffer flush plus fsync).", nil)
	l.sl.SetSyncObserver(func(d time.Duration) { fsyncDur.Observe(d.Seconds()) })
	l.metrics.Store(&logMetrics{
		appendDur: reg.Histogram("dg_wal_append_duration_seconds", "Durable WAL append wall time, covering group sync.", nil),
		batchRecs: reg.Histogram("dg_wal_commit_batch_records", "Records covered by one WAL group commit.", metrics.SizeBuckets),
		records:   reg.Counter("dg_wal_records_total", "Records durably appended to the WAL."),
	})
}

// OpenLog opens or creates the WAL at path, recovering the sequence bound
// (and dropping any torn tail) via the underlying store's CRC scan.
func OpenLog(path string) (*Log, error) {
	sl, err := kvstore.OpenSeqLog(path, kvstore.FileOptions{})
	if err != nil {
		return nil, err
	}
	l := &Log{
		sl:        sl,
		notify:    make(chan struct{}),
		flushDone: make(chan struct{}),
	}
	l.flushCond = sync.NewCond(&l.flushMu)
	l.want, l.synced = sl.Last(), sl.Last() // everything recovered is durable
	go l.flusher()
	return l, nil
}

// flusher is the single group-commit goroutine: whenever records are
// written past the synced watermark it runs one Sync covering all of
// them, then wakes every appender the sync covered. It exits on Close or
// on the first sync failure (after which the log is permanently failed —
// buffered records of unknown durability must not be acked).
func (l *Log) flusher() {
	defer close(l.flushDone)
	for {
		l.flushMu.Lock()
		for !l.closed && l.want <= l.synced && l.syncErr == nil {
			l.flushCond.Wait()
		}
		if l.closed || l.syncErr != nil {
			l.flushMu.Unlock()
			return
		}
		// Everything at or below want was fully written before the waiters
		// arrived, so one Sync covers the whole group; records written
		// while the Sync runs are picked up by the next round.
		target := l.want
		covered := target - l.synced
		l.flushMu.Unlock()
		err := l.sl.Sync()
		if m := l.metrics.Load(); m != nil && err == nil {
			m.batchRecs.Observe(float64(covered))
			m.records.Add(int64(covered))
		}
		l.flushMu.Lock()
		if err != nil {
			l.syncErr = err
		} else if target > l.synced {
			l.synced = target
		}
		l.flushCond.Broadcast()
		l.flushMu.Unlock()
		if err == nil {
			// Wake /replicate long-pollers here, once per group commit,
			// so a pipelined appender that has not yet reached its own
			// WaitDurable never delays follower tailing.
			l.wake()
		}
	}
}

// WaitDurable blocks until a completed sync covers seq (joining whatever
// group commit is in flight), the log fails, or it is closed. It is the
// second half of a StartAppend: the append pipeline writes records in
// admission order and pays the durability wait later, off the admission
// lock, so many in-flight batches share one group commit.
func (l *Log) WaitDurable(seq uint64) error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	if seq > l.want {
		l.want = seq
		l.flushCond.Broadcast() // wake the flusher
	}
	for l.synced < seq && l.syncErr == nil && !l.closed {
		l.flushCond.Wait()
	}
	if l.synced >= seq {
		return nil
	}
	if l.syncErr != nil {
		return l.syncErr
	}
	return errLogClosed
}

// DurableSeq returns the highest sequence number a completed sync covers
// — the log's logical end: everything at or below it survives a crash.
func (l *Log) DurableSeq() uint64 {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	return l.synced
}

// Append logs a batch of events as consecutive records and waits for the
// covering group sync. When it returns, every event in the batch is
// durable; first and last bound the assigned sequence numbers (first >
// last means the batch was empty).
func (l *Log) Append(events historygraph.EventList) (first, last uint64, err error) {
	return l.AppendBatch(events, "")
}

// AppendBatch is Append tagging every record with the batch's idempotency
// ID (empty for untagged appends): a StartAppend followed by the durable
// wait.
func (l *Log) AppendBatch(events historygraph.EventList, batch string) (first, last uint64, err error) {
	start := time.Now()
	if first, last, err = l.StartAppend(events, batch); err != nil {
		return 0, 0, err
	}
	if last < first {
		return first, last, nil // empty batch: nothing to sync
	}
	if err := l.WaitDurable(last); err != nil {
		return 0, 0, err
	}
	if m := l.metrics.Load(); m != nil {
		m.appendDur.Observe(time.Since(start).Seconds())
	}
	return first, last, nil
}

// StartAppend writes a batch's records under the write lock and returns
// their sequence bounds WITHOUT waiting for the covering group sync
// (first > last means the batch was empty). The records are not durable —
// and not visible to LastSeq, Read, or followers — until a sync covers
// them; call WaitDurable(last) before acking anything. One encoder is
// reused across the batch (the store copies each payload into its file
// buffer before Append returns), Reset between records so every payload
// stays independently decodable — the encode itself cannot fail, so a bad
// batch never strands a prefix of records in the log.
func (l *Log) StartAppend(events historygraph.EventList, batch string) (first, last uint64, err error) {
	enc := wire.NewEncoder()
	l.mu.Lock()
	first = l.sl.Last() + 1
	if len(events) == 0 {
		l.mu.Unlock()
		return first, first - 1, nil
	}
	for _, ev := range events {
		enc.Reset()
		appendPayload(enc, ev, batch)
		if last, err = l.sl.Append(enc.Bytes()); err != nil {
			l.mu.Unlock()
			return 0, 0, err
		}
	}
	l.mu.Unlock()
	// Offer the batch to the flusher immediately rather than when the
	// caller reaches WaitDurable: in the pipelined path the applier waits
	// batch by batch, and if `want` trailed it, each group commit would
	// cover exactly one batch — serial fsyncs again. Raising it here lets
	// one sync cover every batch admitted while the previous sync ran.
	l.flushMu.Lock()
	if last > l.want {
		l.want = last
		l.flushCond.Broadcast()
	}
	l.flushMu.Unlock()
	return first, last, nil
}

// ObserveAppend feeds the append-duration histogram for a pipelined
// append: start is when StartAppend wrote the records, and the caller's
// WaitDurable has just returned — the same span AppendBatch observes for
// the one-shot path.
func (l *Log) ObserveAppend(start time.Time) {
	if m := l.metrics.Load(); m != nil {
		m.appendDur.Observe(time.Since(start).Seconds())
	}
}

// AppendRecords mirrors records fetched from a primary into this log and
// joins the group sync — the follower's durable-before-apply step.
// Records at or below the current sequence bound are skipped (an
// overlapping re-fetch is idempotent); a gap beyond it is an error, since
// the logs would diverge.
func (l *Log) AppendRecords(recs []Record) error {
	start := time.Now()
	enc := wire.NewEncoder()
	l.mu.Lock()
	var last uint64
	appended := false
	for _, rec := range recs {
		if rec.Seq <= l.sl.Last() {
			continue
		}
		enc.Reset()
		appendPayload(enc, rec.Event, rec.Batch)
		var err error
		if last, err = l.sl.AppendAt(rec.Seq, enc.Bytes()); err != nil {
			l.mu.Unlock()
			return err
		}
		appended = true
	}
	l.mu.Unlock()
	if !appended {
		return nil
	}
	if err := l.WaitDurable(last); err != nil {
		return err
	}
	if m := l.metrics.Load(); m != nil {
		m.appendDur.Observe(time.Since(start).Seconds())
	}
	return nil
}

// wake rouses every Wait-er after records became durable. The flusher
// calls it once per completed group commit.
func (l *Log) wake() {
	l.mu.Lock()
	close(l.notify)
	l.notify = make(chan struct{})
	l.mu.Unlock()
}

// LastSeq returns the highest durably logged sequence number (0 when
// empty). Records an in-flight append has written but whose group sync
// has not completed are excluded — they do not exist yet as far as
// replication and status reporting are concerned.
func (l *Log) LastSeq() uint64 { return l.DurableSeq() }

// Read returns up to max records starting at sequence from (inclusive),
// bounded by the durable watermark: a record is never served to a
// follower before the sync that guarantees the primary itself will still
// have it after a crash (otherwise a follower could hold acked state the
// restarted primary lost, and the logs would diverge).
func (l *Log) Read(from uint64, max int) ([]Record, error) {
	if from == 0 {
		from = 1
	}
	last := l.DurableSeq()
	var out []Record
	for seq := from; seq <= last && len(out) < max; seq++ {
		payload, err := l.sl.Get(seq)
		if err != nil {
			return nil, fmt.Errorf("replica: WAL read seq %d: %w", seq, err)
		}
		ev, batch, err := decodePayload(payload)
		if err != nil {
			return nil, fmt.Errorf("replica: corrupt WAL record %d: %w", seq, err)
		}
		out = append(out, Record{Seq: seq, Event: ev, Batch: batch})
	}
	return out, nil
}

// Wait blocks until the durable log grows past seq or the timeout
// elapses; it reports whether durable records past seq exist. GET
// /replicate long-polls through it so followers tail with one round-trip
// per batch.
func (l *Log) Wait(seq uint64, timeout time.Duration) bool {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		l.mu.Lock()
		ch := l.notify
		l.mu.Unlock()
		if l.DurableSeq() > seq {
			return true
		}
		select {
		case <-ch:
		case <-deadline.C:
			return l.DurableSeq() > seq
		}
	}
}

// SizeOnDisk returns the WAL's file footprint in bytes.
func (l *Log) SizeOnDisk() int64 { return l.sl.SizeOnDisk() }

// Reset discards every record and rewinds the sequence to 0 — the
// truncate half of the automated truncate-and-resync path a diverged
// follower takes before re-mirroring the primary's history. The caller
// must have quiesced the node first (no appends in flight): a pending
// group commit is refused rather than raced.
func (l *Log) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	if l.closed {
		return errLogClosed
	}
	if l.syncErr != nil {
		return l.syncErr
	}
	if l.want != l.synced {
		return fmt.Errorf("replica: WAL reset with %d records awaiting sync", l.want-l.synced)
	}
	if err := l.sl.Reset(); err != nil {
		return err
	}
	l.want, l.synced = 0, 0
	return nil
}

// Close stops the flusher (failing any appender still waiting on a sync)
// and releases the underlying file.
func (l *Log) Close() error {
	l.flushMu.Lock()
	alreadyClosed := l.closed
	l.closed = true
	l.flushCond.Broadcast()
	l.flushMu.Unlock()
	if !alreadyClosed {
		<-l.flushDone
	}
	return l.sl.Close()
}
