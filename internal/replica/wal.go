package replica

import (
	"bytes"
	"compress/lzw"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"historygraph"
	"historygraph/internal/delta"
	"historygraph/internal/kvstore"
	"historygraph/internal/metrics"
	"historygraph/internal/wire"
)

// Record is one logical WAL entry: a single event under its sequence
// number — the unit of LastSeq, of /replicate pages and of the applier's
// cursor; on disk the events of one batch share one run (see Log). Batch,
// when set, is the append's idempotency ID: every record of the batch
// carries it, through the on-disk payload and through replication, so a
// restarted node and a promoted follower both recognize a retried batch
// they already hold (Node's dedup table).
type Record struct {
	Seq   uint64             `json:"seq"`
	Event historygraph.Event `json:"event"`
	Batch string             `json:"batch,omitempty"`
}

// The first byte of a stored payload names its format. A run is the batch
// ID once, then the run's events as the index stores an eventlist
// (delta.EncodeEvents). walLZWMarker is the form written: uvarint(n), then
// that run LZW-compressed (LSB first, 8-bit literals) from n bytes.
// walRunMarker, the run as it is, is written when compression would not
// make it smaller. walEventMarker, one event in the wire encoding, is what
// builds wrote before a batch was packed into one run; it still replays.
const (
	walEventMarker = 0x00
	walRunMarker   = 0x01
	walLZWMarker   = 0x02
)

// maxRunInflation caps a compressed run's declared length at this many
// times its stored payload, so that no record inflates out of proportion
// to its bytes. The runs of real batches shrink about 1.85 times, at most
// 2.11 (TestGoldenWALBytes); one attribute set 1 024 times shrinks 20
// times, and such a run is stored as it is.
const maxRunInflation = 16

// encodeRun renders the payload of one run: compressed when that is
// smaller, as it is otherwise.
func encodeRun(events historygraph.EventList, batch string) []byte {
	raw := rawRun(events, batch)
	if p := compressRun(raw[1:]); len(p) < len(raw) && len(raw)-1 <= maxRunInflation*len(p) {
		return p
	}
	return raw
}

// rawRun is the walRunMarker payload of a run.
func rawRun(events historygraph.EventList, batch string) []byte {
	body := delta.EncodeEvents(events)
	raw := make([]byte, 0, 1+binary.MaxVarintLen32+len(batch)+len(body))
	raw = binary.AppendUvarint(append(raw, walRunMarker), uint64(len(batch)))
	return append(append(raw, batch...), body...)
}

// decodeRun reads a payload of any format.
func decodeRun(payload []byte) (events historygraph.EventList, batch string, err error) {
	switch {
	case len(payload) == 0:
		return nil, "", fmt.Errorf("replica: empty WAL payload")
	case payload[0] == walRunMarker:
		return decodeRunTail(payload[1:])
	case payload[0] == walLZWMarker:
		n, w := binary.Uvarint(payload[1:])
		if w <= 0 || n > maxRunInflation*uint64(len(payload)) {
			return nil, "", fmt.Errorf("replica: compressed WAL payload of %d bytes declares %d", len(payload), n)
		}
		tail, err := inflateRun(payload[1+w:], int(n))
		if err != nil {
			return nil, "", err
		}
		return decodeRunTail(tail)
	case payload[0] == walEventMarker:
		d := wire.NewDecoder(payload[1:])
		batch = d.String()
		return historygraph.EventList{wire.DecodeEventFrom(d)}, batch, d.Err()
	case payload[0] == '{':
		return nil, "", fmt.Errorf("replica: WAL payload is a JSON record, a format this build no longer reads: re-seed the node from its replica set, or replay the log once with a build that writes single-event 0x00 records, which read JSON records too")
	}
	return nil, "", fmt.Errorf("replica: unknown WAL payload format (leading byte 0x%02x)", payload[0])
}

// decodeRunTail reads a run after its marker: the batch ID, then the events.
func decodeRunTail(tail []byte) (events historygraph.EventList, batch string, err error) {
	n, w := binary.Uvarint(tail)
	if w <= 0 || n > uint64(len(tail)-w) {
		return nil, "", fmt.Errorf("replica: corrupt batch ID in a WAL payload")
	}
	body := tail[w:]
	events, err = delta.DecodeEvents(nil, body[n:])
	return events, string(body[:n]), err
}

// The LZW writer and reader are pooled: the writer's 64 KB hash table (the
// reader's tables are 20 KB) would otherwise be allocated for every run.
var (
	lzwWriters = sync.Pool{New: func() any { return new(lzwOut) }}
	lzwReaders = sync.Pool{New: func() any { return new(lzwIn) }}
)

// lzwOut is a pooled writer and the slice it writes to, which has
// WriteByte and Flush so that a Reset does not wrap it in a bufio.Writer.
type lzwOut struct {
	zw  lzw.Writer
	out []byte
}

func (o *lzwOut) Write(p []byte) (int, error) { o.out = append(o.out, p...); return len(p), nil }
func (o *lzwOut) WriteByte(c byte) error      { o.out = append(o.out, c); return nil }
func (o *lzwOut) Flush() error                { return nil }

// compressRun returns the walLZWMarker payload of a run's tail.
func compressRun(tail []byte) []byte {
	o := lzwWriters.Get().(*lzwOut)
	o.out = binary.AppendUvarint(append(make([]byte, 0, 1+len(tail)), walLZWMarker), uint64(len(tail)))
	o.zw.Reset(o, lzw.LSB, 8)
	_, _ = o.zw.Write(tail) // the output is a slice, so neither call can fail
	_ = o.zw.Close()
	p := o.out
	o.out = nil
	lzwWriters.Put(o)
	return p
}

// lzwIn is a pooled reader and the stream it reads.
type lzwIn struct {
	zr  lzw.Reader
	src bytes.Reader
}

// inflateRun decompresses a run's tail, refusing a stream that is
// truncated, is followed by anything, or does not come to exactly n bytes;
// it reads no more than n+1.
func inflateRun(stream []byte, n int) ([]byte, error) {
	in := lzwReaders.Get().(*lzwIn)
	in.src.Reset(stream)
	in.zr.Reset(&in.src, lzw.LSB, 8)
	tail := make([]byte, n+1)
	got, err := 0, error(nil)
	for err == nil && got < len(tail) {
		var k int
		k, err = in.zr.Read(tail[got:])
		got += k
	}
	trailing := in.src.Len()
	in.src.Reset(nil)
	lzwReaders.Put(in)
	switch {
	case err != nil && err != io.EOF:
		return nil, fmt.Errorf("replica: corrupt compressed WAL payload: %w", err)
	case err == nil || got != n || trailing != 0:
		return nil, fmt.Errorf("replica: compressed WAL payload declares %d bytes and does not hold them", n)
	}
	return tail[:n], nil
}

// errLogClosed is returned to appenders caught by Close.
var errLogClosed = errors.New("replica: WAL closed")

// Log is the durable write-ahead event log: historygraph events encoded
// onto a kvstore.SeqLog. Its sequence numbers count events, one Record
// each, but it stores runs: an admitted batch — on a follower, a stretch
// of mirrored records sharing a batch ID — is one SeqLog record under as
// many sequence numbers as it has events, on disk whole or not at all. It
// is safe for concurrent use. Durability is group-committed: appenders
// write their runs and then wait for the single flusher goroutine to run
// a sync covering them, so N concurrent appends cost one fsync, not N.
type Log struct {
	sl *kvstore.SeqLog

	mu     sync.Mutex
	notify chan struct{} // closed and replaced on every durable append (tail wake-up)

	lastRun atomic.Pointer[decodedRun] // the run Read decoded last
	resets  atomic.Uint64              // Resets so far: a run decoded before one is not this log's

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

// AppendBatch logs a batch of events under its idempotency ID (empty for
// an untagged append) and waits for the covering group sync: a StartAppend
// followed by the durable wait. When it returns, every event in the batch
// is durable; first and last bound the assigned sequence numbers (first >
// last means the batch was empty).
func (l *Log) AppendBatch(events historygraph.EventList, batch string) (first, last uint64, err error) {
	start := time.Now()
	if first, last, err = l.StartAppend(events, batch); err != nil || last < first {
		return first, last, err // failed, or an empty batch: nothing to sync
	}
	if err := l.WaitDurable(last); err != nil {
		return 0, 0, err
	}
	l.ObserveAppend(start)
	return first, last, nil
}

// StartAppend writes a batch as one run and returns its sequence bounds
// WITHOUT waiting for the covering group sync (first > last means the
// batch was empty). The records are not durable — and not visible to
// LastSeq, Read, or followers — until a sync covers them; call
// WaitDurable(last) before acking anything. The payload is encoded before
// the write lock, which covers sequence assignment and one buffered
// write; a failed write strands no prefix of the batch in the log.
func (l *Log) StartAppend(events historygraph.EventList, batch string) (first, last uint64, err error) {
	if len(events) == 0 {
		first = l.sl.Last() + 1
		return first, first - 1, nil
	}
	payload := encodeRun(events, batch)
	l.mu.Lock()
	first, last, err = l.sl.AppendRun(len(events), payload)
	l.mu.Unlock()
	if err != nil {
		return 0, 0, err
	}
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

// ObserveAppend feeds the append-duration histogram: start is when the
// records were written, and the WaitDurable covering them has just returned.
func (l *Log) ObserveAppend(start time.Time) {
	if m := l.metrics.Load(); m != nil {
		m.appendDur.Observe(time.Since(start).Seconds())
	}
}

// AppendRecords mirrors records fetched from a primary into this log and
// joins the group sync — the follower's durable-before-apply step. Each
// stretch of consecutive records with one batch ID becomes one run, so
// the file cuts runs where the fetched pages did: the two logs are equal
// Record by Record, not byte by byte. Records at or below the current
// sequence bound are skipped (an overlapping re-fetch is idempotent); a
// gap beyond it is an error, since the logs would diverge.
func (l *Log) AppendRecords(recs []Record) (err error) {
	start := time.Now()
	for len(recs) > 0 && recs[0].Seq <= l.sl.Last() {
		recs = recs[1:]
	}
	var last uint64
	for len(recs) > 0 {
		n := 1
		for n < len(recs) && recs[n].Batch == recs[0].Batch && recs[n].Seq == recs[0].Seq+uint64(n) {
			n++
		}
		events := make(historygraph.EventList, n)
		for i := range events {
			events[i] = recs[i].Event
		}
		payload := encodeRun(events, recs[0].Batch)
		l.mu.Lock()
		last, err = l.sl.AppendRunAt(recs[0].Seq, n, payload)
		l.mu.Unlock()
		if err != nil {
			return err
		}
		recs = recs[n:]
	}
	if last == 0 {
		return nil
	}
	if err = l.WaitDurable(last); err == nil {
		l.ObserveAppend(start)
	}
	return err
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
// restarted primary lost, and the logs would diverge). A page may begin
// and end anywhere in a run; each run it touches is decoded once.
func (l *Log) Read(from uint64, max int) ([]Record, error) {
	if from == 0 {
		from = 1
	}
	last := l.DurableSeq()
	if from > last || max <= 0 {
		return nil, nil
	}
	out := make([]Record, 0, min(uint64(max), last-from+1))
	for seq := from; seq <= last && len(out) < max; {
		r, err := l.run(seq)
		if err != nil {
			return nil, err
		}
		for _, ev := range r.events[seq-r.first:] {
			if seq > last || len(out) == max {
				break
			}
			out = append(out, Record{Seq: seq, Event: ev, Batch: r.batch})
			seq++
		}
	}
	return out, nil
}

// decodedRun is a stored run decoded, events[i] being record first+i, as
// the log stood after `resets` resets.
type decodedRun struct {
	first  uint64
	events historygraph.EventList
	batch  string
	resets uint64
}

// run returns the decoded run covering seq and keeps it: a reader paging
// in steps smaller than a run (a follower at a small FetchMax, the lineage
// handshake's Read(last, 1)) decodes it once, not once a page.
func (l *Log) run(seq uint64) (*decodedRun, error) {
	resets := l.resets.Load()
	if r := l.lastRun.Load(); r != nil && r.resets == resets && seq >= r.first && seq-r.first < uint64(len(r.events)) {
		return r, nil
	}
	first, n, payload, err := l.sl.Run(seq)
	if err != nil {
		return nil, fmt.Errorf("replica: WAL read seq %d: %w", seq, err)
	}
	events, batch, err := decodeRun(payload)
	if err == nil && len(events) != n {
		err = fmt.Errorf("%d events stored under %d sequence numbers", len(events), n)
	}
	if err != nil {
		return nil, fmt.Errorf("replica: corrupt WAL record %d: %w", first, err)
	}
	r := &decodedRun{first: first, events: events, batch: batch, resets: resets}
	l.lastRun.Store(r)
	return r, nil
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
	l.resets.Add(1)
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
