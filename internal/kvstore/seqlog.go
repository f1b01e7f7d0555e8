package kvstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// SeqLog is a durable sequenced record stream layered on FileStore's
// CRC-checked append-only format. Sequence numbers are contiguous uint64s
// starting at 1, and a stored record is a run: one payload under n
// consecutive sequence numbers, whose meaning (n events packed together, in
// internal/replica) is the caller's. A record's key is the run's first
// sequence number, 8 bytes big-endian, followed by uvarint(n-1) when n > 1
// — so a run of one is keyed by its sequence number alone, as every record
// was before there were runs, and a log written then opens unchanged.
//
// It is the storage substrate of the replication write-ahead log:
// FileStore's recovery already drops a torn or corrupt tail on open, so
// every run synced before a crash replays whole and nothing after the tear
// does. The runs' locations are kept in append order, which is sequence
// order, and found by binary search; FileStore's key index stays empty.
//
// A SeqLog is safe for concurrent use.
type SeqLog struct {
	fs   *FileStore
	last atomic.Uint64
	runs []run // guarded by fs.mu
}

// run locates one stored record: sequence numbers first..first+n-1.
type run struct {
	first uint64
	n     uint32
	loc   recordLoc
}

// OpenSeqLog opens or creates the sequenced log at path and recovers the
// highest stored sequence number from the record keys alone: in file order
// the runs must tile 1..max with no gap and no overlap (records are only
// ever appended, never deleted).
func OpenSeqLog(path string, _ FileOptions) (*SeqLog, error) {
	l := &SeqLog{}
	var bad error
	fs, err := openFileStore(path, func(_ *FileStore, key string, loc recordLoc, tombstone bool) {
		if bad != nil {
			return
		}
		first, n, ok := parseRunKey(key)
		if last := l.last.Load(); !ok || tombstone || loc.compressed {
			bad = fmt.Errorf("record %d is not a run", len(l.runs)+1)
		} else if first != last+1 {
			bad = fmt.Errorf("record %d holds %d sequence numbers from %d, after %d", len(l.runs)+1, n, first, last)
		} else {
			l.runs = append(l.runs, run{first: first, n: uint32(n), loc: loc})
			l.last.Store(last + n)
		}
	})
	if err != nil {
		return nil, err
	}
	if bad != nil {
		fs.Close()
		return nil, fmt.Errorf("kvstore: %s is not a contiguous sequenced log: %v", path, bad)
	}
	l.fs = fs
	return l, nil
}

// maxRun bounds the sequence numbers one record may cover.
const maxRun = math.MaxInt32

func runKey(first uint64, n int) []byte {
	key := binary.BigEndian.AppendUint64(make([]byte, 0, 8+binary.MaxVarintLen32), first)
	if n > 1 {
		key = binary.AppendUvarint(key, uint64(n-1))
	}
	return key
}

// parseRunKey is runKey's inverse.
func parseRunKey(key string) (first, n uint64, ok bool) {
	if len(key) < 8 {
		return 0, 0, false
	}
	first, n = binary.BigEndian.Uint64([]byte(key[:8])), 1
	if len(key) > 8 {
		more, w := binary.Uvarint([]byte(key[8:]))
		if w != len(key)-8 || more == 0 || more >= maxRun {
			return 0, 0, false
		}
		n += more
	}
	return first, n, true
}

// Append stores payload under the next sequence number and returns it.
// The record is buffered; call Sync to make it durable.
func (l *SeqLog) Append(payload []byte) (uint64, error) {
	_, last, err := l.AppendRun(1, payload)
	return last, err
}

// AppendRun stores payload as one record under the next n sequence numbers
// and returns the first and last of them. The record is written whole or,
// after a crash before the next Sync, not at all.
func (l *SeqLog) AppendRun(n int, payload []byte) (first, last uint64, err error) {
	l.fs.mu.Lock()
	defer l.fs.mu.Unlock()
	first = l.last.Load() + 1
	last, err = l.appendLocked(first, n, payload)
	return first, last, err
}

// AppendRunAt is AppendRun at explicit sequence numbers, which must begin
// exactly at Last()+1 — a replication follower mirroring a primary's log
// uses this so that a gap or an overlap is an error here and never a
// record in the file.
func (l *SeqLog) AppendRunAt(first uint64, n int, payload []byte) (last uint64, err error) {
	l.fs.mu.Lock()
	defer l.fs.mu.Unlock()
	if want := l.last.Load() + 1; first != want {
		return 0, fmt.Errorf("kvstore: sequence gap: appending %d, want %d", first, want)
	}
	return l.appendLocked(first, n, payload)
}

// appendLocked writes one run; the caller holds the store's write lock and
// has validated first.
func (l *SeqLog) appendLocked(first uint64, n int, payload []byte) (uint64, error) {
	if n < 1 || n > maxRun {
		return 0, fmt.Errorf("kvstore: a record cannot hold %d sequence numbers", n)
	}
	loc, err := l.fs.appendRecord(runKey(first, n), payload, 0)
	if err != nil {
		return 0, err
	}
	l.runs = append(l.runs, run{first: first, n: uint32(n), loc: loc})
	last := first + uint64(n) - 1
	l.last.Store(last)
	return last, nil
}

// Run returns the record that covers seq — its payload, the first sequence
// number it was stored under and how many — or ErrNotFound.
func (l *SeqLog) Run(seq uint64) (first uint64, n int, payload []byte, err error) {
	if err := l.fs.rlockFlushed(); err != nil {
		return 0, 0, nil, err
	}
	var r run // the last one that begins at or before seq
	if i := sort.Search(len(l.runs), func(i int) bool { return l.runs[i].first > seq }); i > 0 {
		r = l.runs[i-1]
	}
	l.fs.mu.RUnlock()
	if seq-r.first >= uint64(r.n) {
		return 0, 0, nil, ErrNotFound
	}
	payload, err = l.fs.readValue(r.loc)
	return r.first, int(r.n), payload, err
}

// Last returns the highest stored sequence number (0 when empty).
func (l *SeqLog) Last() uint64 { return l.last.Load() }

// Sync flushes buffered records to stable storage. An appended record is
// guaranteed to survive a crash only after Sync returns.
func (l *SeqLog) Sync() error { return l.fs.Sync() }

// SetSyncObserver forwards to the underlying FileStore's sync observer
// (see FileStore.SetSyncObserver).
func (l *SeqLog) SetSyncObserver(fn func(time.Duration)) { l.fs.SetSyncObserver(fn) }

// SizeOnDisk returns the log's backing file footprint in bytes.
func (l *SeqLog) SizeOnDisk() int64 { return l.fs.SizeOnDisk() }

// Reset discards every record and rewinds the sequence to 0 (the next
// Append stores seq 1). The replica truncate-and-resync path uses it to
// drop a diverged log before re-mirroring the authoritative history.
func (l *SeqLog) Reset() error {
	l.fs.mu.Lock()
	defer l.fs.mu.Unlock()
	if err := l.fs.resetLocked(); err != nil {
		return err
	}
	l.runs = nil
	l.last.Store(0)
	return nil
}

// Close releases the underlying file. The log must not be used afterwards.
func (l *SeqLog) Close() error { return l.fs.Close() }
