package kvstore

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// FileStore is a disk-based Store: an append-only log of CRC-checked
// records with an in-memory index from key to value location. It plays the
// role Kyoto Cabinet played in the paper's prototype: a persistent,
// compressed, fast get/put engine.
//
// Record layout (all integers little-endian or uvarint):
//
//	uvarint keyLen | uvarint storedValLen | byte flags | key | val | uint32 crc
//
// flags bit 0 = tombstone, bit 1 = value is flate-compressed. Put compresses
// every value of at least minCompress bytes and stores the result where it is
// smaller; a log may hold both kinds, and every build since the first reads
// both. The CRC covers everything before it. On open the log is scanned to
// rebuild the index; a torn or corrupt tail (e.g. after a crash) is detected
// by the CRC and ignored, so every previously synced record remains readable.
type FileStore struct {
	mu       sync.RWMutex
	f        *os.File
	w        *bufio.Writer
	off      int64 // next append offset
	dirty    bool  // buffered records not yet flushed
	index    map[string]recordLoc
	liveKeys int

	syncObs atomic.Pointer[func(time.Duration)]
}

// SetSyncObserver registers fn to be called with the wall time of every
// Sync call (buffer flush plus fsync). The replication WAL layers its
// fsync-latency metrics on this hook, keeping kvstore itself
// metrics-agnostic. Pass nil to remove the observer. Safe to call
// concurrently with Sync.
func (s *FileStore) SetSyncObserver(fn func(time.Duration)) {
	if fn == nil {
		s.syncObs.Store(nil)
		return
	}
	s.syncObs.Store(&fn)
}

type recordLoc struct {
	valOff     int64
	valLen     int32
	compressed bool
}

// FileOptions configures a FileStore. It has no fields: compression is always
// on, as Kyoto Cabinet's was for the paper's Dataset 3 index.
type FileOptions struct{}

// minCompress is the smallest value Put tries to compress.
const minCompress = 64

// The flate state is pooled between calls: a writer costs about 1.2 MB to
// make and a reader some 40 kB. A sync.Pool lets two collections empty it, so
// a store at rest keeps none of that live.
var (
	flateWriters = sync.Pool{New: func() any {
		fw, _ := flate.NewWriter(nil, flate.BestSpeed) // a valid level never errs
		return fw
	}}
	flateReaders = sync.Pool{New: func() any { return flate.NewReader(bytes.NewReader(nil)) }}
)

const fileMagic = "HGKV1\n"

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// OpenFileStore opens or creates the log at path and rebuilds the key index
// by scanning it.
func OpenFileStore(path string, _ FileOptions) (*FileStore, error) {
	return openFileStore(path, (*FileStore).indexRecord)
}

// openFileStore opens or creates the log at path and hands visit every
// intact record in file order; what to remember of them is the caller's
// (FileStore keeps a key index, SeqLog its runs).
func openFileStore(path string, visit func(s *FileStore, key string, loc recordLoc, tombstone bool)) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	s := &FileStore{
		f:     f,
		index: make(map[string]recordLoc),
	}
	if err := s.recover(visit); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(s.off, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	s.w = bufio.NewWriterSize(f, 1<<16)
	return s, nil
}

// indexRecord replays one recovered record into the key index.
func (s *FileStore) indexRecord(key string, loc recordLoc, tombstone bool) {
	_, live := s.index[key]
	switch {
	case tombstone && live:
		delete(s.index, key)
		s.liveKeys--
	case !tombstone:
		if !live {
			s.liveKeys++
		}
		s.index[key] = loc
	}
}

// recover scans the log, handing each record to visit and determining the
// append offset. It stops at the first torn or corrupt record.
func (s *FileStore) recover(visit func(s *FileStore, key string, loc recordLoc, tombstone bool)) error {
	info, err := s.f.Stat()
	if err != nil {
		return err
	}
	size := info.Size()
	r := bufio.NewReaderSize(io.NewSectionReader(s.f, 0, size), 1<<16)
	if size == 0 {
		if _, err := s.f.WriteString(fileMagic); err != nil {
			return err
		}
		s.off = int64(len(fileMagic))
		return nil
	}
	magic := make([]byte, len(fileMagic))
	if _, err := io.ReadFull(r, magic); err != nil || string(magic) != fileMagic {
		return fmt.Errorf("kvstore: %s is not a FileStore log", s.f.Name())
	}
	off := int64(len(fileMagic))
	for {
		loc, key, tombstone, next, err := readRecord(r, off)
		if err != nil {
			// Torn/corrupt tail: keep everything before it.
			break
		}
		visit(s, key, loc, tombstone)
		off = next
	}
	s.off = off
	return nil
}

// readRecord parses one record starting at offset off. It returns the value
// location, the key, the tombstone flag and the offset of the next record.
func readRecord(r *bufio.Reader, off int64) (recordLoc, string, bool, int64, error) {
	crc := crc32.New(crcTable)
	tee := io.TeeReader(r, crc)
	br := &byteCountReader{r: tee}
	keyLen, err := binary.ReadUvarint(br)
	if err != nil {
		return recordLoc{}, "", false, 0, err
	}
	valLen, err := binary.ReadUvarint(br)
	if err != nil {
		return recordLoc{}, "", false, 0, err
	}
	if keyLen > 1<<20 || valLen > 1<<31 {
		return recordLoc{}, "", false, 0, fmt.Errorf("kvstore: implausible record header")
	}
	flags, err := br.ReadByte()
	if err != nil {
		return recordLoc{}, "", false, 0, err
	}
	keyBuf := make([]byte, keyLen)
	if _, err := io.ReadFull(br, keyBuf); err != nil {
		return recordLoc{}, "", false, 0, err
	}
	headerLen := br.n // bytes consumed by header + key
	valOff := off + headerLen
	if _, err := io.CopyN(io.Discard, br, int64(valLen)); err != nil {
		return recordLoc{}, "", false, 0, err
	}
	want := crc.Sum32()
	var crcBuf [4]byte
	if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
		return recordLoc{}, "", false, 0, err
	}
	if binary.LittleEndian.Uint32(crcBuf[:]) != want {
		return recordLoc{}, "", false, 0, fmt.Errorf("kvstore: crc mismatch")
	}
	loc := recordLoc{valOff: valOff, valLen: int32(valLen), compressed: flags&2 != 0}
	return loc, string(keyBuf), flags&1 != 0, valOff + int64(valLen) + 4, nil
}

type byteCountReader struct {
	r io.Reader
	n int64
}

func (b *byteCountReader) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *byteCountReader) ReadByte() (byte, error) {
	var one [1]byte
	if _, err := io.ReadFull(b.r, one[:]); err != nil {
		return 0, err
	}
	b.n++
	return one[0], nil
}

// Get implements Store.
func (s *FileStore) Get(key []byte) ([]byte, error) {
	if err := s.rlockFlushed(); err != nil {
		return nil, err
	}
	loc, ok := s.index[string(key)]
	s.mu.RUnlock()
	if !ok {
		return nil, ErrNotFound
	}
	return s.readValue(loc)
}

// rlockFlushed takes the read lock with every appended record in the file,
// where ReadAt can see it. It returns unlocked on error.
func (s *FileStore) rlockFlushed() error {
	s.mu.RLock()
	for s.dirty {
		// Flushing needs the write lock.
		s.mu.RUnlock()
		s.mu.Lock()
		if s.dirty {
			if err := s.w.Flush(); err != nil {
				s.mu.Unlock()
				return err
			}
			s.dirty = false
		}
		s.mu.Unlock()
		s.mu.RLock()
	}
	return nil
}

// readValue reads the value at loc; no lock is needed, records never move.
func (s *FileStore) readValue(loc recordLoc) ([]byte, error) {
	buf := make([]byte, loc.valLen)
	if _, err := s.f.ReadAt(buf, loc.valOff); err != nil {
		return nil, err
	}
	if !loc.compressed {
		return buf, nil
	}
	return inflate(buf)
}

// inflateFactor sizes inflate's first buffer at this many times the stored
// length. The compressed values of a bulk-built index inflate by 1.1 to 3.2:
// structure columns by less than 1.7, node-attribute columns by about 2.4,
// eventlists by up to 3.2. The least whole factor that leaves every one of
// them the bytes.MinRead a last read needs free is 4 (TestInflateFactor), so
// no Get regrows its buffer.
const inflateFactor = 4

// inflate returns the value a compressed record stores as buf.
func inflate(buf []byte) ([]byte, error) {
	fr := flateReaders.Get().(io.ReadCloser)
	defer flateReaders.Put(fr)
	if err := fr.(flate.Resetter).Reset(bytes.NewReader(buf), nil); err != nil {
		return nil, err
	}
	var out bytes.Buffer
	out.Grow(inflateFactor * len(buf))
	if _, err := out.ReadFrom(fr); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// compress returns value flate-compressed, or nil where that is not smaller.
func compress(value []byte) []byte {
	if len(value) < minCompress {
		return nil
	}
	var buf bytes.Buffer
	buf.Grow(len(value))
	fw := flateWriters.Get().(*flate.Writer)
	fw.Reset(&buf)
	fw.Write(value) // a bytes.Buffer takes every write
	fw.Close()
	fw.Reset(nil) // the pool must not keep buf alive
	flateWriters.Put(fw)
	if buf.Len() >= len(value) {
		return nil
	}
	return buf.Bytes()
}

// Put implements Store. The value is compressed before the lock is taken.
func (s *FileStore) Put(key, value []byte) error {
	stored, flags := value, byte(0)
	if c := compress(value); c != nil {
		stored, flags = c, 2
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	loc, err := s.appendRecord(key, stored, flags)
	if err != nil {
		return err
	}
	if _, ok := s.index[string(key)]; !ok {
		s.liveKeys++
	}
	s.index[string(key)] = loc
	return nil
}

// Delete implements Store. A tombstone record is appended so the deletion
// survives reopen.
func (s *FileStore) Delete(key []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[string(key)]; !ok {
		return nil
	}
	if _, err := s.appendRecord(key, nil, 1); err != nil {
		return err
	}
	delete(s.index, string(key))
	s.liveKeys--
	return nil
}

// appendRecord writes one record; the caller holds the write lock.
func (s *FileStore) appendRecord(key, val []byte, flags byte) (recordLoc, error) {
	var hdr [2*binary.MaxVarintLen64 + 1]byte
	n := binary.PutUvarint(hdr[:], uint64(len(key)))
	n += binary.PutUvarint(hdr[n:], uint64(len(val)))
	hdr[n] = flags
	n++

	crc := crc32.New(crcTable)
	crc.Write(hdr[:n])
	crc.Write(key)
	crc.Write(val)
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], crc.Sum32())

	valOff := s.off + int64(n) + int64(len(key))
	for _, part := range [][]byte{hdr[:n], key, val, crcBuf[:]} {
		if _, err := s.w.Write(part); err != nil {
			return recordLoc{}, err
		}
	}
	s.off = valOff + int64(len(val)) + 4
	s.dirty = true
	return recordLoc{valOff: valOff, valLen: int32(len(val)), compressed: flags&2 != 0}, nil
}

// Len implements Store.
func (s *FileStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.liveKeys
}

// SizeOnDisk implements Store.
func (s *FileStore) SizeOnDisk() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.off
}

// Sync implements Store. The buffered writer is flushed under the store
// lock, but the fsync itself runs outside it: flushed bytes are already
// in the kernel, so concurrent appenders may keep writing while the disk
// syncs — which is what lets a group-commit caller (replica.Log's single
// flusher) overlap one batch's durability wait with the next batch's
// writes. Records appended after the flush are not covered by this call;
// callers track their own durable watermark.
func (s *FileStore) Sync() error {
	start := time.Now()
	s.mu.Lock()
	if err := s.w.Flush(); err != nil {
		s.mu.Unlock()
		return err
	}
	s.dirty = false
	f := s.f
	s.mu.Unlock()
	err := f.Sync()
	if obs := s.syncObs.Load(); obs != nil {
		(*obs)(time.Since(start))
	}
	return err
}

// Reset truncates the log to empty and clears the index — the store's
// half of a replica truncate-and-resync: a diverged WAL's history is
// discarded wholesale before the good history streams back in. The file
// stays open and writable; the magic header is rewritten and synced so a
// crash mid-resync reopens as a valid empty log, never a torn one.
func (s *FileStore) Reset() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resetLocked()
}

// resetLocked is Reset with the write lock held (SeqLog resets its
// sequence counter under the same critical section).
func (s *FileStore) resetLocked() error {
	if s.f == nil {
		return fmt.Errorf("kvstore: reset on closed store")
	}
	s.w.Reset(io.Discard) // drop buffered records destined for the old log
	if err := s.f.Truncate(0); err != nil {
		return err
	}
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if _, err := s.f.WriteString(fileMagic); err != nil {
		return err
	}
	if err := s.f.Sync(); err != nil {
		return err
	}
	s.off = int64(len(fileMagic))
	s.index = make(map[string]recordLoc)
	s.liveKeys = 0
	s.dirty = false
	s.w.Reset(s.f)
	return nil
}

// Close implements Store.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.w.Flush()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}
