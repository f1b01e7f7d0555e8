package kvstore

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSeqLogAppendReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := OpenSeqLog(path, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if l.Last() != 0 {
		t.Fatalf("fresh log Last() = %d, want 0", l.Last())
	}
	for i := 1; i <= 100; i++ {
		seq, err := l.Append(fmt.Appendf(nil, "payload-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i) {
			t.Fatalf("append %d got seq %d", i, seq)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l, err = OpenSeqLog(path, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Last() != 100 {
		t.Fatalf("reopened Last() = %d, want 100", l.Last())
	}
	for i := 1; i <= 100; i++ {
		first, n, v, err := l.Run(uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("payload-%d", i); string(v) != want || first != uint64(i) || n != 1 {
			t.Fatalf("seq %d = %q under %d sequence numbers from %d, want %q under itself", i, v, n, first, want)
		}
	}
	for _, seq := range []uint64{0, 101} {
		if _, _, _, err := l.Run(seq); err != ErrNotFound {
			t.Fatalf("Run(%d): %v, want ErrNotFound", seq, err)
		}
	}
}

// TestSeqLogRuns: a payload stored under n sequence numbers is found from
// each of them, runs of one among them are keyed (and cost) exactly what a
// single Append does, and a reopen recovers the same runs from the keys.
func TestSeqLogRuns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := OpenSeqLog(path, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	type stored struct {
		first, last uint64
		payload     string
	}
	var want []stored
	for i, n := range []int{1, 3, 1, 200, 2, 1, 70000} {
		payload := fmt.Sprintf("run-%d", i)
		before := l.SizeOnDisk()
		first, last, err := l.AppendRun(n, []byte(payload))
		if err != nil || first != l.Last()-uint64(n)+1 || last != l.Last() {
			t.Fatalf("AppendRun(%d) = %d..%d, %v; Last() %d", n, first, last, err, l.Last())
		}
		want = append(want, stored{first, last, payload})
		// uvarint keyLen, uvarint valLen, flags, key, value, CRC.
		keyLen := map[int]int{1: 8, 2: 9, 3: 9, 200: 10, 70000: 11}[n]
		if got := l.SizeOnDisk() - before; got != int64(3+keyLen+len(payload)+4) {
			t.Errorf("a run of %d took %d bytes, want a %d-byte key", n, got, keyLen)
		}
	}
	verify := func(l *SeqLog) {
		t.Helper()
		for _, w := range want {
			for _, seq := range []uint64{w.first, (w.first + w.last) / 2, w.last} {
				first, n, payload, err := l.Run(seq)
				if err != nil || first != w.first || uint64(n) != w.last-w.first+1 || string(payload) != w.payload {
					t.Fatalf("Run(%d) = %q under %d from %d, %v; want %q under %d..%d", seq, payload, n, first, err, w.payload, w.first, w.last)
				}
			}
		}
		if _, _, _, err := l.Run(l.Last() + 1); err != ErrNotFound {
			t.Fatalf("Run past the end: %v, want ErrNotFound", err)
		}
	}
	verify(l) // unflushed
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l, err = OpenSeqLog(path, FileOptions{}); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := want[len(want)-1].last; l.Last() != got {
		t.Fatalf("reopened Last() = %d, want %d", l.Last(), got)
	}
	verify(l)
	if len(l.fs.index) != 0 {
		t.Errorf("the FileStore key index holds %d entries of a SeqLog, want none", len(l.fs.index))
	}
	for _, n := range []int{0, -1} {
		if _, _, err := l.AppendRun(n, nil); err == nil {
			t.Errorf("AppendRun(%d) accepted", n)
		}
	}
}

// TestSeqLogRefusesBrokenTiling: recovery reads keys only, so the keys must
// tile 1..max exactly; a gap, an overlap or a key of another shape is not
// this log.
func TestSeqLogRefusesBrokenTiling(t *testing.T) {
	for name, keys := range map[string][][]byte{
		"gap":            {runKey(1, 4), runKey(6, 1)},
		"overlap":        {runKey(1, 4), runKey(4, 2)},
		"duplicate":      {runKey(1, 1), runKey(1, 1)},
		"starts late":    {runKey(2, 3)},
		"short key":      {runKey(1, 1)[:7]},
		"run of nothing": {append(runKey(1, 1), 0)},
		"trailing byte":  {append(runKey(1, 3), 0)},
		"foreign key":    {[]byte("delta/0001")},
	} {
		path := filepath.Join(t.TempDir(), "wal.log")
		fs, err := OpenFileStore(path, FileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range keys {
			if err := fs.Put(key, []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.Close(); err != nil {
			t.Fatal(err)
		}
		l, err := OpenSeqLog(path, FileOptions{})
		if err == nil {
			l.Close()
			t.Errorf("%s: opened with Last() %d", name, l.Last())
		} else if !strings.Contains(err.Error(), "not a contiguous sequenced log") {
			t.Errorf("%s: refused with %q", name, err)
		}
	}
}

func TestSeqLogAppendAtRejectsGaps(t *testing.T) {
	l, err := OpenSeqLog(filepath.Join(t.TempDir(), "wal.log"), FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.AppendRunAt(1, 1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendRunAt(3, 1, []byte("c")); err == nil {
		t.Fatal("AppendRunAt(3, 1) after seq 1 should reject the gap")
	}
	if _, err := l.AppendRunAt(1, 1, []byte("a")); err == nil {
		t.Fatal("AppendRunAt(1, 1) twice should reject the duplicate")
	}
	if _, err := l.AppendRunAt(2, 1, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendRunAt(4, 5, []byte("d")); err == nil {
		t.Fatal("AppendRunAt(4, 5) after seq 2 should reject the gap")
	}
	if _, err := l.AppendRunAt(2, 5, []byte("b")); err == nil {
		t.Fatal("AppendRunAt(2, 5) after seq 2 should reject the overlap")
	}
	if last, err := l.AppendRunAt(3, 5, []byte("c")); err != nil || last != 7 || l.Last() != 7 {
		t.Fatalf("AppendRunAt(3, 5) = %d, %v; Last() %d", last, err, l.Last())
	}
	if _, err := l.AppendRunAt(7, 1, []byte("g")); err == nil {
		t.Fatal("AppendRunAt(7, 1) inside the run 3..7 should reject the overlap")
	}
	if _, err := l.AppendRunAt(8, 1, []byte("h")); err != nil {
		t.Fatal(err)
	}
}

func TestSeqLogTornTailDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := OpenSeqLog(path, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var ends []int64 // file size after each record
	for i := 0; i < 10; i++ {
		// Single records, then two runs at the tail.
		n := 1
		if i >= 8 {
			n = 300
		}
		if _, _, err := l.AppendRun(n, []byte("0123456789abcdef0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, l.SizeOnDisk())
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Tear the file at every byte of its last two runs, as a crash between
	// write and sync would: a run is there whole or not at all, and the log
	// accepts fresh appends over the torn region.
	for size := ends[7]; size < ends[9]; size++ {
		if err := os.WriteFile(path, whole[:size], 0o644); err != nil {
			t.Fatal(err)
		}
		l, err = OpenSeqLog(path, FileOptions{})
		if err != nil {
			t.Fatalf("cut at %d: %v", size, err)
		}
		wantLast := uint64(8)
		if size >= ends[8] {
			wantLast = 308
		}
		if l.Last() != wantLast {
			t.Fatalf("cut at %d of %d: Last() = %d, want %d", size, len(whole), l.Last(), wantLast)
		}
		first, last, err := l.AppendRun(2, []byte("replacement"))
		if err != nil || first != wantLast+1 || last != wantLast+2 {
			t.Fatalf("cut at %d: append after the tear: %d..%d, %v", size, first, last, err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		if _, n, payload, err := l.Run(last); err != nil || n != 2 || string(payload) != "replacement" {
			t.Fatalf("cut at %d: the replacement reads back as %q under %d, %v", size, payload, n, err)
		}
		l.Close()
	}
}
