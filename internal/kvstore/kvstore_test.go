package kvstore

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func testStoreBasics(t *testing.T, s Store) {
	t.Helper()
	if _, err := s.Get([]byte("missing")); err != ErrNotFound {
		t.Errorf("Get missing = %v, want ErrNotFound", err)
	}
	if err := s.Put([]byte("k1"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("k2"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get([]byte("k1"))
	if err != nil || string(got) != "v1" {
		t.Errorf("Get k1 = %q, %v", got, err)
	}
	// Overwrite.
	if err := s.Put([]byte("k1"), []byte("v1b")); err != nil {
		t.Fatal(err)
	}
	got, _ = s.Get([]byte("k1"))
	if string(got) != "v1b" {
		t.Errorf("after overwrite Get k1 = %q", got)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	// Delete.
	if err := s.Delete([]byte("k2")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get([]byte("k2")); err != ErrNotFound {
		t.Error("deleted key still readable")
	}
	if err := s.Delete([]byte("never-existed")); err != nil {
		t.Errorf("deleting absent key: %v", err)
	}
	if s.Len() != 1 {
		t.Errorf("Len after delete = %d, want 1", s.Len())
	}
	// Empty value round-trips.
	if err := s.Put([]byte("empty"), nil); err != nil {
		t.Fatal(err)
	}
	got, err = s.Get([]byte("empty"))
	if err != nil || len(got) != 0 {
		t.Errorf("empty value: %q, %v", got, err)
	}
	if err := s.Sync(); err != nil {
		t.Errorf("Sync: %v", err)
	}
}

func TestMemStore(t *testing.T) {
	s := NewMemStore()
	defer s.Close()
	testStoreBasics(t, s)
	if s.SizeOnDisk() <= 0 {
		t.Error("MemStore should report payload bytes")
	}
}

func TestMemStoreGetIsolation(t *testing.T) {
	s := NewMemStore()
	defer s.Close()
	val := []byte("hello")
	s.Put([]byte("k"), val)
	val[0] = 'X' // caller mutation must not leak in
	got, _ := s.Get([]byte("k"))
	if string(got) != "hello" {
		t.Error("Put did not copy value")
	}
	got[0] = 'Y' // returned mutation must not leak back
	got2, _ := s.Get([]byte("k"))
	if string(got2) != "hello" {
		t.Error("Get did not copy value")
	}
}

func openTestFileStore(t testing.TB, opts FileOptions) (*FileStore, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.log")
	s, err := OpenFileStore(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, path
}

func TestFileStore(t *testing.T) {
	s, _ := openTestFileStore(t, FileOptions{})
	defer s.Close()
	testStoreBasics(t, s)
	if s.SizeOnDisk() <= int64(len(fileMagic)) {
		t.Error("SizeOnDisk should grow with writes")
	}
}

func TestFileStoreReopen(t *testing.T) {
	s, path := openTestFileStore(t, FileOptions{})
	want := map[string]string{}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("key-%03d", rng.Intn(200))
		v := bytes.Repeat([]byte{byte(i)}, rng.Intn(300))
		if rng.Intn(10) == 0 {
			s.Delete([]byte(k))
			delete(want, k)
		} else {
			s.Put([]byte(k), v)
			want[k] = string(v)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenFileStore(path, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != len(want) {
		t.Errorf("reopened Len = %d, want %d", s2.Len(), len(want))
	}
	for k, v := range want {
		got, err := s2.Get([]byte(k))
		if err != nil || string(got) != v {
			t.Fatalf("reopened Get(%q): %q, %v", k, got, err)
		}
	}
}

func TestFileStoreTornTailRecovery(t *testing.T) {
	s, path := openTestFileStore(t, FileOptions{})
	s.Put([]byte("a"), []byte("va"))
	s.Put([]byte("b"), []byte("vb"))
	s.Close()

	// Simulate a crash mid-append: write a partial garbage record.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x05, 0x20, 0x00, 'x'})
	f.Close()

	s2, err := OpenFileStore(path, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, err := s2.Get([]byte("a")); err != nil || string(got) != "va" {
		t.Errorf("a after torn tail: %q %v", got, err)
	}
	if got, err := s2.Get([]byte("b")); err != nil || string(got) != "vb" {
		t.Errorf("b after torn tail: %q %v", got, err)
	}
	if s2.Len() != 2 {
		t.Errorf("Len = %d", s2.Len())
	}
	// The store must still accept writes after recovery.
	if err := s2.Put([]byte("c"), []byte("vc")); err != nil {
		t.Fatal(err)
	}
	if got, _ := s2.Get([]byte("c")); string(got) != "vc" {
		t.Error("write after recovery failed")
	}
}

func TestFileStoreCorruptMiddleStopsScan(t *testing.T) {
	s, path := openTestFileStore(t, FileOptions{})
	s.Put([]byte("a"), []byte("va"))
	s.Close()
	// Flip a byte inside the only record.
	data, _ := os.ReadFile(path)
	data[len(fileMagic)+3] ^= 0xff
	os.WriteFile(path, data, 0o644)

	s2, err := OpenFileStore(path, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := s2.Get([]byte("a")); err != ErrNotFound {
		t.Error("corrupt record should be dropped")
	}
}

func TestFileStoreRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "foreign")
	os.WriteFile(path, []byte("this is not a log"), 0o644)
	if _, err := OpenFileStore(path, FileOptions{}); err == nil {
		t.Error("foreign file accepted")
	}
}

// TestFileStoreCompressionSavesSpace: a value of minCompress bytes or more
// is stored flate-compressed where that is smaller, and as it is otherwise;
// each record on disk is its stored value and framing, nothing else.
func TestFileStoreCompressionSavesSpace(t *testing.T) {
	noise := make([]byte, 1024)
	rand.New(rand.NewSource(1)).Read(noise)
	for _, tc := range []struct {
		name  string
		value []byte
		raw   bool
	}{
		{"short", []byte("a value under the threshold, however it repeats, repeats"), true},
		{"repetitive", bytes.Repeat([]byte("abcdefgh"), 4096), false},
		{"noise", noise, true},
	} {
		s, _ := openTestFileStore(t, FileOptions{})
		if err := s.Put([]byte("k"), tc.value); err != nil {
			t.Fatal(err)
		}
		raw := int64(len(fileMagic)) + recordBytes(1, len(tc.value))
		switch size := s.SizeOnDisk(); {
		case tc.raw && size != raw:
			t.Errorf("%s: the file is %d B, %d B with the value stored as it is", tc.name, size, raw)
		case !tc.raw && size >= raw/8:
			t.Errorf("%s: the file is %d B for %d B of one repeated word", tc.name, size, len(tc.value))
		}
		if got, err := s.Get([]byte("k")); err != nil || !bytes.Equal(got, tc.value) {
			t.Errorf("%s: the value did not round-trip: %v", tc.name, err)
		}
		s.Close()
	}
}

// recordBytes is the size of a record of a key and a stored value.
func recordBytes(keyLen, valLen int) int64 {
	framing := len(binary.AppendUvarint(nil, uint64(keyLen))) + len(binary.AppendUvarint(nil, uint64(valLen))) + 1 + 4
	return int64(framing + keyLen + valLen)
}

func TestKeyCodec(t *testing.T) {
	for _, tc := range []struct {
		part int
		id   uint64
		comp Component
	}{{0, 0, ComponentStruct}, {3, 12345, ComponentEdgeAttr}, {65535, 1 << 60, ComponentAuxBase + 2}} {
		key := EncodeKey(tc.part, tc.id, tc.comp)
		p, id, c, err := DecodeKey(key)
		if err != nil || p != tc.part || id != tc.id || c != tc.comp {
			t.Errorf("round trip (%d,%d,%d) -> (%d,%d,%d,%v)", tc.part, tc.id, tc.comp, p, id, c, err)
		}
	}
	if _, _, _, err := DecodeKey([]byte("short")); err == nil {
		t.Error("short key accepted")
	}
}

func TestComponentString(t *testing.T) {
	for c, want := range map[Component]string{
		ComponentStruct:       "struct",
		ComponentTransient:    "transient",
		ComponentAuxBase:      "aux0",
		ComponentAuxBase + 1:  "aux1",
		ComponentAuxBase + 10: "aux10",  // printed "aux:" once
		250:                   "aux246", // the checkpoint meta record's component; printed "auxĦ" once
	} {
		if got := c.String(); got != want {
			t.Errorf("component %d is %q, want %q", c, got, want)
		}
	}
}

func TestPartitioned(t *testing.T) {
	p := NewMemPartitioned(4)
	defer p.Close()
	if p.NumPartitions() != 4 {
		t.Fatal("wrong partition count")
	}
	keys := make([][]byte, 40)
	for i := range keys {
		keys[i] = EncodeKey(i%4, uint64(i), ComponentStruct)
		if err := p.Put(keys[i], []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Data landed in the right partitions.
	for i := 0; i < 4; i++ {
		if p.Part(i).Len() != 10 {
			t.Errorf("partition %d has %d keys, want 10", i, p.Part(i).Len())
		}
	}
	if p.Len() != 40 {
		t.Errorf("Len = %d", p.Len())
	}
	// Routed get.
	got, err := p.Get(keys[7])
	if err != nil || got[0] != 7 {
		t.Errorf("routed Get = %v, %v", got, err)
	}
	// A missing key in range is not found, not an error of routing.
	if _, err := p.Get(EncodeKey(2, 9999, ComponentStruct)); err != ErrNotFound {
		t.Errorf("missing key: err = %v, want ErrNotFound", err)
	}
	// Out-of-range partition rejected.
	if _, err := p.Get(EncodeKey(9, 0, ComponentStruct)); err == nil {
		t.Error("out-of-range partition accepted")
	}
	if err := p.Delete(keys[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(keys[0]); err != ErrNotFound {
		t.Error("delete did not route")
	}
}

// Property: MemStore and FileStore agree under a random operation sequence.
func TestFileStoreMatchesMemStore(t *testing.T) {
	s, _ := openTestFileStore(t, FileOptions{})
	defer s.Close()
	m := NewMemStore()
	defer m.Close()
	check := func(op uint8, key uint8, val []byte) bool {
		k := []byte{key % 16}
		switch op % 3 {
		case 0:
			return s.Put(k, val) == nil && m.Put(k, val) == nil
		case 1:
			return s.Delete(k) == nil && m.Delete(k) == nil
		default:
			gv, gerr := s.Get(k)
			wv, werr := m.Get(k)
			return gerr == werr && bytes.Equal(gv, wv)
		}
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
	if s.Len() != m.Len() {
		t.Errorf("Len mismatch: %d vs %d", s.Len(), m.Len())
	}
}

// FuzzFileStore appends arbitrary bytes to a log of raw and compressed
// records, as a crash or a stray write may leave it, and adds a record whose
// CRC holds over a flate stream the fuzzer chose. Every record before the
// tear reads back exactly; the chosen stream reads as flate reads it, and
// where flate refuses it Get fails — never a panic.
func FuzzFileStore(f *testing.F) {
	var valid bytes.Buffer
	fw, _ := flate.NewWriter(&valid, flate.BestSpeed)
	fw.Write(bytes.Repeat([]byte("payload "), 40))
	fw.Close()
	f.Add([]byte{}, valid.Bytes())
	f.Add([]byte{0x05, 0x20, 0x00, 'x'}, []byte{})
	f.Add([]byte{0x01, 0x02, 0x02, 'k', 0xff, 0xff}, []byte{0xff, 0xff, 0xff})
	f.Add(bytes.Repeat([]byte{0x80}, 12), valid.Bytes()[:valid.Len()/2])
	noise := make([]byte, 300)
	rand.New(rand.NewSource(2)).Read(noise)
	want := map[string][]byte{
		"short":      []byte("under the threshold"),
		"compressed": bytes.Repeat([]byte("abcdefgh"), 64),
		"noise":      noise,
		"old-raw":    bytes.Repeat([]byte("written raw by an older build "), 8),
	}
	f.Fuzz(func(t *testing.T, tail, stream []byte) {
		path := filepath.Join(t.TempDir(), "store.log")
		s, err := OpenFileStore(path, FileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"short", "compressed", "noise"} {
			if err := s.Put([]byte(k), want[k]); err != nil {
				t.Fatal(err)
			}
		}
		s.mu.Lock()
		s.appendRecord([]byte("old-raw"), want["old-raw"], 0)
		s.appendRecord([]byte("stream"), stream, 2)
		s.mu.Unlock()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		file, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		info, _ := file.Stat()
		file.Write(tail)
		file.Close()

		s, err = OpenFileStore(path, FileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if s.SizeOnDisk() != info.Size() {
			t.Skip("the tail holds a CRC-valid record") // it may overwrite any key
		}
		for k, v := range want {
			if got, err := s.Get([]byte(k)); err != nil || !bytes.Equal(got, v) {
				t.Fatalf("%s after the tear: %q, %v", k, got, err)
			}
		}
		got, err := s.Get([]byte("stream"))
		inflated, ferr := io.ReadAll(flate.NewReader(bytes.NewReader(stream)))
		if (err != nil) != (ferr != nil) || err == nil && !bytes.Equal(got, inflated) {
			t.Fatalf("Get of the stream = %d B, %v; flate reads %d B, %v", len(got), err, len(inflated), ferr)
		}
	})
}

// benchValue is 16 kB of four-bit symbols: it compresses about as well as
// the index's payloads do, to about half.
func benchValue() []byte {
	v := make([]byte, 16<<10)
	rng := rand.New(rand.NewSource(3))
	for i := range v {
		v[i] = byte(rng.Intn(16))
	}
	return v
}

// BenchmarkFileStorePut is one compressed Put. Its B/op is the compressed
// value and its buffer, about 17 kB: a flate writer made afresh instead of
// taken from the pool would add 1.2 MB.
func BenchmarkFileStorePut(b *testing.B) {
	s, _ := openTestFileStore(b, FileOptions{})
	defer s.Close()
	value := benchValue()
	s.Put([]byte("warm"), value) // the pool's writer is made here
	b.SetBytes(int64(len(value)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put([]byte{byte(i)}, value); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFileStoreGet is one Get of a compressed value: the stored bytes and
// the value, about 28 kB a call, and no flate reader made.
func BenchmarkFileStoreGet(b *testing.B) {
	s, _ := openTestFileStore(b, FileOptions{})
	defer s.Close()
	value := benchValue()
	s.Put([]byte("k"), value)
	s.Get([]byte("k")) // the pool's reader is made here
	b.SetBytes(int64(len(value)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get([]byte("k")); err != nil {
			b.Fatal(err)
		}
	}
}
