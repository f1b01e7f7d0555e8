package replica_test

// Group-commit and payload-format coverage for the WAL: concurrent
// appends must all come back durable and contiguous (and survive a
// reopen), and WAL directories written in the legacy per-record JSON
// format must replay through the binary-era reader unchanged.

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"historygraph"
	"historygraph/internal/kvstore"
	"historygraph/internal/replica"
)

// TestWALConcurrentGroupCommit hammers one log from many goroutines: every
// append must return durable, sequences must be contiguous with batches
// unsplit, and a reopen must recover every record. This is the workload
// the single-flusher group commit exists for — correctness here, the
// throughput win in BenchmarkWALAppendConcurrent.
func TestWALConcurrentGroupCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	wal, err := replica.OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers = 8
		batches = 25
		perB    = 4
	)
	var wg sync.WaitGroup
	var mu sync.Mutex
	spans := make(map[uint64]uint64) // first -> last per returned batch
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				events := make(historygraph.EventList, perB)
				for i := range events {
					// Monotonic timestamps are not required by the log
					// itself (the node validates ordering above it).
					events[i] = historygraph.Event{
						Type: historygraph.AddNode, At: historygraph.Time(b + 1),
						Node: historygraph.NodeID(g*1000000 + b*100 + i),
					}
				}
				first, last, err := wal.AppendBatch(events, fmt.Sprintf("g%d-b%d", g, b))
				if err != nil {
					t.Error(err)
					return
				}
				if last-first+1 != perB {
					t.Errorf("batch split: first %d last %d", first, last)
					return
				}
				mu.Lock()
				spans[first] = last
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	total := uint64(writers * batches * perB)
	if got := wal.LastSeq(); got != total {
		t.Fatalf("LastSeq %d, want %d", got, total)
	}
	if got := wal.DurableSeq(); got != total {
		t.Fatalf("DurableSeq %d, want %d (every returned append must be synced)", got, total)
	}
	// Batches are contiguous runs: walking span to span must tile 1..total.
	next := uint64(1)
	for next <= total {
		last, ok := spans[next]
		if !ok {
			t.Fatalf("no batch starts at seq %d", next)
		}
		next = last + 1
	}
	recs, err := wal.Read(1, int(total))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != int(total) {
		t.Fatalf("read %d records, want %d", len(recs), total)
	}
	wal.Close()

	// Crash-restart equivalence: reopen and re-read everything.
	wal2, err := replica.OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	if got := wal2.LastSeq(); got != total {
		t.Fatalf("reopened LastSeq %d, want %d", got, total)
	}
	recs2, err := wal2.Read(1, int(total))
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if recs[i].Seq != recs2[i].Seq || recs[i].Event != recs2[i].Event || recs[i].Batch != recs2[i].Batch {
			t.Fatalf("record %d changed across reopen: %+v vs %+v", i, recs[i], recs2[i])
		}
	}
}

// TestWALLegacyJSONPayloadReplays writes records in the pre-binary JSON
// payload format straight onto the underlying SeqLog, then opens it as a
// WAL: Read must decode them (events and batch IDs) exactly, and new
// appends must coexist with the legacy prefix.
func TestWALLegacyJSONPayloadReplays(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	sl, err := kvstore.OpenSeqLog(path, kvstore.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	type legacy struct {
		Type  string `json:"type"`
		At    int64  `json:"at"`
		Node  int64  `json:"node,omitempty"`
		Batch string `json:"batch,omitempty"`
	}
	for i := 1; i <= 3; i++ {
		payload, err := json.Marshal(legacy{Type: "NN", At: int64(i), Node: int64(i * 10), Batch: "legacy-1"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sl.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := sl.Sync(); err != nil {
		t.Fatal(err)
	}
	sl.Close()

	wal, err := replica.OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	if _, _, err := wal.AppendBatch(historygraph.EventList{
		{Type: historygraph.AddNode, At: 4, Node: 40},
	}, "modern-1"); err != nil {
		t.Fatal(err)
	}
	recs, err := wal.Read(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("read %d records, want 4", len(recs))
	}
	for i, rec := range recs[:3] {
		if rec.Event.Type != historygraph.AddNode || rec.Event.At != historygraph.Time(i+1) || rec.Event.Node != historygraph.NodeID((i+1)*10) {
			t.Fatalf("legacy record %d decoded wrong: %+v", i, rec)
		}
		if rec.Batch != "legacy-1" {
			t.Fatalf("legacy record %d lost its batch ID: %+v", i, rec)
		}
	}
	if recs[3].Batch != "modern-1" || recs[3].Event.At != 4 {
		t.Fatalf("modern record decoded wrong: %+v", recs[3])
	}
}
