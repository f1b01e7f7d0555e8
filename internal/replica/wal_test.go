package replica_test

// Group-commit, payload-format and crash coverage for the WAL: concurrent
// appends must all come back durable and contiguous (and survive a
// reopen), a WAL in the long-retired per-record JSON format is refused
// with its remedy, and a torn tail costs whole batches only.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"historygraph"
	"historygraph/internal/kvstore"
	"historygraph/internal/replica"
	"historygraph/internal/server"
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

// TestWALLegacyJSONPayloadRefused writes records in the pre-binary JSON
// payload format — which nothing has written since PR 4 and this build no
// longer reads — straight onto the underlying SeqLog. The keys are good, so
// the log opens; reading it, and so booting a node over it, fails with the
// remedy in the error rather than with a decoder's complaint.
func TestWALLegacyJSONPayloadRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	sl, err := kvstore.OpenSeqLog(path, kvstore.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		payload := fmt.Sprintf(`{"type":"NN","at":%d,"node":%d,"batch":"legacy-1"}`, i, i*10)
		if _, err := sl.Append([]byte(payload)); err != nil {
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
	if wal.LastSeq() != 3 {
		t.Fatalf("LastSeq %d, want 3", wal.LastSeq())
	}
	recs, err := wal.Read(1, 10)
	if err == nil || !strings.Contains(err.Error(), "re-seed the node") || !strings.Contains(err.Error(), "pre-PR-25 binary") {
		t.Fatalf("reading a JSON-payload WAL: %d records, error %v; want a refusal naming the remedy", len(recs), err)
	}
	gm, err := historygraph.Open(historygraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer gm.Close()
	svc := server.New(gm, server.Config{})
	defer svc.Close()
	if node, err := replica.NewNode(svc, wal, replica.Config{Role: replica.RolePrimary}); err == nil {
		node.Close()
		t.Fatal("a node booted over a JSON-payload WAL")
	} else if !strings.Contains(err.Error(), "re-seed the node") {
		t.Fatalf("boot refused with %q, want the remedy", err)
	}
}

// TestWALTornTailWholeBatches cuts the WAL at every byte of its last two
// batches: a reopen holds whole batches only — never a prefix of one, which
// the per-event records of earlier builds could leave — and the next append
// lands right behind the last whole one.
func TestWALTornTailWholeBatches(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	wal, err := replica.OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	type written struct {
		last uint64
		end  int64 // file size once the batch is in
	}
	var batches []written
	var all historygraph.EventList
	for b := 0; b < 4; b++ {
		events := make(historygraph.EventList, 5+3*b)
		for i := range events {
			events[i] = historygraph.Event{Type: historygraph.SetNodeAttr, At: historygraph.Time(b + 1), Node: historygraph.NodeID(b*100 + i),
				Attr: "name", New: fmt.Sprintf("value-%d-%d", b, i), HasNew: true}
		}
		_, last, err := wal.AppendBatch(events, fmt.Sprintf("batch-%d", b))
		if err != nil {
			t.Fatal(err)
		}
		batches = append(batches, written{last, wal.SizeOnDisk()})
		all = append(all, events...)
	}
	wal.Close()
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(whole)) != batches[3].end {
		t.Fatalf("WAL is %d bytes, SizeOnDisk said %d", len(whole), batches[3].end)
	}
	for size := batches[1].end; size < batches[3].end; size++ {
		if err := os.WriteFile(path, whole[:size], 0o644); err != nil {
			t.Fatal(err)
		}
		wal, err := replica.OpenLog(path)
		if err != nil {
			t.Fatalf("cut at %d: %v", size, err)
		}
		want := batches[1].last
		if size >= batches[2].end {
			want = batches[2].last
		}
		if wal.LastSeq() != want {
			t.Fatalf("cut at %d of %d: LastSeq %d, want the batch boundary %d", size, len(whole), wal.LastSeq(), want)
		}
		recs, err := wal.Read(1, len(all))
		if err != nil || uint64(len(recs)) != want {
			t.Fatalf("cut at %d: read %d records, %v; want %d", size, len(recs), err, want)
		}
		for i, rec := range recs {
			if rec.Seq != uint64(i+1) || rec.Event != all[i] {
				t.Fatalf("cut at %d: record %d is %+v, want %+v", size, i+1, rec, all[i])
			}
		}
		first, last, err := wal.AppendBatch(all[:2], "after-the-tear")
		if err != nil || first != want+1 || last != want+2 {
			t.Fatalf("cut at %d: append after the tear got %d..%d, %v; want %d..%d", size, first, last, err, want+1, want+2)
		}
		wal.Close()
	}
}
