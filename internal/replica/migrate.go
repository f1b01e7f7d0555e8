package replica

// The slot-migration ingest: the data-movement half of elastic
// resharding. A fresh, empty replica-set primary (the migration target)
// pulls the moving slots' entire event history from the partitions
// giving them up, by tailing their WALs through the slot-filtered
// GET /replicate?slots=... stream, and re-admits every record through its
// own append pipeline — so the target ends up with an ordinary WAL of
// its own, its followers replicate it the ordinary way, and the batch
// dedup table is populated exactly as if the events had been appended
// live (a post-cutover coordinator retry of an already-migrated batch
// dedups instead of double-applying).
//
// With more than one source (a merge), records are interleaved into one
// globally time-ordered stream: each source's WAL is time-ordered, so a
// k-way merge by event time works, gated by a safe horizon — a record is
// applied only once every other source has proven (via the buffered
// records or the last_time horizon of its latest fetch) that it will
// never serve an earlier one. The coordinator finishes a migration by
// gating appends at the sources, posting their frozen WAL heads
// ({"finalize": [...]}), and waiting for done=true: a finalized source
// whose cursor passed its final head is exhausted and stops bounding the
// merge.
//
// Batch groups can be split by page boundaries and by the slot filter;
// that is fine because migrateAppend is admission without the
// dedup-resume logic (the migration stream is the target's only writer)
// that still accumulates each batch's span in the dedup table.

import (
	"context"
	"encoding/hex"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"historygraph"
	"historygraph/internal/graph"
	"historygraph/internal/server"
)

// slotSet is a membership bitmap over the hash-slot space.
type slotSet [graph.NumSlots]bool

func (s *slotSet) has(slot int) bool { return s[slot] }

// encodeSlotBitmap renders a slot list as the hex bitmap the ?slots=
// replicate parameter carries: graph.NumSlots/4 hex characters, slot s
// stored as bit s%8 of byte s/8.
func encodeSlotBitmap(slots []int) string {
	var b [graph.NumSlots / 8]byte
	for _, s := range slots {
		if s >= 0 && s < graph.NumSlots {
			b[s/8] |= 1 << (s % 8)
		}
	}
	return hex.EncodeToString(b[:])
}

// parseSlotBitmap decodes the ?slots= hex bitmap.
func parseSlotBitmap(s string) (slotSet, error) {
	var out slotSet
	raw, err := hex.DecodeString(s)
	if err != nil || len(raw) != graph.NumSlots/8 {
		return out, fmt.Errorf("replica: bad slots bitmap %q (want %d hex chars)", s, graph.NumSlots/4)
	}
	for i := 0; i < graph.NumSlots; i++ {
		if raw[i/8]&(1<<(i%8)) != 0 {
			out[i] = true
		}
	}
	return out, nil
}

// MigrateSource names one migration source: the member URLs of the
// replica set giving up slots (any member with the records serves; the
// puller rotates on failure, so a mid-migration failover at the source
// only costs a retry) and the slots moving from it.
type MigrateSource struct {
	URLs  []string `json:"urls"`
	Slots []int    `json:"slots"`
}

// MigrateRequest is the POST /admin/migrate body; exactly one action per
// request. Sources starts a migration on an empty target, Finalize
// freezes the per-source final WAL heads (same order as Sources; the
// coordinator posts it after gating appends), Stop tears the ingest
// down.
type MigrateRequest struct {
	Sources  []MigrateSource `json:"sources,omitempty"`
	Finalize []uint64        `json:"finalize,omitempty"`
	Stop     bool            `json:"stop,omitempty"`
}

// MigrateStatus reports the ingest's progress: GET /admin/migrate, also
// embedded in /replstatus. Done means every source is exhausted and every
// migrated record has been applied to the graph.
type MigrateStatus struct {
	Active  bool                  `json:"active"`
	Done    bool                  `json:"done"`
	Applied uint64                `json:"events_applied"`
	Error   string                `json:"error,omitempty"`
	Sources []MigrateSourceStatus `json:"sources,omitempty"`
}

// MigrateSourceStatus is one source's cursor state.
type MigrateSourceStatus struct {
	URL       string `json:"url"` // member currently fetched from
	NextFrom  uint64 `json:"next_from"`
	Head      uint64 `json:"head"` // source durable head at last fetch
	Horizon   int64  `json:"horizon"`
	Buffered  int    `json:"buffered"`
	FinalHead uint64 `json:"final_head,omitempty"`
	Finalized bool   `json:"finalized,omitempty"`
	Exhausted bool   `json:"exhausted"`
}

// migration is one running (or finished) slot-migration ingest.
type migration struct {
	n       *Node
	sources []*migSource
	applied atomic.Uint64
	cancel  context.CancelFunc
	done    chan struct{}

	// mu guards err/donef and every migSource field: the merger goroutine
	// mutates them, the status handlers read them.
	mu    sync.Mutex
	err   string
	donef bool
}

// migSource is one source's puller state. Only the merger goroutine
// mutates it (finalize excepted), always under migration.mu.
type migSource struct {
	urls      []string
	cur       int // rotating member index
	bitmap    string
	nextFrom  uint64
	head      uint64
	horizon   int64
	finalized bool
	final     uint64
	buf       []Record // slot-filtered records pending apply, time-ordered
}

func (n *Node) handleMigrate(w http.ResponseWriter, r *http.Request) {
	var req MigrateRequest
	if err := server.ReadBody(r, &req); err != nil {
		server.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad migrate body: %w", err))
		return
	}
	switch {
	case req.Stop:
		n.stopMigration()
	case len(req.Finalize) > 0:
		if err := n.finalizeMigration(req.Finalize); err != nil {
			server.WriteError(w, http.StatusConflict, err)
			return
		}
	case len(req.Sources) > 0:
		if status, err := n.startMigration(req.Sources); err != nil {
			server.WriteError(w, status, err)
			return
		}
	default:
		server.WriteError(w, http.StatusBadRequest,
			fmt.Errorf("migrate wants sources (start), finalize (freeze heads), or stop"))
		return
	}
	n.handleMigrateStatus(w, r)
}

func (n *Node) handleMigrateStatus(w http.ResponseWriter, r *http.Request) {
	st := n.migrationStatus()
	if st == nil {
		st = &MigrateStatus{}
	}
	server.WriteJSON(w, http.StatusOK, st)
}

// startMigration launches the ingest. The target must be a primary (its
// followers replicate the migrated records the ordinary way) with an
// empty WAL: resuming a half-migrated target is not supported — a failed
// migration is aborted and restarted against a fresh (or re-seeded)
// target, which the exact-seq WAL oracle can then verify from scratch.
func (n *Node) startMigration(sources []MigrateSource) (int, error) {
	if n.Role() != RolePrimary {
		return http.StatusUnprocessableEntity, fmt.Errorf("replica: migration target must be a primary")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if m := n.mig; m != nil {
		select {
		case <-m.done:
		default:
			return http.StatusConflict, fmt.Errorf("replica: a migration is already running")
		}
	}
	if last := n.log.LastSeq(); last != 0 {
		return http.StatusUnprocessableEntity, fmt.Errorf(
			"replica: migration target must start with an empty WAL (log ends at %d); provision a fresh node", last)
	}
	m := &migration{n: n, done: make(chan struct{})}
	for i, s := range sources {
		if len(s.URLs) == 0 || len(s.Slots) == 0 {
			return http.StatusUnprocessableEntity, fmt.Errorf("replica: migration source %d wants urls and slots", i)
		}
		for _, sl := range s.Slots {
			if sl < 0 || sl >= graph.NumSlots {
				return http.StatusUnprocessableEntity,
					fmt.Errorf("replica: migration source %d: slot %d out of range [0, %d)", i, sl, graph.NumSlots)
			}
		}
		m.sources = append(m.sources, &migSource{urls: s.URLs, bitmap: encodeSlotBitmap(s.Slots), nextFrom: 1})
	}
	ctx, cancel := context.WithCancel(context.Background())
	m.cancel = cancel
	n.mig = m
	go m.run(ctx)
	return 0, nil
}

// stopMigration cancels the ingest and waits for the merger goroutine to
// exit. Idempotent; the final status stays readable.
func (n *Node) stopMigration() {
	n.mu.Lock()
	m := n.mig
	n.mu.Unlock()
	if m == nil {
		return
	}
	m.cancel()
	<-m.done
}

// finalizeMigration freezes each source's final WAL head (posted by the
// coordinator after it gated appends at the sources). Once a source's
// cursor passes its final head and its buffer drains, it is exhausted:
// it stops bounding the time merge and the migration can finish.
func (n *Node) finalizeMigration(heads []uint64) error {
	n.mu.Lock()
	m := n.mig
	n.mu.Unlock()
	if m == nil {
		return fmt.Errorf("replica: no migration to finalize")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(heads) != len(m.sources) {
		return fmt.Errorf("replica: finalize wants %d head(s), got %d", len(m.sources), len(heads))
	}
	for i, h := range heads {
		m.sources[i].finalized = true
		m.sources[i].final = h
	}
	return nil
}

// migrationStatus snapshots the ingest state (nil if none was started).
func (n *Node) migrationStatus() *MigrateStatus {
	n.mu.Lock()
	m := n.mig
	n.mu.Unlock()
	if m == nil {
		return nil
	}
	return m.status()
}

func (m *migration) status() *MigrateStatus {
	active := true
	select {
	case <-m.done:
		active = false
	default:
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	st := &MigrateStatus{Active: active, Done: m.donef, Applied: m.applied.Load(), Error: m.err}
	for _, src := range m.sources {
		st.Sources = append(st.Sources, MigrateSourceStatus{
			URL:       src.urls[src.cur],
			NextFrom:  src.nextFrom,
			Head:      src.head,
			Horizon:   src.horizon,
			Buffered:  len(src.buf),
			FinalHead: src.final,
			Finalized: src.finalized,
			Exhausted: src.finalized && src.nextFrom > src.final && len(src.buf) == 0,
		})
	}
	return st
}

// exhausted reports whether a source can never contribute another record.
func (m *migration) exhausted(src *migSource) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return src.finalized && src.nextFrom > src.final && len(src.buf) == 0
}

func (m *migration) allExhausted() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, src := range m.sources {
		if !src.finalized || src.nextFrom <= src.final || len(src.buf) > 0 {
			return false
		}
	}
	return true
}

// run is the merger goroutine: refill empty source buffers, apply every
// safely ordered run, repeat until every source is exhausted or the
// migration is stopped. Fetch failures rotate through the source's
// members and are retried forever (surfaced in the status); apply
// failures are fatal to the migration.
func (m *migration) run(ctx context.Context) {
	defer close(m.done)
	progressed := true
	for ctx.Err() == nil {
		// Long-poll only when the previous round achieved nothing, so a
		// live tail blocks in the fetch instead of spinning.
		var wait time.Duration
		if !progressed {
			wait = m.n.pollWait
			if wait > 2*time.Second {
				wait = 2 * time.Second
			}
		}
		fetched := false
		for _, src := range m.sources {
			if ctx.Err() != nil {
				return
			}
			if len(src.buf) > 0 || m.exhausted(src) {
				continue
			}
			if m.fetchPage(ctx, src, wait) {
				fetched = true
			}
		}
		applied, err := m.drain()
		if err != nil {
			m.mu.Lock()
			m.err = err.Error()
			m.mu.Unlock()
			return
		}
		if m.allExhausted() {
			m.mu.Lock()
			m.donef = true
			m.mu.Unlock()
			return
		}
		progressed = applied || fetched
		if !progressed && wait > 0 {
			// Long-polled and still nothing (or every member down): pace
			// the retry loop.
			select {
			case <-time.After(DefaultRetryDelay):
			case <-ctx.Done():
				return
			}
		}
	}
}

// fetchPage pulls one slot-filtered page for src, rotating through its
// member URLs on failure. It reports whether the cursor advanced or
// records arrived.
func (m *migration) fetchPage(ctx context.Context, src *migSource, wait time.Duration) bool {
	var lastErr error
	for k := 0; k < len(src.urls); k++ {
		u := src.urls[(src.cur+k)%len(src.urls)]
		url := fmt.Sprintf("%s/replicate?from=%d&max=%d&slots=%s", u, src.nextFrom, m.n.fetchMax, src.bitmap)
		if wait > 0 {
			url += "&wait=" + wait.String()
		}
		resp, err := m.n.fetchReplicate(ctx, url)
		if err != nil {
			lastErr = err
			continue
		}
		if resp.NextFrom == 0 {
			// A plain (unfiltered) response: the member predates slot
			// replication. Its records are unusable as a filtered stream.
			lastErr = fmt.Errorf("replica: migration source %s does not support slot-filtered replication", u)
			continue
		}
		m.mu.Lock()
		src.cur = (src.cur + k) % len(src.urls)
		advanced := resp.NextFrom > src.nextFrom || len(resp.Records) > 0
		src.nextFrom = resp.NextFrom
		src.head = resp.LastSeq
		if resp.LastTime > src.horizon {
			src.horizon = resp.LastTime
		}
		src.buf = append(src.buf, resp.Records...)
		m.err = ""
		m.mu.Unlock()
		return advanced
	}
	if lastErr != nil && ctx.Err() == nil {
		m.mu.Lock()
		m.err = lastErr.Error()
		m.mu.Unlock()
	}
	return false
}

// drain applies every buffered record that is safely ordered: pick the
// source whose buffer head carries the earliest event time, take the
// longest prefix whose times stay at or below every other source's bound
// (its buffer head if it has one, +inf if exhausted, its fetch horizon
// otherwise), and admit it through the append pipeline in contiguous
// same-batch groups. Repeats until nothing more is safe.
func (m *migration) drain() (bool, error) {
	appliedAny := false
	for {
		best := -1
		for i, src := range m.sources {
			if len(src.buf) == 0 {
				continue
			}
			if best == -1 || src.buf[0].Event.At < m.sources[best].buf[0].Event.At {
				best = i
			}
		}
		if best == -1 {
			return appliedAny, nil
		}
		src := m.sources[best]
		bound := int64(math.MaxInt64)
		for j, other := range m.sources {
			if j == best {
				continue
			}
			var b int64
			switch {
			case len(other.buf) > 0:
				b = int64(other.buf[0].Event.At)
			case m.exhausted(other):
				b = math.MaxInt64
			default:
				b = other.horizon
			}
			if b < bound {
				bound = b
			}
		}
		cut := 0
		for cut < len(src.buf) && int64(src.buf[cut].Event.At) <= bound {
			cut++
		}
		if cut == 0 {
			return appliedAny, nil
		}
		run := src.buf[:cut]
		for len(run) > 0 {
			g := 1
			for g < len(run) && run[g].Batch == run[0].Batch {
				g++
			}
			events := make(historygraph.EventList, g)
			for i, rec := range run[:g] {
				events[i] = rec.Event
			}
			if err := m.n.migrateAppend(events, run[0].Batch); err != nil {
				return appliedAny, err
			}
			m.applied.Add(uint64(g))
			run = run[g:]
		}
		m.mu.Lock()
		src.buf = src.buf[cut:]
		m.mu.Unlock()
		appliedAny = true
	}
}

// migrateAppend admits one contiguous same-batch run of migrated events:
// admission without the dedup-resume logic (the migration stream is the
// target's only writer, and the slot filter plus page boundaries
// legitimately split batches into partial runs) but with the span
// registration, so a post-cutover coordinator retry of an
// already-migrated batch dedups against the migrated records.
func (n *Node) migrateAppend(events historygraph.EventList, batch string) error {
	vStart := time.Now()
	n.admitMu.Lock()
	err := validateOrder(historygraph.Time(n.admittedAt.Load()), events)
	var tk *ticket
	if err == nil {
		tk, err = n.writeLocked(events, batch, vStart)
	}
	n.admitMu.Unlock()
	if err != nil {
		return err
	}
	return n.await(tk).err
}
