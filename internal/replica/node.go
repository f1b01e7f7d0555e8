package replica

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"historygraph"
	"historygraph/internal/graph"
	"historygraph/internal/metrics"
	"historygraph/internal/server"
	"historygraph/internal/wire"
)

// Role is a replica-set member's current role.
type Role int32

// Replica roles.
const (
	// RolePrimary accepts external appends, logs them durably, and serves
	// its WAL to followers.
	RolePrimary Role = iota
	// RoleFollower rejects external appends and tails a primary's WAL.
	RoleFollower
)

// String names the role for wire and log output.
func (r Role) String() string {
	if r == RoleFollower {
		return "follower"
	}
	return "primary"
}

// Defaults for Config zero values.
const (
	DefaultPollWait   = 2 * time.Second
	DefaultAckTimeout = 5 * time.Second
	DefaultFetchMax   = 512
	// DefaultRetryDelay paces a follower's reconnect attempts after its
	// primary stops answering.
	DefaultRetryDelay = 200 * time.Millisecond
	// AppendQueue is the append pipeline's admitted-but-unapplied
	// capacity: how many batches may sit between the WAL write and the
	// applier before admission blocks (backpressure).
	AppendQueue = 256
	// StreamWindow is how many in-flight frames a streaming ingest
	// connection may have admitted before the server stops reading more
	// (per-stream backpressure on top of the shared pipeline queue).
	StreamWindow = 32
)

// Config tunes a Node.
type Config struct {
	// Role selects the starting role; POST /role can change it live.
	Role Role
	// PrimaryURL is the primary's base URL (follower role only).
	PrimaryURL string
	// SelfID identifies this node in its primary's follower-ack table and
	// in /replstatus; defaults to a random hex ID. Operators usually pass
	// the node's own base URL so ack tables read naturally.
	SelfID string
	// SyncFollowers is how many followers must have durably logged a
	// batch before the primary acks the append. 0 acks after the local
	// WAL sync only — durable on this node, but an acked batch can be
	// lost if the primary dies before any follower fetches it. Deploy
	// replica sets with >= 1 for the no-acked-loss guarantee.
	SyncFollowers int
	// AckTimeout bounds the SyncFollowers wait; on expiry the append
	// fails with 503 (the events stay in the WAL and keep replicating,
	// but were never acked). 0 picks DefaultAckTimeout.
	AckTimeout time.Duration
	// PollWait is the long-poll window a tailing follower asks its
	// primary to hold an empty /replicate for. 0 picks DefaultPollWait.
	PollWait time.Duration
	// FetchMax caps records per /replicate response. 0 picks
	// DefaultFetchMax.
	FetchMax int
	// HTTPClient overrides the follower's transport (tests inject clients
	// wired to in-process servers).
	HTTPClient *http.Client
	// ReadyMaxLag is how many WAL records a follower may trail its
	// primary's last known head and still answer GET /readyz with 200.
	// 0 requires the follower to be fully caught up.
	ReadyMaxLag uint64
	// NewManager builds a fresh, empty GraphManager over the same options
	// the node was opened with. It enables the automated truncate-and-resync
	// path: a follower whose WAL diverged from its primary (a deposed
	// primary's unacked tail, a mirror of one) resets its log, swaps in an
	// empty manager, and re-tails from sequence 1 instead of waiting for an
	// operator to wipe the WAL directory. Nil disables the automation; the
	// divergence is surfaced in /replstatus instead.
	NewManager func() (*historygraph.GraphManager, error)
}

// Node is one member of a replica set: an internal/server.Server with a
// durable WAL under its append path and primary/follower replication on
// top. Construction replays the local WAL into the embedded GraphManager,
// so a restarted node resumes exactly where its log ends.
type Node struct {
	srv *server.Server
	log *Log
	hc  *http.Client
	mux *http.ServeMux

	selfID        string
	syncFollowers int
	ackTimeout    time.Duration
	pollWait      time.Duration
	fetchMax      int
	readyMaxLag   uint64
	newManager    func() (*historygraph.GraphManager, error)

	role       atomic.Int32
	appliedSeq atomic.Uint64
	walSkipped atomic.Uint64 // records in the WAL the graph rejected (skipped, not fatal)
	tailErr    atomic.Value  // string: last tail-loop failure, "" when healthy

	// primaryHead is the primary's durable log end as of the last
	// successful fetch; headKnown separates "caught up to 0" from "never
	// reached the primary" so /readyz cannot answer ready before first
	// contact.
	primaryHead atomic.Uint64
	headKnown   atomic.Bool
	tailFails   *metrics.Counter // fetch/apply failures in the tail loop

	// reseedN counts completed automated truncate-and-resync runs (also a
	// registry counter); /replstatus reports it so operators can tell a
	// clean catch-up from one that started by discarding a diverged log.
	reseedN  atomic.Uint64
	reseeds  *metrics.Counter
	reseedMu sync.Mutex // serializes reseed runs against each other

	// The slot-migration ingest (resharding): at most one per node.
	migMu sync.Mutex
	mig   *migration

	// The append pipeline. Appends used to hold one lock across
	// validate → WAL write (fsync included) → graph apply → follower-ack
	// wait, so a node admitted one batch at a time and every batch paid
	// its own group commit. The path is now staged:
	//
	//   1. admission (admitMu, short): dedup lookup, order validation
	//      against admittedAt, WAL record write (StartAppend — no sync
	//      wait), dedup span registration, enqueue.
	//   2. durability: the applier waits for the group commit covering
	//      the batch; many admitted batches share one fsync.
	//   3. apply: the single applier goroutine applies batches in WAL
	//      sequence order — admission order == seq order == apply order,
	//      the invariant that keeps replay, followers, and dedup correct.
	//   4. ack: the handler waits for its req's done signal, then (when
	//      SyncFollowers > 0) for the seq-watermark follower acks, which
	//      overlap freely across batches.
	//
	// admitMu serializes admissions so sequence numbers are assigned in
	// validation order; queue order matches because enqueue happens
	// before admitMu is released.
	admitMu sync.Mutex
	// admittedSeq/admittedAt track the WAL's admitted end: the highest
	// sequence number and event time ever written into the local log
	// (admitted live, mirrored from a primary, or recovered by replay).
	// Admission validates against admittedAt — not the graph clock, which
	// trails by whatever is still queued — so a batch is rejected exactly
	// when its events would be rejected at apply time.
	admittedSeq atomic.Uint64
	admittedAt  atomic.Int64
	queue       chan *applyReq
	inflight    atomic.Int64 // admitted (logged) but not yet applied
	quit        chan struct{}
	applierDone chan struct{}
	stageDur    *metrics.HistogramVec // per-stage append latency

	// applyMu serializes graph application (the applier goroutine, the
	// follower tail loop, and construction-time replay) so the graph is
	// always driven forward in WAL sequence order.
	applyMu sync.Mutex

	// dedupMu guards the append-dedup table: batch ID -> extent of the
	// WAL records carrying it. It is rebuilt from the WAL on replay,
	// extended at admission time (so a retry racing the pipeline dedups
	// instead of double-logging), and extended by follower mirroring —
	// both a restarted node and a promoted follower recognize a batch a
	// coordinator retries after a failover or a lost response, and ack it
	// instead of logging and applying the events twice. batchOrder evicts
	// oldest-first once maxBatchIDs is reached.
	dedupMu    sync.Mutex
	batches    map[string]batchSpan
	batchOrder []string

	mu         sync.Mutex
	primaryURL string
	acks       map[string]uint64
	ackNotify  chan struct{}
	tailCancel context.CancelFunc
	tailDone   chan struct{}
	closed     bool
}

// applyReq is one admitted batch riding the pipeline queue: its decoded
// events, the WAL sequence span they were written under, and the done
// channel the admitting handler waits on. A redrive req (events nil,
// redrive true) asks the applier to drive the graph forward from the WAL
// through last — the queued form of the old backlog drain.
type applyReq struct {
	events  historygraph.EventList
	first   uint64
	last    uint64
	start   time.Time // when admission wrote the WAL records (zero on redrives)
	redrive bool
	done    chan applyDone // buffered 1; the applier always answers
}

// applyDone is the applier's answer to one request.
type applyDone struct {
	res wire.AppendResult
	err error
}

// batchSpan is one dedup-table entry: how many WAL records carry the batch
// ID and the highest sequence number among them.
type batchSpan struct {
	events  int
	lastSeq uint64
}

// maxBatchIDs bounds the dedup table. IDs are forgotten oldest-first, long
// after any coordinator retry of the batch could still be in flight.
const maxBatchIDs = 4096

// NewNode wraps srv with the replication layer over log. It replays the
// WAL into srv's GraphManager (events at or before the manager's LastTime
// are skipped, so a checkpointed index is topped up rather than
// double-applied) and, in the follower role, starts tailing the primary.
func NewNode(srv *server.Server, log *Log, cfg Config) (*Node, error) {
	n := &Node{
		srv:           srv,
		log:           log,
		selfID:        cfg.SelfID,
		syncFollowers: cfg.SyncFollowers,
		ackTimeout:    cfg.AckTimeout,
		pollWait:      cfg.PollWait,
		fetchMax:      cfg.FetchMax,
		readyMaxLag:   cfg.ReadyMaxLag,
		acks:          make(map[string]uint64),
		ackNotify:     make(chan struct{}),
		batches:       make(map[string]batchSpan),
	}
	if n.selfID == "" {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			return nil, err
		}
		n.selfID = hex.EncodeToString(b[:])
	}
	if n.ackTimeout <= 0 {
		n.ackTimeout = DefaultAckTimeout
	}
	if n.pollWait <= 0 {
		n.pollWait = DefaultPollWait
	}
	if n.fetchMax <= 0 {
		n.fetchMax = DefaultFetchMax
	}
	n.hc = cfg.HTTPClient
	if n.hc == nil {
		n.hc = &http.Client{}
	}
	n.newManager = cfg.NewManager
	n.queue = make(chan *applyReq, AppendQueue)
	n.quit = make(chan struct{})
	n.applierDone = make(chan struct{})
	n.tailErr.Store("")
	if err := n.replay(); err != nil {
		return nil, err
	}
	// The pipeline's admitted end starts at the replayed log's end: the
	// graph clock covers every durable record after replay.
	n.admittedSeq.Store(log.LastSeq())
	n.admittedAt.Store(int64(srv.Manager().LastTime()))
	go n.applier()

	reg := srv.Metrics()
	log.SetMetrics(reg)
	n.tailFails = reg.Counter("dg_replica_tail_failures_total",
		"Follower tail-loop failures (fetch errors, apply errors, backlog errors).")
	n.reseeds = reg.Counter("dg_replica_reseeds_total",
		"Automated truncate-and-resync runs: the node discarded a diverged WAL and re-tailed from scratch.")
	reg.GaugeFunc("dg_replica_ready", "1 when GET /readyz would answer 200, else 0.",
		func() float64 {
			if _, ready := n.readiness(); ready {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("dg_replica_is_primary", "1 when this node holds the primary role, else 0.",
		func() float64 {
			if n.Role() == RolePrimary {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("dg_replica_applied_seq", "Last WAL sequence applied to the in-memory graph.",
		func() float64 { return float64(n.appliedSeq.Load()) })
	reg.GaugeFunc("dg_replica_primary_head_seq",
		"Primary's durable log end as of the last successful fetch (0 before first contact).",
		func() float64 { return float64(n.primaryHead.Load()) })
	reg.GaugeFunc("dg_wal_last_seq", "Highest sequence number durably stored in the local WAL.",
		func() float64 { return float64(log.LastSeq()) })
	reg.GaugeFunc("dg_wal_size_bytes", "On-disk footprint of the local WAL in bytes.",
		func() float64 { return float64(log.SizeOnDisk()) })
	reg.GaugeFunc("dg_append_pipeline_queue_depth",
		"Append-pipeline batches admitted (written to the WAL) but not yet applied.",
		func() float64 { return float64(n.inflight.Load()) })
	n.stageDur = reg.HistogramVec("dg_append_stage_duration_seconds",
		"Append pipeline per-stage wall time: validate (admission lock, dedup, order check, WAL record write), log (queue wait plus group-commit sync), apply (graph application), ack (follower-ack wait).",
		nil, "stage")

	mux := http.NewServeMux()
	// The replication endpoints are wrapped individually so they share the
	// server's request metrics and request-ID threading; "/" is already
	// instrumented inside srv.Handler() and must not be wrapped twice.
	mux.Handle("POST /append", srv.InstrumentHandler(http.HandlerFunc(n.handleAppend)))
	mux.Handle("GET /replicate", srv.InstrumentHandler(http.HandlerFunc(n.handleReplicate)))
	mux.Handle("GET /replstatus", srv.InstrumentHandler(http.HandlerFunc(n.handleStatus)))
	mux.Handle("POST /role", srv.InstrumentHandler(http.HandlerFunc(n.handleRole)))
	mux.Handle("POST /admin/migrate", srv.InstrumentHandler(http.HandlerFunc(n.handleMigrate)))
	mux.Handle("GET /admin/migrate", srv.InstrumentHandler(http.HandlerFunc(n.handleMigrateStatus)))
	mux.Handle("POST /admin/reseed", srv.InstrumentHandler(http.HandlerFunc(n.handleReseed)))
	// /readyz carries replication state (role, catch-up lag); it shadows the
	// wrapped server's bare always-ready answer.
	mux.Handle("GET /readyz", srv.InstrumentHandler(http.HandlerFunc(n.handleReadyz)))
	mux.Handle("/", srv.Handler())
	n.mux = mux

	if cfg.Role == RoleFollower {
		if cfg.PrimaryURL == "" {
			return nil, fmt.Errorf("replica: follower role requires PrimaryURL")
		}
		n.role.Store(int32(RoleFollower))
		n.mu.Lock()
		n.primaryURL = cfg.PrimaryURL
		n.startTailLocked()
		n.mu.Unlock()
	}
	return n, nil
}

// replay rebuilds the in-memory graph from the local WAL. Events at or
// before the manager's current LastTime are skipped: a fresh manager
// replays everything, a checkpoint-loaded one only the suffix the
// checkpoint predates.
func (n *Node) replay() error {
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	if err := n.applyLoggedLocked(n.srv.Manager().LastTime()); err != nil {
		return fmt.Errorf("replica: WAL replay: %w", err)
	}
	return nil
}

// applyLoggedLocked drives the in-memory graph forward from the local WAL
// until every record past appliedSeq is applied or deliberately skipped;
// the caller holds applyMu. It is the one path from log to graph —
// construction-time replay, the follower tail loop, and the applier's
// redrive all run through it — so a record that was durably logged but
// never applied (the process died between the two steps, or a previous
// apply failed) is re-driven from the log instead of silently skipped when
// later records arrive.
//
// checkpointFloor > 0 skips events at or before the checkpoint the graph
// was loaded from (replay tops a checkpoint up, it must not double-apply
// it). Independently, events older than the index clock — which the graph
// rejects — are dropped and counted in wal_skipped rather than treated as
// fatal: the live append path refuses such batches before logging them
// (see handleAppend), so they only exist in WALs written before that guard
// or mirrored from one, and recovery must degrade exactly like the live
// path did — reject the event, keep the node serving.
func (n *Node) applyLoggedLocked(checkpointFloor historygraph.Time) error {
	for {
		recs, err := n.log.Read(n.appliedSeq.Load()+1, n.fetchMax)
		if err != nil {
			return err
		}
		if len(recs) == 0 {
			return nil
		}
		if err := n.applyRecordsLocked(recs, checkpointFloor); err != nil {
			return err
		}
	}
}

// applyRecordsLocked applies one contiguous run of records (starting at
// appliedSeq+1) to the graph; the caller holds applyMu. Counters, dedup
// spans, and appliedSeq advance only for the settled prefix: on a partial
// apply failure the exact applied count (AppendResult.Appended) marks
// where the run stopped, so the retry resumes at the failing event —
// never re-applying an event that landed (equal timestamps make At-based
// dedup impossible) and never double-counting wal_skipped or inflating a
// batch's dedup span.
func (n *Node) applyRecordsLocked(recs []Record, checkpointFloor historygraph.Time) error {
	clock := n.srv.Manager().LastTime()
	events := make(historygraph.EventList, 0, len(recs))
	seqOf := make([]uint64, 0, len(recs)) // record seq per kept event
	stale := make([]bool, len(recs))      // record was poison (not checkpoint-covered)
	for i, rec := range recs {
		ev := rec.Event
		switch {
		case checkpointFloor > 0 && ev.At <= checkpointFloor:
			// Already part of the loaded checkpoint.
		case ev.At < clock:
			stale[i] = true // poison record a pre-guard WAL logged
		default:
			events = append(events, ev)
			seqOf = append(seqOf, rec.Seq)
			clock = ev.At
		}
	}
	res, appendErr := n.srv.ApplyEvents(events)
	settled := recs[len(recs)-1].Seq
	if appendErr != nil && res.Appended < len(events) {
		// Everything before the first unapplied event's record is settled
		// (applied or deliberately skipped).
		settled = seqOf[res.Appended] - 1
	}
	skipped := uint64(0)
	for i, rec := range recs {
		if rec.Seq > settled {
			break
		}
		n.recordBatch(rec.Batch, 1, rec.Seq)
		if stale[i] {
			skipped++
		}
	}
	n.walSkipped.Add(skipped)
	if settled > n.appliedSeq.Load() {
		n.appliedSeq.Store(settled)
	}
	return appendErr
}

// recordBatch extends the dedup table with events more records of batch,
// the highest at lastSeq. Records at or below a known span's lastSeq are
// already counted (the redrive path can re-read records admission already
// registered) and are skipped.
func (n *Node) recordBatch(batch string, events int, lastSeq uint64) {
	if batch == "" {
		return
	}
	n.dedupMu.Lock()
	defer n.dedupMu.Unlock()
	span, known := n.batches[batch]
	if known && lastSeq <= span.lastSeq {
		return
	}
	if !known {
		if len(n.batchOrder) >= maxBatchIDs {
			delete(n.batches, n.batchOrder[0])
			n.batchOrder = n.batchOrder[1:]
		}
		n.batchOrder = append(n.batchOrder, batch)
	}
	span.events += events
	if lastSeq > span.lastSeq {
		span.lastSeq = lastSeq
	}
	n.batches[batch] = span
}

// Role returns the node's current role.
func (n *Node) Role() Role { return Role(n.role.Load()) }

// AppliedSeq returns the last WAL sequence applied to the in-memory graph.
func (n *Node) AppliedSeq() uint64 { return n.appliedSeq.Load() }

// SelfID returns the node's follower-ack identity.
func (n *Node) SelfID() string { return n.selfID }

// Handler returns the node's HTTP handler: the wrapped server's endpoints
// plus /replicate, /replstatus and /role, with /append intercepted.
func (n *Node) Handler() http.Handler { return n.mux }

// Close stops the tail loop and the append pipeline's applier, failing
// any admitted-but-unapplied batches (their records are durably logged
// and replay on restart, exactly like a crash between log and apply). The
// wrapped server and WAL are the caller's to close, in that order.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.stopTailLocked()
	n.mu.Unlock()
	// Stop the migration ingest while the applier still runs: the merger
	// may be mid-migrateAppend, and stopping it first lets that batch
	// settle normally instead of racing the pipeline shutdown.
	n.stopMigration()
	close(n.quit)
	<-n.applierDone
}

// --- append path (primary) -------------------------------------------

// errNodeClosed fails pipeline requests caught by Close.
var errNodeClosed = fmt.Errorf("replica: node closed")

func (n *Node) handleAppend(w http.ResponseWriter, r *http.Request) {
	if !n.srv.CheckEpoch(w, r) {
		return
	}
	if n.Role() != RolePrimary {
		n.mu.Lock()
		primary := n.primaryURL
		n.mu.Unlock()
		server.WriteJSON(w, http.StatusMisdirectedRequest, map[string]string{
			"error":   "replica: this node is a follower; appends go to the primary",
			"primary": primary,
		})
		return
	}
	if server.BoolParam(r.URL.Query().Get("stream")) {
		n.handleAppendStream(w, r)
		return
	}
	var events historygraph.EventList
	if err := server.ReadBody(r, &events); err != nil {
		server.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad append body: %w", err))
		return
	}
	res, status, err := n.append(events, r.URL.Query().Get("batch"))
	if err != nil {
		server.WriteError(w, status, err)
		return
	}
	server.WriteWire(w, r, http.StatusOK, res)
}

// append runs one batch through the pipeline end to end: admit (validate +
// log + enqueue), wait for the applier's answer, then the follower-ack
// wait. It returns the HTTP status to use on error.
func (n *Node) append(events historygraph.EventList, batch string) (wire.AppendResult, int, error) {
	ad, status, err := n.admit(events, batch)
	if err != nil {
		return wire.AppendResult{}, status, err
	}
	res, err := n.settle(ad)
	if err != nil {
		return wire.AppendResult{}, http.StatusInternalServerError, err
	}
	if ad.acked > 0 && n.syncFollowers > 0 {
		ackStart := time.Now()
		if !n.waitForAcks(ad.acked, n.syncFollowers) {
			return wire.AppendResult{}, http.StatusServiceUnavailable, fmt.Errorf(
				"replica: %d follower(s) did not confirm seq %d within %v (events are logged and will replicate; batch was NOT acked)",
				n.syncFollowers, ad.acked, n.ackTimeout)
		}
		n.obsStage("ack", ackStart)
	}
	return res, http.StatusOK, nil
}

// admitted is an admission's outcome: either a queued pipeline request
// (req != nil) or a dedup/empty answer the caller can settle without one.
// acked is the sequence the follower-ack wait must cover (0 when nothing
// needs follower confirmation).
type admitted struct {
	req     *applyReq
	res     wire.AppendResult // answer when req == nil
	resumed int
	last    uint64
	acked   uint64
}

// admit is stage 1 of the pipeline: under the admission lock it checks the
// dedup table, validates event order against the admitted clock, writes
// the batch's WAL records (without waiting for the group sync), registers
// the dedup span, and enqueues the apply request. The admission lock is
// held for none of the durability or apply work, so admissions overlap
// both — its hold time is the pipeline's serial section.
func (n *Node) admit(events historygraph.EventList, batch string) (admitted, int, error) {
	vStart := time.Now()
	n.admitMu.Lock()
	// Records can sit in the WAL that the pipeline never admitted — a test
	// or tool wrote the log directly, or a mirrored prefix outlived a
	// deposed primary. Drive them through the applier before admitting
	// against the dedup table, exactly like the old backlog drain: the
	// redrive registers their batch spans and advances the graph clock.
	if head := n.log.LastSeq(); head > n.admittedSeq.Load() {
		if err := n.redriveLocked(head); err != nil {
			n.admitMu.Unlock()
			return admitted{}, http.StatusInternalServerError, fmt.Errorf("replica: WAL backlog apply: %w", err)
		}
		n.raiseAdmitted(head, n.srv.Manager().LastTime())
	}
	resumed := 0
	if batch != "" {
		n.dedupMu.Lock()
		span, seen := n.batches[batch]
		n.dedupMu.Unlock()
		if seen {
			if span.events >= len(events) {
				// The whole batch is already in the WAL — a coordinator
				// retrying after a failover or a lost response must not
				// log and apply it twice. Make sure it is applied (the
				// original may still be in flight, or its apply may have
				// failed), then ack it as the original append would have.
				var err error
				if n.appliedSeq.Load() < span.lastSeq {
					err = n.redriveLocked(span.lastSeq)
				}
				n.admitMu.Unlock()
				if err != nil {
					return admitted{}, http.StatusInternalServerError, err
				}
				return admitted{
					res: wire.AppendResult{
						Appended: span.events,
						LastTime: int64(n.srv.Manager().LastTime()),
						Seq:      span.lastSeq,
						Deduped:  true,
					},
					last:  span.lastSeq,
					acked: span.lastSeq,
				}, http.StatusOK, nil
			}
			// The node holds only a prefix of the batch: a mid-batch
			// primary failure cut the replication stream short of the
			// last records. Retries resend the identical batch, so append
			// the remainder under the same ID, picking up exactly where
			// the mirrored records stop — a full re-append would
			// duplicate the prefix, a full dedup ack would silently drop
			// the suffix.
			resumed = span.events
			events = events[resumed:]
		}
	}
	// Reject what the graph would reject while the log is still clean: the
	// graph refuses events older than its clock (an ordinary 422), and
	// logging such a batch first would leave poison records that every
	// restart replay and every follower re-hits forever. The admitted
	// clock stands in for the graph clock, which trails it by whatever the
	// pipeline still holds.
	if err := validateOrder(historygraph.Time(n.admittedAt.Load()), events); err != nil {
		n.admitMu.Unlock()
		return admitted{}, http.StatusUnprocessableEntity, err
	}
	if len(events) == 0 {
		seq := n.admittedSeq.Load()
		n.admitMu.Unlock()
		return admitted{
			res: wire.AppendResult{
				Appended: resumed,
				LastTime: int64(n.srv.Manager().LastTime()),
				Seq:      seq,
				Deduped:  resumed > 0,
			},
			last: seq,
		}, http.StatusOK, nil
	}
	first, last, err := n.log.StartAppend(events, batch)
	if err != nil {
		n.admitMu.Unlock()
		return admitted{}, http.StatusInternalServerError, fmt.Errorf("replica: WAL append: %w", err)
	}
	// Register the span before the records are even durable: a retry
	// racing the pipeline must dedup against the in-flight original, not
	// append the batch a second time behind it.
	n.recordBatch(batch, len(events), last)
	n.raiseAdmitted(last, events[len(events)-1].At)
	req := &applyReq{events: events, first: first, last: last, start: vStart, done: make(chan applyDone, 1)}
	n.inflight.Add(1)
	n.obsStage("validate", vStart)
	select {
	case n.queue <- req: // blocking here (queue full) is the backpressure
	case <-n.quit:
		n.inflight.Add(-1)
		n.admitMu.Unlock()
		return admitted{}, http.StatusServiceUnavailable, errNodeClosed
	}
	n.admitMu.Unlock()
	return admitted{req: req, resumed: resumed, last: last, acked: last}, http.StatusOK, nil
}

// settle waits for an admission's apply outcome and assembles the final
// AppendResult (follower acks are the caller's, so a dedup ack and a live
// append share one ack path).
func (n *Node) settle(ad admitted) (wire.AppendResult, error) {
	if ad.req == nil {
		return ad.res, nil
	}
	d := n.await(ad.req)
	if d.err != nil {
		// Ordering was validated before the WAL write, so this is an
		// internal failure (index store I/O), not a client error; the
		// batch is durably logged and the applier re-drives the unapplied
		// tail on the next append or restart.
		return wire.AppendResult{}, d.err
	}
	res := d.res
	res.Seq = ad.last
	res.Appended += ad.resumed
	res.Deduped = ad.resumed > 0
	return res, nil
}

// raiseAdmitted advances the admitted end of the WAL (monotonic).
func (n *Node) raiseAdmitted(seq uint64, at historygraph.Time) {
	for {
		cur := n.admittedSeq.Load()
		if seq <= cur || n.admittedSeq.CompareAndSwap(cur, seq) {
			break
		}
	}
	for {
		cur := n.admittedAt.Load()
		if int64(at) <= cur || n.admittedAt.CompareAndSwap(cur, int64(at)) {
			break
		}
	}
}

// redriveLocked (caller holds admitMu) enqueues a redrive request asking
// the applier to drive the graph through WAL sequence `through`, and waits
// for it. Because the queue is FIFO and admissions are serialized, by the
// time the redrive runs every previously admitted batch has been applied.
func (n *Node) redriveLocked(through uint64) error {
	req := &applyReq{last: through, redrive: true, done: make(chan applyDone, 1)}
	n.inflight.Add(1)
	select {
	case n.queue <- req:
	case <-n.quit:
		n.inflight.Add(-1)
		return errNodeClosed
	}
	return n.await(req).err
}

// await blocks for a queued request's answer. The applier always answers
// what it dequeues, but a request enqueued in the same instant Close's
// drain finishes would otherwise wait forever — applierDone breaks the
// race.
func (n *Node) await(req *applyReq) applyDone {
	select {
	case d := <-req.done:
		return d
	case <-n.applierDone:
		select {
		case d := <-req.done:
			return d
		default:
			return applyDone{err: errNodeClosed}
		}
	}
}

// obsStage records one pipeline stage's wall time.
func (n *Node) obsStage(stage string, start time.Time) {
	if n.stageDur != nil {
		n.stageDur.With(stage).Observe(time.Since(start).Seconds())
	}
}

// applier is the pipeline's single apply goroutine: it consumes admitted
// batches in queue order (== WAL sequence order), waits for the group
// commit covering each, and applies them to the graph — the one writer
// that keeps sequence order == apply order while admissions and
// durability waits overlap freely. It exits on Close, failing whatever is
// still queued.
func (n *Node) applier() {
	defer close(n.applierDone)
	for {
		select {
		case req := <-n.queue:
			n.process(req)
		case <-n.quit:
			for {
				select {
				case req := <-n.queue:
					req.done <- applyDone{err: errNodeClosed}
					n.inflight.Add(-1)
				default:
					return
				}
			}
		}
	}
}

// process runs stages 2 and 3 for one request: durability, then in-order
// graph application.
func (n *Node) process(req *applyReq) {
	defer n.inflight.Add(-1)
	logStart := time.Now()
	if err := n.log.WaitDurable(req.last); err != nil {
		req.done <- applyDone{err: fmt.Errorf("replica: WAL append: %w", err)}
		return
	}
	if !req.start.IsZero() {
		n.log.ObserveAppend(req.start)
	}
	n.obsStage("log", logStart)
	applyStart := time.Now()
	n.applyMu.Lock()
	var d applyDone
	switch applied := n.appliedSeq.Load(); {
	case applied >= req.last:
		// A redrive triggered by a later retry already carried these
		// records into the graph.
		d.res = wire.AppendResult{Appended: len(req.events), LastTime: int64(n.srv.Manager().LastTime())}
	case !req.redrive && applied == req.first-1:
		// Steady state: the decoded events apply straight from memory.
		res, appendErr := n.srv.ApplyEvents(req.events)
		// res.Appended is the exact applied count even on failure, so
		// appliedSeq settles precisely at the last applied record — never
		// past a hole (which would mislead most-caught-up promotion and
		// in-sync routing) and never behind the true position (which
		// would re-apply landed events on the next redrive).
		if settled := req.last - uint64(len(req.events)-res.Appended); settled > applied {
			n.appliedSeq.Store(settled)
		}
		d = applyDone{res: res, err: appendErr}
	default:
		// A hole precedes this batch (an earlier apply failed partway, or
		// this is a redrive of records the pipeline never decoded): drive
		// the graph forward from the WAL itself.
		err := n.applyLoggedLocked(0)
		if n.appliedSeq.Load() >= req.last {
			// This request's records settled even if a later record
			// failed; the failure belongs to that record's own request.
			d.res = wire.AppendResult{Appended: len(req.events), LastTime: int64(n.srv.Manager().LastTime())}
		} else {
			if err == nil {
				err = fmt.Errorf("replica: WAL redrive stopped at seq %d before %d", n.appliedSeq.Load(), req.last)
			}
			d.err = err
		}
	}
	n.applyMu.Unlock()
	n.obsStage("apply", applyStart)
	req.done <- d
}

// validateOrder rejects a batch the graph would refuse: events must be
// time-ordered within the batch and none may predate clock (the index
// only ever moves forward). It mirrors the deltagraph append check so a
// rejection happens before anything reaches the WAL.
func validateOrder(clock historygraph.Time, events historygraph.EventList) error {
	for _, ev := range events {
		if ev.At < clock {
			return fmt.Errorf("replica: event at %d is older than last event at %d", ev.At, clock)
		}
		clock = ev.At
	}
	return nil
}

// recordAck notes that follower id has durably logged every record up to
// seq.
func (n *Node) recordAck(id string, seq uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.acks[id] >= seq {
		return
	}
	n.acks[id] = seq
	close(n.ackNotify)
	n.ackNotify = make(chan struct{})
}

// waitForAcks blocks until count followers have acked seq or AckTimeout
// elapses.
func (n *Node) waitForAcks(seq uint64, count int) bool {
	deadline := time.NewTimer(n.ackTimeout)
	defer deadline.Stop()
	for {
		n.mu.Lock()
		got := 0
		for _, a := range n.acks {
			if a >= seq {
				got++
			}
		}
		ch := n.ackNotify
		n.mu.Unlock()
		if got >= count {
			return true
		}
		select {
		case <-ch:
		case <-deadline.C:
			return false
		}
	}
}

// --- replication stream (primary side) --------------------------------

// replicateResponse is the GET /replicate body. NextFrom and LastTime are
// set on slot-filtered fetches only: filtered-out records still advance
// the scan, so the puller resumes at NextFrom rather than past the last
// returned record; LastTime is the source's safe time horizon — every
// record it will ever serve past NextFrom carries an event time at or
// after it (WAL records are time-ordered).
type replicateResponse struct {
	Records  []Record `json:"records"`
	LastSeq  uint64   `json:"last_seq"`
	NextFrom uint64   `json:"next_from,omitempty"`
	LastTime int64    `json:"last_time,omitempty"`
}

func (n *Node) handleReplicate(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if err != nil || from == 0 {
		server.WriteError(w, http.StatusBadRequest, fmt.Errorf("replicate wants from=<seq> >= 1"))
		return
	}
	max := n.fetchMax
	if mq := q.Get("max"); mq != "" {
		if m, err := strconv.Atoi(mq); err == nil && m > 0 && m < max {
			max = m
		}
	}
	var slots *slotSet
	if sq := q.Get("slots"); sq != "" {
		if q.Get("id") != "" {
			server.WriteError(w, http.StatusBadRequest,
				fmt.Errorf("slots= and id= are mutually exclusive: a migration fetch is not a follower ack"))
			return
		}
		ss, err := parseSlotBitmap(sq)
		if err != nil {
			server.WriteError(w, http.StatusBadRequest, err)
			return
		}
		slots = &ss
	} else if id := q.Get("id"); id != "" && from > 1 {
		// from=N acknowledges that the caller has durably logged 1..N-1 —
		// but never past this node's own durable end: followers are only
		// ever served durable records, so a larger claim is not a copy of
		// this log (a stray client, or a follower that outran a newly
		// promoted primary) and must not release a -sync-followers wait.
		n.recordAck(id, min(from-1, n.log.LastSeq()))
	}
	if wq := q.Get("wait"); wq != "" {
		if wait, err := time.ParseDuration(wq); err == nil && wait > 0 {
			if wait > n.pollWait {
				wait = n.pollWait
			}
			n.log.Wait(from-1, wait) // long-poll until the log grows past from-1
		}
	}
	recs, err := n.log.Read(from, max)
	if err != nil {
		server.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	out := replicateResponse{Records: recs, LastSeq: n.log.LastSeq()}
	if slots != nil {
		// The scan cursor and time horizon come from the unfiltered page:
		// a record outside the requested slots is consumed (never served
		// to this puller again) and still bounds the times of everything
		// after it.
		out.NextFrom = from
		if len(recs) > 0 {
			out.NextFrom = recs[len(recs)-1].Seq + 1
			out.LastTime = int64(recs[len(recs)-1].Event.At)
		}
		out.Records = recs[:0]
		for _, rec := range recs {
			if slots.has(graph.Slot(rec.Event.Node)) {
				out.Records = append(out.Records, rec)
			}
		}
	}
	// Followers ask for the binary stream (one encoder per batch, interned
	// keys, no per-record JSON); anything else gets the JSON body so old
	// followers keep tailing a new primary.
	if wire.Negotiate(r.Header.Get("Accept")).Name() == wire.NameBinary {
		w.Header().Set("Content-Type", wire.ContentTypeBinary)
		w.WriteHeader(http.StatusOK)
		w.Write(encodeReplicate(out, slots != nil))
		return
	}
	server.WriteJSON(w, http.StatusOK, out)
}

// --- status and role control ------------------------------------------

// StatusJSON answers GET /replstatus; the shard coordinator's health
// checks and failover decisions read it.
type StatusJSON struct {
	ID         string `json:"id"`
	Role       string `json:"role"`
	Primary    string `json:"primary,omitempty"`
	LastSeq    uint64 `json:"last_seq"`
	AppliedSeq uint64 `json:"applied_seq"`
	// LogAppliedGap is LastSeq - AppliedSeq: durably logged records the
	// in-memory graph has not absorbed yet. Under load it tracks the
	// append pipeline's in-flight depth (batches between their group
	// commit and their apply); a gap that persists while the node is idle
	// means apply is failing — check wal_skipped and the node's log.
	LogAppliedGap uint64 `json:"log_applied_gap"`
	// WALSkipped counts logged records the graph rejected as out of order
	// and recovery deliberately skipped (poison from a WAL written before
	// the validate-before-log guard). Non-zero means the log holds records
	// that are not in the graph — worth an operator's look, not fatal.
	WALSkipped uint64 `json:"wal_skipped,omitempty"`
	TailError  string `json:"tail_error,omitempty"`
	// Reseeds counts completed automated truncate-and-resync runs: each is
	// one diverged WAL this node discarded and rebuilt from its primary.
	Reseeds uint64 `json:"reseeds,omitempty"`
	// Migration is the slot-migration ingest state, present once a
	// migration has been started on this node (resharding target).
	Migration *MigrateStatus `json:"migration,omitempty"`
}

func (n *Node) handleStatus(w http.ResponseWriter, r *http.Request) {
	n.mu.Lock()
	primary := n.primaryURL
	n.mu.Unlock()
	last, applied := n.log.LastSeq(), n.appliedSeq.Load()
	gap := uint64(0)
	if last > applied {
		gap = last - applied
	}
	server.WriteJSON(w, http.StatusOK, StatusJSON{
		ID:            n.selfID,
		Role:          n.Role().String(),
		Primary:       primary,
		LastSeq:       last,
		AppliedSeq:    applied,
		LogAppliedGap: gap,
		WALSkipped:    n.walSkipped.Load(),
		TailError:     n.tailErr.Load().(string),
		Reseeds:       n.reseedN.Load(),
		Migration:     n.migrationStatus(),
	})
}

// readiness reports whether the node should receive traffic, and why not
// when it shouldn't. A primary is ready once its graph has absorbed its
// whole WAL. A follower is ready when its tail loop is healthy, it has
// reached its primary at least once, and its applied position trails the
// primary's last known head by at most ReadyMaxLag records.
func (n *Node) readiness() (reason string, ready bool) {
	if n.Role() == RolePrimary {
		// A durable-vs-applied gap with pipeline work in flight is the
		// healthy steady state under load — the applier is draining it.
		// Only a gap with nothing in flight is a real backlog (an apply
		// failed, or the log was written behind the pipeline's back).
		if applied, head := n.appliedSeq.Load(), n.log.LastSeq(); applied != head && n.inflight.Load() == 0 {
			return fmt.Sprintf("WAL backlog: applied seq %d, log ends at %d", applied, head), false
		}
		return "", true
	}
	if msg := n.tailErr.Load().(string); msg != "" {
		return "tail loop failing: " + msg, false
	}
	if !n.headKnown.Load() {
		return "no successful fetch from the primary yet", false
	}
	if applied, head := n.appliedSeq.Load(), n.primaryHead.Load(); applied+n.readyMaxLag < head {
		return fmt.Sprintf("lagging primary: applied seq %d, primary head %d, max lag %d",
			applied, head, n.readyMaxLag), false
	}
	return "", true
}

// handleReadyz answers GET /readyz with the node's replication readiness:
// 200 when the node should receive traffic, 503 with a reason when it is
// catching up, cut off from its primary, or draining a WAL backlog.
// Liveness stays on /healthz, which the wrapped server answers.
func (n *Node) handleReadyz(w http.ResponseWriter, r *http.Request) {
	role := n.Role().String()
	if reason, ready := n.readiness(); !ready {
		server.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{
			"status": "not ready",
			"role":   role,
			"reason": reason,
		})
		return
	}
	server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ready", "role": role})
}

// RoleRequest is the POST /role body: {"role":"primary"} promotes,
// {"role":"follower","primary":"http://..."} (re)points a follower.
type RoleRequest struct {
	Role    string `json:"role"`
	Primary string `json:"primary,omitempty"`
}

func (n *Node) handleRole(w http.ResponseWriter, r *http.Request) {
	var req RoleRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		server.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad role body: %w", err))
		return
	}
	switch req.Role {
	case "primary":
		n.Promote()
	case "follower":
		if req.Primary == "" {
			server.WriteError(w, http.StatusBadRequest, fmt.Errorf("follower role wants a primary URL"))
			return
		}
		n.Follow(req.Primary)
	default:
		server.WriteError(w, http.StatusBadRequest, fmt.Errorf("unknown role %q (want primary or follower)", req.Role))
		return
	}
	n.handleStatus(w, r)
}

// Promote switches the node to the primary role: the tail loop stops and
// external appends are accepted from now on. Idempotent.
func (n *Node) Promote() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stopTailLocked()
	n.primaryURL = ""
	n.role.Store(int32(RolePrimary))
	n.tailErr.Store("")
}

// Follow switches the node to the follower role tailing primaryURL,
// restarting the tail loop if it was already following elsewhere.
func (n *Node) Follow(primaryURL string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stopTailLocked()
	n.primaryURL = primaryURL
	n.role.Store(int32(RoleFollower))
	// The head position learned from a previous primary says nothing about
	// the new one; /readyz must wait for first contact again.
	n.headKnown.Store(false)
	n.primaryHead.Store(0)
	n.tailErr.Store("")
	if !n.closed {
		n.startTailLocked()
	}
}

// --- follower tail loop -----------------------------------------------

func (n *Node) startTailLocked() {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	n.tailCancel = cancel
	n.tailDone = done
	primary := n.primaryURL
	go n.tailLoop(ctx, primary, done)
}

func (n *Node) stopTailLocked() {
	if n.tailCancel != nil {
		n.tailCancel()
		<-n.tailDone
		n.tailCancel = nil
		n.tailDone = nil
	}
}

// tailLoop fetches records from the primary and applies them in order:
// local WAL first (synced), then the in-memory graph — the same
// durability order the primary itself uses, so a follower crash replays
// its own log and re-fetches only what it never stored.
func (n *Node) tailLoop(ctx context.Context, primary string, done chan struct{}) {
	defer close(done)
	backoff := func() bool {
		select {
		case <-time.After(DefaultRetryDelay):
			return true
		case <-ctx.Done():
			return false
		}
	}
	// Lineage handshake: before mirroring anything, verify the local log
	// is a prefix of the primary's. A deposed primary rejoining as a
	// follower can hold an unacked tail the new primary never had — with a
	// plain fetch from LastSeq+1 that divergence is silent (the primary's
	// head is simply shorter, the loop idles "caught up" with conflicting
	// history). Detected divergence triggers the automated
	// truncate-and-resync when a manager factory is configured.
	for ctx.Err() == nil {
		diverged, err := n.checkLineage(ctx, primary)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			n.tailErr.Store(err.Error())
			n.tailFails.Inc()
			if !backoff() {
				return
			}
			continue
		}
		if !diverged {
			break
		}
		if err := n.reseed(primary); err != nil {
			n.tailErr.Store(err.Error())
			n.tailFails.Inc()
			if !backoff() {
				return
			}
			continue
		}
		n.tailErr.Store("")
		break
	}
	for ctx.Err() == nil {
		// Logged-but-unapplied records come first: fetch resumes from the
		// log's end, so anything a failed or interrupted apply left behind
		// must catch up from the local log, not the network — otherwise a
		// later successful batch would advance appliedSeq past the hole
		// and the member would report in-sync with events missing from its
		// graph.
		if err := n.applyBacklog(); err != nil {
			n.tailErr.Store(err.Error())
			n.tailFails.Inc()
			if !backoff() {
				return
			}
			continue
		}
		recs, err := n.fetch(ctx, primary)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			n.tailErr.Store(err.Error())
			n.tailFails.Inc()
			if !backoff() {
				return
			}
			continue
		}
		n.tailErr.Store("")
		if len(recs) == 0 {
			continue // long-poll expired with nothing new
		}
		if err := n.apply(recs); err != nil {
			// A sequence gap or apply failure means the logs diverged
			// (e.g. this node outlived a deposed primary's unacked tail).
			// Surface it in /replstatus and keep retrying — the operator
			// must re-seed the WAL dir.
			n.tailErr.Store(err.Error())
			n.tailFails.Inc()
			if !backoff() {
				return
			}
		}
	}
}

// fetch long-polls the primary for records past the local log end.
func (n *Node) fetch(ctx context.Context, primary string) ([]Record, error) {
	from := n.log.LastSeq() + 1
	body, err := n.fetchReplicate(ctx, fmt.Sprintf("%s/replicate?from=%d&max=%d&wait=%s&id=%s",
		primary, from, n.fetchMax, n.pollWait, n.selfID))
	if err != nil {
		return nil, err
	}
	n.noteHead(body.LastSeq)
	return body.Records, nil
}

// fetchReplicate runs one GET against a /replicate URL and decodes the
// response. It advertises the binary stream; a primary that predates it
// answers JSON and the Content-Type tells the two apart. The tail loop,
// the lineage handshake, and the migration puller all fetch through it.
func (n *Node) fetchReplicate(ctx context.Context, url string) (replicateResponse, error) {
	reqCtx, cancel := context.WithTimeout(ctx, n.pollWait+10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(reqCtx, http.MethodGet, url, nil)
	if err != nil {
		return replicateResponse{}, err
	}
	req.Header.Set("Accept", wire.ContentTypeBinary)
	resp, err := n.hc.Do(req)
	if err != nil {
		return replicateResponse{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return replicateResponse{}, fmt.Errorf("replica: primary answered HTTP %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return replicateResponse{}, err
	}
	if wire.ForContentType(resp.Header.Get("Content-Type")).Name() == wire.NameBinary {
		return decodeReplicate(raw)
	}
	var body replicateResponse
	if err := json.Unmarshal(raw, &body); err != nil {
		return replicateResponse{}, err
	}
	return body, nil
}

// noteHead records the primary's durable log end from a fetch response;
// /readyz compares it against the local applied position.
func (n *Node) noteHead(head uint64) {
	n.primaryHead.Store(head)
	n.headKnown.Store(true)
}

// apply mirrors fetched records into the local WAL, then drives the graph
// forward. In the steady state (no backlog) the fetched records are
// applied straight from memory; only when logged-but-unapplied records
// precede them does the slower read-back-from-the-log path run.
func (n *Node) apply(recs []Record) error {
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	caughtUp := n.appliedSeq.Load() == n.log.LastSeq()
	if err := n.log.AppendRecords(recs); err != nil {
		return err
	}
	// The mirrored records are durable: raise the admitted marks and
	// register their dedup spans now, before the graph apply, so a
	// promotion that lands between the two steps still sees them — the
	// first post-promotion retry of a half-replicated batch must dedup
	// and resume, not re-append.
	for _, rec := range recs {
		n.raiseAdmitted(rec.Seq, historygraph.Time(rec.Event.At))
		n.recordBatch(rec.Batch, 1, rec.Seq)
	}
	if !caughtUp {
		return n.applyLoggedLocked(0)
	}
	for len(recs) > 0 && recs[0].Seq <= n.appliedSeq.Load() {
		recs = recs[1:] // overlapping re-fetch, already settled
	}
	if len(recs) == 0 {
		return nil
	}
	return n.applyRecordsLocked(recs, 0)
}

// applyBacklog applies any records sitting in the local WAL but not yet in
// the graph — the recovery half of the tail loop's fetch/apply cycle.
func (n *Node) applyBacklog() error {
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	return n.applyLoggedLocked(0)
}
