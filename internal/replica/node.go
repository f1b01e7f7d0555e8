package replica

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"historygraph"
	"historygraph/internal/metrics"
	"historygraph/internal/server"
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
	reseedN atomic.Uint64
	reseeds *metrics.Counter

	// The write path is staged, so admissions, group commits and applies
	// of different batches overlap:
	//
	//   1. write (append.go; admitMu, short): dedup lookup, order check
	//      against admittedAt, WAL record write with no sync wait, dedup
	//      span registration, ticket to the applier. A follower's mirror
	//      (follower.go) is the same stage fed from the primary's log.
	//   2. durability: the applier waits for the group commit covering
	//      the ticket; many admitted batches share one fsync.
	//   3. apply (applier.go): the single applier goroutine advances the
	//      cursor ticket by ticket — admission order == seq order ==
	//      apply order, the invariant that keeps replay, followers, and
	//      dedup correct.
	//   4. ack: the writer waits for its ticket's answer, then (when
	//      SyncFollowers > 0) for the seq-watermark follower acks, which
	//      overlap freely across batches.
	//
	// admitMu serializes admissions so sequence numbers are assigned in
	// validation order; queue order matches because the ticket is handed
	// over before admitMu is released.
	admitMu sync.Mutex
	// admittedSeq/admittedAt track the WAL's admitted end: the highest
	// sequence number and event time ever written into the local log
	// (admitted live, mirrored from a primary, or recovered by replay).
	// Admission validates against admittedAt — not the graph clock, which
	// trails by whatever is still queued — so a batch is rejected exactly
	// when its events would be rejected at apply time.
	admittedSeq atomic.Uint64
	admittedAt  atomic.Int64
	stageDur    *metrics.HistogramVec // per-stage append latency

	// The applier's state (applier.go). appliedSeq is the cursor: written
	// by the applier alone (and by NewNode before the applier starts),
	// read everywhere.
	queue       chan *ticket
	inflight    atomic.Int64 // tickets handed over but not yet answered
	quit        chan struct{}
	applierDone chan struct{}
	appliedSeq  atomic.Uint64
	readBack    atomic.Uint64 // records applied from the log rather than from a hint
	// floor is the time through which the checkpoint the graph was loaded
	// from already holds every event; set only while NewNode replays.
	floor historygraph.Time

	// dedupMu guards the append-dedup table: batch ID -> extent of the
	// WAL records carrying it. Writers extend it as they log records (so
	// a retry racing the pipeline dedups instead of double-logging, and a
	// promoted follower recognizes what it mirrored); the applier extends
	// it for records it reads back from the log (so a restarted node
	// recognizes what it replayed). A batch a coordinator retries after a
	// failover or a lost response is acked instead of being logged and
	// applied twice. batchOrder evicts oldest-first once maxBatchIDs is
	// reached.
	dedupMu    sync.Mutex
	batches    map[string]batchSpan
	batchOrder []string

	mu         sync.Mutex
	primaryURL string
	acks       map[string]uint64
	ackNotify  chan struct{}
	tailCancel context.CancelFunc
	tailDone   chan struct{}
	mig        *migration // the slot-migration ingest (resharding): at most one per node
	closed     bool
}

// NewNode wraps srv with the replication layer over log. It returns once
// the local WAL is applied to srv's GraphManager (events at or before the
// manager's LastTime are skipped, so a checkpointed index is topped up
// rather than double-applied) and, in the follower role, starts tailing
// the primary.
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
	n.queue = make(chan *ticket, AppendQueue)
	n.quit = make(chan struct{})
	n.applierDone = make(chan struct{})
	n.tailErr.Store("")
	// Boot is the first hint-less ticket, served before the applier
	// goroutine exists: the whole local log, minus what a checkpoint-loaded
	// manager already holds (a fresh manager replays everything).
	n.floor = srv.Manager().LastTime()
	if _, err := n.advance(&ticket{last: log.LastSeq()}); err != nil {
		return nil, fmt.Errorf("replica: WAL replay: %w", err)
	}
	n.floor = 0
	// The admitted end starts at the replayed log's end: the graph clock
	// covers every durable record after replay.
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
	// may be waiting on a ticket, and stopping it first lets that batch
	// settle normally instead of racing the pipeline shutdown.
	n.stopMigration()
	close(n.quit)
	<-n.applierDone
}

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
