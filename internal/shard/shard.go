// The Coordinator type and its endpoint handlers (package overview in
// doc.go).
package shard

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"historygraph"
	"historygraph/internal/cache"
	"historygraph/internal/metrics"
	"historygraph/internal/server"
	"historygraph/internal/wire"
)

// DefaultPartitionTimeout bounds each fan-out leg when Config leaves
// PartitionTimeout zero.
const DefaultPartitionTimeout = 15 * time.Second

// DefaultCacheSize is the merged-response LRU capacity when Config leaves
// CacheSize zero.
const DefaultCacheSize = 64

// MaxLag is how many WAL records behind the replication head a member may
// be and still serve reads.
const MaxLag = 1024

// streamTimeoutFactor times PartitionTimeout bounds the total delivery of
// one merged stream (5 minutes at the defaults). PartitionTimeout cannot
// play that role: leg reads are back-pressured by the client draining the
// merged output, so a large snapshot or a slow reader legitimately holds
// legs open far longer than any worker-responsiveness bound — only the
// stream *open* (including replica retries) is held to PartitionTimeout.
// The cap exists so a wedged worker or abandoned client cannot pin legs
// forever.
const streamTimeoutFactor = 20

// Config tunes the coordinator.
type Config struct {
	// PartitionTimeout bounds every fan-out leg; a partition whose
	// replicas do not answer in time is dropped from the merge and
	// reported in the response's partial list. 0 picks
	// DefaultPartitionTimeout.
	PartitionTimeout time.Duration
	// CacheSize is the merged-response LRU capacity; a body is admitted
	// on its key's second request. 0 picks the default (64); negative
	// disables the coordinator cache.
	CacheSize int
	// CacheTTL bounds the age of a merged-response cache entry. Appends
	// routed through this coordinator invalidate the cache exactly, but an
	// append sent directly to a partition primary (which the replica
	// /append endpoint accepts) bypasses that invalidation — deployments
	// that cannot guarantee every write flows through the coordinator
	// should set a TTL. 0 keeps entries until invalidation or LRU
	// eviction.
	CacheTTL time.Duration
	// HealthInterval is the period of the background replica health
	// checker (marks members up/down and in-/out-of-sync, and promotes a
	// follower when a primary stays dark). 0 disables it; failover still
	// happens on demand when an append hits a dead primary.
	HealthInterval time.Duration
	// HTTPClient overrides the pooled transport used for fan-out
	// requests (tests inject clients wired to in-process servers).
	HTTPClient *http.Client
	// Wire is ignored.
	//
	// Deprecated: scatter legs always speak binary (streamed full-snapshot
	// requests use streaming legs); the field is kept only so existing
	// callers compile.
	Wire string
	// StreamRun is how many elements one merged stream frame carries on
	// the streaming /snapshot path; coordinator peak memory under
	// concurrent large snapshots is proportional to it (times the
	// partition count). 0 picks wire.DefaultRunSize.
	StreamRun int
	// SlowQueryThreshold, when positive, logs one line for every request
	// slower than it. Zero disables the log.
	SlowQueryThreshold time.Duration
}

// routing is one immutable routing state: the versioned slot table plus
// the replica sets its partition indices map into. A reshard builds a
// fresh routing and swaps the coordinator's pointer; requests capture one
// snapshot and run entirely against it, so the swap is atomic from every
// handler's point of view.
type routing struct {
	table *SlotTable
	sets  []*replicaSet
}

// epoch is the routing table's version stamp.
func (rt *routing) epoch() uint64 { return rt.table.Epoch }

// Coordinator scatters queries across partition replica sets and gathers
// the partial answers. It is safe for concurrent use.
type Coordinator struct {
	routing   atomic.Pointer[routing]
	hc        *http.Client
	timeout   time.Duration
	streamCap time.Duration // total merged-stream delivery bound
	runSize   int           // elements per merged stream frame (0: the wire default)
	mux       *http.ServeMux
	flights   server.FlightGroup
	cache     server.BodyCache // merged-response cache (inert when disabled) + the encode counter

	// appendGate serializes appends against a reshard cutover: every
	// append scatter holds it shared, the cutover holds it exclusively —
	// so taking the gate drains in-flight appends planned against the old
	// table, and no append straddles an epoch flip.
	appendGate  sync.RWMutex
	reshardMu   sync.Mutex // one reshard at a time
	lastReshard atomic.Pointer[ReshardStatus]

	stop       chan struct{}
	healthDone chan struct{}
	closeOnce  sync.Once

	// Every counter below lives in the metrics registry; /stats reads
	// the same collectors the /metrics exposition renders, so the two
	// surfaces cannot drift. Coalesced requests are the flight group's
	// hit counter (cache="flight").
	reg        *metrics.Registry
	ins        *server.Instrumentation
	fanouts    *metrics.Counter      // scatter-gather executions
	partials   *metrics.Counter      // responses missing >= 1 partition
	failovers  *metrics.Counter      // primary promotions
	reshards   *metrics.Counter      // completed reshard cutovers
	reroutes   *metrics.Counter      // scatters replanned after a 410 epoch fence
	legs       *metrics.CounterVec   // fan-out legs launched, by partition
	legFails   *metrics.CounterVec   // legs that failed (timeout, transport, 5xx)
	legCancels *metrics.CounterVec   // legs abandoned because the client went away
	legDur     *metrics.HistogramVec // per-leg wall time (open time for streams)
	mg         memberGauges          // per-member gauge vecs, extended when partitions join

	an coAnalytics // /analytics merge handlers + PageRank job machine
}

// rt returns the installed routing snapshot. Handlers capture it once per
// request and route every leg through the same snapshot.
func (co *Coordinator) rt() *routing { return co.routing.Load() }

// coordinatorEndpoints is the endpoint-label whitelist for the
// coordinator's request metrics.
var coordinatorEndpoints = []string{
	"/snapshot", "/neighbors", "/batch", "/interval", "/expr", "/append",
	"/analytics/degree", "/analytics/components", "/analytics/evolution",
	"/analytics/pagerank",
	"/admin/reshard",
	"/stats", "/healthz", "/readyz", "/metrics",
}

// New builds a coordinator over the given partition peer specs. The slice
// order defines partition IDs and must match the hash space the workers'
// event slices were split by (PartitionEvents with n = len(peerURLs)).
// Each spec is either one base URL (an unreplicated partition) or a
// "|"-separated replica set, first member the initial primary:
//
//	http://h1:8186|http://h2:8186,http://h1:8187|http://h2:8187
func New(peerURLs []string, cfg Config) (*Coordinator, error) {
	sets := make([][]string, 0, len(peerURLs))
	for _, spec := range peerURLs {
		var members []string
		for _, u := range strings.Split(spec, "|") {
			if u = strings.TrimSpace(u); u != "" {
				members = append(members, u)
			}
		}
		sets = append(sets, members)
	}
	return NewReplicated(sets, cfg)
}

// NewReplicated is New with the replica sets already split out: one inner
// slice per partition, first member the initial primary.
func NewReplicated(peerSets [][]string, cfg Config) (*Coordinator, error) {
	if len(peerSets) == 0 {
		return nil, fmt.Errorf("shard: coordinator needs at least one partition")
	}
	total := 0
	for _, set := range peerSets {
		total += len(set)
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        4 * total,
			MaxIdleConnsPerHost: 4,
		}}
	}
	timeout := cfg.PartitionTimeout
	if timeout <= 0 {
		timeout = DefaultPartitionTimeout
	}
	co := &Coordinator{
		hc: hc, timeout: timeout, streamCap: streamTimeoutFactor * timeout, runSize: cfg.StreamRun,
		stop: make(chan struct{}),
	}
	reg := metrics.NewRegistry()
	co.reg = reg
	co.fanouts = reg.Counter("dg_shard_fanouts_total", "Scatter-gather executions.")
	co.partials = reg.Counter("dg_shard_partial_responses_total", "Responses missing at least one partition.")
	co.failovers = reg.Counter("dg_shard_failovers_total", "Primary promotions run by the coordinator.")
	co.reshards = reg.Counter("dg_shard_reshards_total", "Completed reshard cutovers (epoch flips).")
	co.reroutes = reg.Counter("dg_shard_reroutes_total", "Scatters replanned against a fresh routing table after a 410 epoch fence.")
	reg.GaugeFunc("dg_shard_epoch", "Installed routing-table epoch.",
		func() float64 { return float64(co.rt().epoch()) })
	reg.GaugeFunc("dg_shard_partitions", "Partitions in the installed routing table.",
		func() float64 { return float64(len(co.rt().sets)) })
	co.legs = reg.CounterVec("dg_shard_legs_total", "Fan-out legs launched, by partition.", "partition")
	co.legFails = reg.CounterVec("dg_shard_leg_failures_total", "Fan-out legs that failed, by partition.", "partition")
	co.legCancels = reg.CounterVec("dg_shard_leg_cancels_total", "Fan-out legs canceled because the client went away, by partition.", "partition")
	co.legDur = reg.HistogramVec("dg_shard_leg_duration_seconds", "Per-leg wall time by partition (stream legs report open time).", nil, "partition")
	co.an.jobs = make(map[string]*coJob)
	co.an.jobsTotal = reg.CounterVec("dg_analytics_jobs_total", "Analytics executions by kind and outcome.", "kind", "status")
	co.an.durations = reg.HistogramVec("dg_analytics_duration_seconds", "Analytics execution wall time by kind.", nil, "kind")
	co.an.supersteps = reg.Counter("dg_analytics_supersteps_total", "PageRank supersteps driven across partitions.")
	// The flight group is a cache level here too: a hit is a request
	// served by another caller's in-flight fan-out.
	lv := cache.NewLevels(reg)
	co.flights.Hits, co.flights.Misses = lv.Flight()
	co.cache = server.BodyCache{
		Cache:   cache.New(lv, "merged", cfg.CacheSize, DefaultCacheSize, cache.Options[cache.Body]{TTL: cfg.CacheTTL, SecondRequest: true}),
		Encodes: reg.Counter("dg_encodes_total", "Merged-response body encode executions."),
	}
	var sets []*replicaSet
	for p, set := range peerSets {
		if len(set) == 0 {
			return nil, fmt.Errorf("shard: partition %d has no members", p)
		}
		sets = append(sets, newReplicaSet(set, hc))
	}
	// Boot routing: the default table (slot i -> partition i mod n) at
	// epoch 1, which routes identically to the historical fixed hash.
	co.routing.Store(&routing{table: DefaultSlotTable(len(sets)), sets: sets})
	co.registerMemberGauges(reg)
	for p, rs := range sets {
		co.registerSetGauges(p, rs)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /snapshot", co.handleSnapshot)
	mux.HandleFunc("GET /neighbors", co.handleNeighbors)
	mux.HandleFunc("GET /batch", co.handleBatch)
	mux.HandleFunc("GET /interval", co.handleInterval)
	mux.HandleFunc("POST /expr", co.handleExpr)
	mux.HandleFunc("POST /append", co.handleAppend)
	mux.HandleFunc("GET /analytics/degree", co.handleAnalyticsDegree)
	mux.HandleFunc("GET /analytics/components", co.handleAnalyticsComponents)
	mux.HandleFunc("GET /analytics/evolution", co.handleAnalyticsEvolution)
	mux.HandleFunc("POST /analytics/pagerank", co.handleAnalyticsPageRank)
	mux.HandleFunc("GET /analytics/jobs/{id}", co.handleAnalyticsJob)
	mux.HandleFunc("POST /admin/reshard", co.handleReshard)
	mux.HandleFunc("GET /admin/reshard", co.handleReshardStatus)
	mux.HandleFunc("GET /stats", co.handleStats)
	mux.HandleFunc("GET /healthz", co.handleHealthz)
	mux.HandleFunc("GET /readyz", co.handleReadyz)
	mux.Handle("GET /metrics", reg.Handler())
	co.mux = mux
	co.ins = server.NewInstrumentation(reg, coordinatorEndpoints, cfg.SlowQueryThreshold)
	if cfg.HealthInterval > 0 {
		co.healthDone = make(chan struct{})
		go co.healthLoop(cfg.HealthInterval)
	}
	return co, nil
}

// memberGauges holds the per-member gauge families so partitions joining
// at reshard time register under the same names.
type memberGauges struct {
	lat, healthy, insync, applied *metrics.GaugeVec
}

// registerMemberGauges creates the gauge families exposing the
// coordinator's live routing view of every replica-set member: the
// latency EWMA reads are ordered by, plus the healthy/in-sync flags and
// the last known applied WAL sequence.
func (co *Coordinator) registerMemberGauges(reg *metrics.Registry) {
	co.mg = memberGauges{
		lat:     reg.GaugeVec("dg_shard_member_latency_seconds", "Answered-read latency EWMA per replica-set member (0 = unsampled).", "partition", "member"),
		healthy: reg.GaugeVec("dg_shard_member_healthy", "1 when the member's last contact attempt succeeded.", "partition", "member"),
		insync:  reg.GaugeVec("dg_shard_member_insync", "1 when the member is within MaxLag of the replication head.", "partition", "member"),
		applied: reg.GaugeVec("dg_shard_member_applied_seq", "Last known applied WAL sequence per member.", "partition", "member"),
	}
}

// registerSetGauges binds one partition's members to the member gauge
// families. Called at construction and again for every set a reshard
// adds; a retired partition's series keep reporting its last members
// until the process restarts (series are never unregistered).
func (co *Coordinator) registerSetGauges(p int, rs *replicaSet) {
	b2f := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	ps := strconv.Itoa(p)
	for _, m := range rs.members {
		m := m
		co.mg.lat.Func(func() float64 { return float64(m.ewma.Load()) / float64(time.Second) }, ps, m.url)
		co.mg.healthy.Func(func() float64 { return b2f(m.healthy.Load()) }, ps, m.url)
		co.mg.insync.Func(func() float64 { return b2f(m.insync.Load()) }, ps, m.url)
		co.mg.applied.Func(func() float64 { return float64(m.applied.Load()) }, ps, m.url)
	}
}

// NumPartitions returns the number of partitions.
func (co *Coordinator) NumPartitions() int { return len(co.rt().sets) }

// Epoch returns the installed routing-table epoch.
func (co *Coordinator) Epoch() uint64 { return co.rt().epoch() }

// Fanouts reports how many scatter-gathers actually executed (tests
// assert coordinator-level coalescing and cache hits against this).
func (co *Coordinator) Fanouts() int64 { return co.fanouts.Value() }

// Encodes reports how many response-body encodes the coordinator's
// cacheable data plane executed. A merged-response cache hit writes the
// stored bytes without encoding, so tests assert hits leave this counter
// untouched.
func (co *Coordinator) Encodes() int64 { return co.cache.Encodes.Value() }

// Failovers reports how many primary promotions the coordinator ran.
func (co *Coordinator) Failovers() int64 { return co.failovers.Value() }

// Metrics returns the coordinator's metrics registry.
func (co *Coordinator) Metrics() *metrics.Registry { return co.reg }

// Primary returns the current primary base URL of partition p.
func (co *Coordinator) Primary(p int) string { return co.rt().sets[p].primaryMember().url }

// Members returns partition p's member base URLs in declaration order.
func (co *Coordinator) Members(p int) []string { return co.rt().sets[p].urls() }

// Close stops the background health checker. In-flight requests finish
// normally; the coordinator itself remains usable.
func (co *Coordinator) Close() {
	co.closeOnce.Do(func() {
		close(co.stop)
		if co.healthDone != nil {
			<-co.healthDone
		}
	})
}

// Handler returns the coordinator's HTTP handler, wrapped in the request
// instrumentation middleware (latency histograms, status counters,
// X-Request-ID threading — the same middleware the workers run, so one
// logical request carries one ID across every hop).
func (co *Coordinator) Handler() http.Handler {
	return co.ins.Wrap(co.mux)
}

// allFailedError is a total fan-out failure plus the response status it
// should surface with; it crosses the flight-group boundary as an error.
type allFailedError struct {
	status int
	msg    string
}

func (e *allFailedError) Error() string { return e.msg }

// allFailed converts a total fan-out failure into one error. The status
// is 502 when any partition failed at the transport level or with a 5xx
// — the cluster is at fault; when every partition answered with a 4xx,
// the request itself was bad and the first rejection's status propagates
// (retrying a deliberately rejected request elsewhere can never succeed,
// so it must not look like a gateway fault).
func (co *Coordinator) allFailed(errs []wire.PartitionError) *allFailedError {
	status := errs[0].Status
	for _, pe := range errs {
		if pe.Status < 400 || pe.Status >= 500 {
			status = http.StatusBadGateway
			break
		}
	}
	return &allFailedError{
		status: status,
		msg:    fmt.Sprintf("shard: all %d partitions failed (partition %d: %s)", len(errs), errs[0].Partition, errs[0].Error),
	}
}

// writeAllFailed answers a request whose every partition leg failed.
func writeAllFailed(w http.ResponseWriter, err error) {
	status := http.StatusBadGateway
	var fe *allFailedError
	if errors.As(err, &fe) {
		status = fe.status
	}
	server.WriteError(w, status, err)
}

// cacheKey appends the encoding dimension to a flight key: the cache
// stores encoded bodies, so the same merged response occupies one entry
// per encoding it was actually served in (codec names plus "stream" for
// chunked stream bodies).
func cacheKey(key string, name string) string {
	return key + "|" + name
}

// snapshotLeg marks a /snapshot leg's context. While the merged level is
// on it keeps the one encoded copy of the answer, so the leg asks its
// worker not to store another (Cache-Control: no-store); with the level
// off the worker's encoded level is the only one on the path and admits.
func (co *Coordinator) snapshotLeg(ctx context.Context) context.Context {
	if co.cache.Cache == nil {
		return ctx
	}
	return server.WithNoStore(ctx)
}

func (co *Coordinator) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	q, ok := server.ReadQuery(w, r, true)
	if !ok {
		return
	}
	key := fmt.Sprintf("snap|%d|%s|%t", q.T, q.Attrs, q.Full)
	if q.Full && wire.WantsStream(r.Header.Get("Accept")) {
		// Chunked stream: the scatter legs are consumed run by run and
		// merged incrementally — coordinator memory stays proportional to
		// run size × partitions, not to the snapshot.
		co.streamSnapshot(w, r, q.T, q.Attrs, key)
		return
	}
	serveRead(co, w, r, read[*wire.Snapshot, wire.Snapshot]{
		key: key, maxT: q.T, coalesce: true,
		leg: func(ctx reqCtx, cl *server.Client) (*wire.Snapshot, error) {
			return cl.SnapshotCtx(co.snapshotLeg(ctx), q.T, q.Attrs, q.Full)
		},
		merge: func(parts []*wire.Snapshot, errs []wire.PartitionError) wire.Snapshot {
			return mergeSnapshots(int64(q.T), parts, errs)
		},
		flags: func(m *wire.Snapshot) (*bool, *bool) { return &m.Cached, &m.Coalesced },
	})
}

func (co *Coordinator) handleNeighbors(w http.ResponseWriter, r *http.Request) {
	q, ok := server.ReadQuery(w, r, true)
	if !ok {
		return
	}
	nodeRaw := q.Get("node")
	node, err := strconv.ParseInt(nodeRaw, 10, 64)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad node %q", nodeRaw))
		return
	}
	// A node's incident edges are scattered across partitions (each edge
	// lives with its From endpoint), so the neighborhood is the union of
	// every partition's local adjacency.
	serveRead(co, w, r, read[*wire.Neighbors, wire.Neighbors]{
		key: fmt.Sprintf("nbr|%d|%d|%s", q.T, node, q.Attrs), maxT: q.T, coalesce: true,
		leg: func(ctx reqCtx, cl *server.Client) (*wire.Neighbors, error) {
			return cl.NeighborsCtx(ctx, q.T, historygraph.NodeID(node), q.Attrs)
		},
		merge: func(parts []*wire.Neighbors, errs []wire.PartitionError) wire.Neighbors {
			return mergeNeighbors(int64(q.T), node, parts, errs)
		},
		flags: func(m *wire.Neighbors) (*bool, *bool) { return &m.Cached, nil },
	})
}

func (co *Coordinator) handleBatch(w http.ResponseWriter, r *http.Request) {
	q, times, ok := server.ReadBatchQuery(w, r)
	if !ok {
		return
	}
	// Batch hits replay the stored body as-is (no flags), so the served
	// bytes and the cached bytes are one and the same encode; and a batch
	// is not coalesced, so a closed connection cancels every leg at once.
	serveRead(co, w, r, read[[]wire.Snapshot, []wire.Snapshot]{
		key: fmt.Sprintf("batch|%s|%s|%t", q.Get("t"), q.Attrs, q.Full), maxT: slices.Max(times),
		leg: func(ctx reqCtx, cl *server.Client) ([]wire.Snapshot, error) {
			batch, err := cl.SnapshotsCtx(ctx, times, q.Attrs, q.Full)
			if err == nil && len(batch) != len(times) {
				err = fmt.Errorf("partition answered %d snapshots for %d timepoints", len(batch), len(times))
			}
			return batch, err
		},
		merge: func(parts [][]wire.Snapshot, errs []wire.PartitionError) []wire.Snapshot {
			out := make([]wire.Snapshot, len(times))
			for i, t := range times {
				slice := make([]*wire.Snapshot, len(parts))
				for p, batch := range parts {
					if batch != nil {
						slice[p] = &batch[i]
					}
				}
				out[i] = mergeSnapshots(int64(t), slice, errs)
			}
			return out
		},
	})
}

func (co *Coordinator) handleInterval(w http.ResponseWriter, r *http.Request) {
	q, from, to, ok := server.ReadSpanQuery(w, r, "interval", "from", "to")
	if !ok {
		return
	}
	serveUncached(co, w, r, func(ctx reqCtx, cl *server.Client) (*wire.Interval, error) {
		return cl.IntervalCtx(ctx, from, to, q.Attrs, q.Full)
	}, mergeIntervals)
}

func (co *Coordinator) handleExpr(w http.ResponseWriter, r *http.Request) {
	req, _, ok := server.ReadExprRequest(w, r)
	if !ok {
		return
	}
	// A TimeExpression decides membership element by element, and every
	// element's history is confined to one partition — so evaluating the
	// expression per partition and unioning is exact.
	serveUncached(co, w, r, func(ctx reqCtx, cl *server.Client) (*wire.Snapshot, error) {
		return cl.ExprCtx(ctx, req)
	}, func(parts []*wire.Snapshot, errs []wire.PartitionError) wire.Snapshot {
		return mergeSnapshots(0, parts, errs)
	})
}

// routeEvents splits one batch by owning partition under rt, for the
// per-request and the streaming append alike. It refuses the whole batch
// before anything is scattered: an unroutable edge event is a 422 — it
// would land on the wrong partition and silently diverge the cluster from
// its event history (see Routable). (A malformed event never gets this
// far: the body or frame decode refused it, the client's 400.) minAt is
// the batch's earliest timestamp, the cut merged responses are invalidated
// from.
func routeEvents(rt *routing, body historygraph.EventList) (perPart []historygraph.EventList, minAt historygraph.Time, err error) {
	perPart = make([]historygraph.EventList, len(rt.sets))
	for i, ev := range body {
		if err := Routable(ev); err != nil {
			return nil, 0, fmt.Errorf("event %d: %w", i, err)
		}
		p := rt.table.Partition(ev)
		perPart[p] = append(perPart[p], ev)
		if i == 0 || ev.At < minAt {
			minAt = ev.At
		}
	}
	return perPart, minAt, nil
}

// PartitionStatsJSON is one partition's section of the coordinator's
// /stats answer. URL is the current primary; Replicas lists every member.
type PartitionStatsJSON struct {
	Partition int               `json:"partition"`
	URL       string            `json:"url"`
	Replicas  []ReplicaInfoJSON `json:"replicas,omitempty"`
	Error     string            `json:"error,omitempty"`
	Stats     *wire.Stats       `json:"stats,omitempty"`
}

// ReplicaInfoJSON is the coordinator's routing view of one replica-set
// member.
type ReplicaInfoJSON struct {
	URL     string `json:"url"`
	Primary bool   `json:"primary,omitempty"`
	Healthy bool   `json:"healthy"`
	InSync  bool   `json:"in_sync"`
	Applied uint64 `json:"applied,omitempty"`
}

// CoCacheStatsJSON is the merged-response cache section of /stats.
type CoCacheStatsJSON struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Size      int   `json:"size"`
	Capacity  int   `json:"capacity"`
}

// StatsJSON answers the coordinator's GET /stats: fan-out counters plus
// every partition's own stats.
type StatsJSON struct {
	Partitions       int                  `json:"partitions"`
	Epoch            uint64               `json:"epoch"`
	Requests         int64                `json:"requests"`
	Fanouts          int64                `json:"fanouts"`
	Coalesced        int64                `json:"coalesced"`
	PartialResponses int64                `json:"partial_responses"`
	Failovers        int64                `json:"failovers"`
	Reshards         int64                `json:"reshards"`
	Reroutes         int64                `json:"reroutes"`
	Cache            *CoCacheStatsJSON    `json:"cache,omitempty"`
	PerPartition     []PartitionStatsJSON `json:"per_partition"`
}

func (co *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	// Stats come from each partition's current primary, not the read
	// round-robin: PartitionStatsJSON.URL names the primary, and rotating
	// the source would misattribute follower counters to it (and make
	// totals jump backwards between polls).
	rt := co.rt()
	parts, errs := scatter(co, rt, r.Context(), func(ctx reqCtx, rs *replicaSet) (*wire.Stats, error) {
		return rs.primaryMember().client.StatsCtx(ctx)
	})
	// The counters are read from the metrics registry — the same
	// collectors GET /metrics renders — so the two surfaces cannot drift.
	out := StatsJSON{
		Partitions:       len(rt.sets),
		Epoch:            rt.epoch(),
		Requests:         co.ins.Requests(),
		Fanouts:          co.fanouts.Value(),
		Coalesced:        co.flights.Hits.Value(),
		PartialResponses: co.partials.Value(),
		Failovers:        co.failovers.Value(),
		Reshards:         co.reshards.Value(),
		Reroutes:         co.reroutes.Value(),
	}
	if co.cache.Cache != nil {
		cs := CoCacheStatsJSON(co.cache.Stats())
		out.Cache = &cs
	}
	failed := make(map[int]string, len(errs))
	for _, pe := range errs {
		failed[pe.Partition] = pe.Error
	}
	for p, rs := range rt.sets {
		ps := PartitionStatsJSON{Partition: p, URL: rs.primaryMember().url, Stats: parts[p]}
		ps.Error = failed[p]
		if len(rs.members) > 1 {
			pm := rs.primaryMember()
			for _, m := range rs.members {
				ps.Replicas = append(ps.Replicas, ReplicaInfoJSON{
					URL: m.url, Primary: m == pm,
					Healthy: m.healthy.Load(), InSync: m.insync.Load(),
					Applied: m.applied.Load(),
				})
			}
		}
		out.PerPartition = append(out.PerPartition, ps)
	}
	server.WriteJSON(w, http.StatusOK, out)
}

// handleHealthz is pure liveness: the coordinator process is up and
// serving. Cluster state (dead members, lagging replicas) is /readyz's
// job — conflating the two made orchestrators restart a healthy
// coordinator because a worker box died.
func (co *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, map[string]any{"status": "ok", "partitions": co.NumPartitions()})
}

// handleReadyz probes every member of every set — a partition with one
// live replica still serves reads, but a dead or catching-up member
// means lost redundancy and must surface as degraded, not hide behind
// the read retry. Members are probed on their own /readyz, so a replica
// node that is up but still replaying its WAL (or lagging its primary)
// counts as not ready here too.
func (co *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) {
	rt := co.rt()
	var mu sync.Mutex
	var errs []wire.PartitionError
	var wg sync.WaitGroup
	for p, rs := range rt.sets {
		for _, m := range rs.members {
			wg.Add(1)
			go func(p int, m *member) {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), co.timeout)
				defer cancel()
				if err := m.client.ReadyCtx(ctx); err != nil {
					mu.Lock()
					errs = append(errs, wire.PartitionError{Partition: p, Error: m.url + ": " + err.Error()})
					mu.Unlock()
				}
			}(p, m)
		}
	}
	wg.Wait()
	if len(errs) == 0 {
		server.WriteJSON(w, http.StatusOK, map[string]any{"status": "ready", "partitions": len(rt.sets)})
		return
	}
	sort.Slice(errs, func(a, b int) bool { return errs[a].Partition < errs[b].Partition })
	server.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{
		"status": "degraded", "partitions": len(rt.sets), "partial": errs,
	})
}
