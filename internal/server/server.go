// The Server type and its endpoint handlers (package overview in doc.go).
package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"historygraph"
	"historygraph/internal/analytics"
	"historygraph/internal/cache"
	"historygraph/internal/graph"
	"historygraph/internal/metrics"
	"historygraph/internal/wire"
)

// Config tunes the service.
type Config struct {
	// CacheSize is the number of hot snapshots the LRU keeps pinned in
	// the GraphPool. 0 picks the default (32); negative disables caching.
	CacheSize int
	// EncodedCacheSize is the capacity of the encoded-bytes cache: fully
	// encoded /snapshot bodies kept per (timepoint, attrs, full,
	// encoding), so a hot-timepoint hit is a single write with zero
	// encode work. A body is admitted on its key's second request.
	// 0 picks the default (64); negative disables it.
	EncodedCacheSize int
	// StreamRun is how many elements one chunked-stream frame carries on
	// the streaming /snapshot path; peak response-build memory is
	// proportional to it. 0 picks wire.DefaultRunSize.
	StreamRun int
	// SlowQueryThreshold, when positive, logs one line for every
	// request slower than it (method, endpoint, query, handler
	// annotations, status, duration, request ID). Zero disables the
	// log and its per-request trace allocation.
	SlowQueryThreshold time.Duration
}

// DefaultCacheSize is the hot-snapshot LRU capacity when Config.CacheSize
// is zero.
const DefaultCacheSize = 32

// DefaultEncodedCacheSize is the encoded-bytes cache capacity when
// Config.EncodedCacheSize is zero.
const DefaultEncodedCacheSize = 64

// Server serves snapshot queries over an embedded GraphManager.
type Server struct {
	// gm is swappable (ReplaceManager) so an automated replica re-seed
	// can rebuild the store underneath a running server; handlers load
	// it once per request and hold that manager for the request's life.
	gm atomic.Pointer[historygraph.GraphManager]
	// The cache levels (internal/cache); a nil one is disabled and inert.
	cache   snapCache      // pinned pool views, keyed by cacheKey
	enc     BodyCache      // encoded /snapshot bodies, keyed by encKey; counts every snapshot-body encode
	an      analyticsState // analytics plane: PageRank jobs + metrics
	flights FlightGroup
	mux     *http.ServeMux
	runSize int // elements per chunked-stream frame (0: the wire default)

	// slots is the installed slot-ownership state (nil = own every
	// slot); see slots.go for the resharding protocol it implements.
	slots      atomic.Pointer[slotOwnership]
	slotEpoch  *metrics.Gauge
	slotsOwned *metrics.Gauge

	// Every counter below lives in the metrics registry; /stats reads
	// the same collectors the /metrics exposition renders, so the two
	// surfaces cannot drift.
	reg        *metrics.Registry
	ins        *Instrumentation
	retrievals *metrics.Counter   // underlying GetHistGraph executions
	leafCuts   *metrics.Histogram // write-lock hold time of index leaf cuts
}

// observeIndex points gm's builder callbacks at this server's metrics.
func (s *Server) observeIndex(gm *historygraph.GraphManager) {
	gm.ObserveIndex(func(d time.Duration) { s.leafCuts.Observe(d.Seconds()) })
}

// serverEndpoints is the endpoint-label whitelist for request metrics;
// it includes the replication endpoints a replica node layers on top so
// a node's mux shares this server's instrumentation.
var serverEndpoints = []string{
	"/snapshot", "/neighbors", "/batch", "/interval", "/expr", "/append",
	"/stats", "/healthz", "/readyz", "/metrics",
	"/replicate", "/replstatus", "/role",
	"/admin/slots", "/admin/migrate", "/admin/reseed",
	"/analytics/degree", "/analytics/components", "/analytics/evolution",
	"/analytics/pagerank", "/analytics/prepare", "/analytics/prstart",
	"/analytics/prstep",
}

// New wraps an open GraphManager in a query service. The caller keeps
// ownership of the GraphManager (Close it after the HTTP server stops);
// Server.Close only drops the cache's pinned views.
func New(gm *historygraph.GraphManager, cfg Config) *Server {
	s := &Server{}
	s.gm.Store(gm)
	reg := metrics.NewRegistry()
	s.reg = reg
	s.retrievals = reg.Counter("dg_retrievals_total", "Underlying GetHistGraph plan executions.")
	lv := cache.NewLevels(reg)
	s.flights.Hits, s.flights.Misses = lv.Flight()
	s.cache = newSnapCache(lv, cfg.CacheSize)
	s.enc = BodyCache{
		Cache:   cache.New(lv, "encoded", cfg.EncodedCacheSize, DefaultEncodedCacheSize, cache.Options[cache.Body]{SecondRequest: true}),
		Encodes: reg.Counter("dg_encodes_total", "Snapshot response-body encode executions."),
	}
	s.an.jobs = make(map[string]*prJob)
	s.an.jobsTotal = reg.CounterVec("dg_analytics_jobs_total",
		"Analytics executions by kind and terminal status.", "kind", "status")
	s.an.durations = reg.HistogramVec("dg_analytics_duration_seconds",
		"Analytics execution wall time by kind.", nil, "kind")
	s.an.supersteps = reg.Counter("dg_analytics_supersteps_total",
		"PageRank partition supersteps executed.")
	s.leafCuts = reg.Histogram("dg_index_leaf_cut_seconds",
		"Time a leaf cut held the index write lock: flushing the eventlist and building the parents it completes.", nil)
	s.observeIndex(gm)
	// Index gauges read the manager at scrape time, so they follow a
	// manager swapped in by a re-seed.
	for _, g := range []struct {
		name, help string
		of         func(historygraph.IndexStats) int64
	}{
		{"dg_index_disk_bytes", "Index store file size: permanent delta and eventlist payloads plus every checkpoint taken so far (the file is a log; only the last one is live).",
			func(st historygraph.IndexStats) int64 { return st.DiskBytes }},
		{"dg_index_checkpoint_bytes", "Payload and meta bytes of the last index checkpoint, encoded, before the store compresses them (0 before the first).",
			func(st historygraph.IndexStats) int64 { return st.CheckpointBytes }},
		{"dg_index_leaves", "Leaf-eventlists cut so far.",
			func(st historygraph.IndexStats) int64 { return int64(st.Leaves) }},
	} {
		reg.GaugeFunc(g.name, g.help, func() float64 { return float64(g.of(s.gm.Load().IndexStats())) })
	}
	// Pool gauges read the same way. dg_pool_bytes is the pool cleaner's
	// sample, at most one cleaner interval old: the estimate walks every
	// element (0.6 ms at 20k elements and 40k attribute values, twenty
	// times a cached read), so a scrape does not compute it.
	elements := reg.GaugeVec("dg_pool_elements", "Union-graph elements resident in the GraphPool, shared by every graph overlaid there.", "kind")
	graphs := reg.GaugeVec("dg_pool_graphs", "Graphs in the GraphPool: active (the current graph, the index's pending nodes, held views, materialized nodes), pinned (at least one reader or cache reference), released (let go, their bits awaiting the cleaner).", "state")
	pool := func(of func(historygraph.PoolStats) int64) func() float64 {
		return func() float64 { return float64(of(s.gm.Load().PoolStats())) }
	}
	elements.Func(pool(func(st historygraph.PoolStats) int64 { return int64(st.PoolNodes) }), "node")
	elements.Func(pool(func(st historygraph.PoolStats) int64 { return int64(st.PoolEdges) }), "edge")
	graphs.Func(pool(func(st historygraph.PoolStats) int64 { return int64(st.ActiveGraphs - st.ReleasedGraphs) }), "active")
	graphs.Func(pool(func(st historygraph.PoolStats) int64 { return int64(st.PinnedGraphs) }), "pinned")
	graphs.Func(pool(func(st historygraph.PoolStats) int64 { return int64(st.ReleasedGraphs) }), "released")
	reg.GaugeFunc("dg_pool_bits", "GraphPool bitmap width in use, one more than the highest bit a graph holds: 2 bits for the current graph, 1 an explicit view, a pending or a materialized node, 2 a dependent view, the lowest free first. Above 64, an element in a graph with a high bit carries words beyond its inline one.",
		pool(func(st historygraph.PoolStats) int64 { return int64(st.Bits) }))
	reg.GaugeFunc("dg_pool_bytes", "Estimated heap the GraphPool holds (element records, attribute lists, bitmap words, adjacency), as of the pool cleaner's last pass.",
		pool(func(st historygraph.PoolStats) int64 { return st.Bytes }))
	s.slotEpoch = reg.Gauge("dg_slot_epoch",
		"Installed slot-routing epoch (0 until the coordinator pushes a table).")
	s.slotsOwned = reg.Gauge("dg_slots_owned",
		"Hash slots this worker owns (the full slot space until restricted).")
	s.slotsOwned.Set(float64(graph.NumSlots))
	s.runSize = cfg.StreamRun
	mux := http.NewServeMux()
	mux.HandleFunc("GET /snapshot", s.handleSnapshot)
	mux.HandleFunc("GET /neighbors", s.handleNeighbors)
	mux.HandleFunc("GET /batch", s.handleBatch)
	mux.HandleFunc("GET /interval", s.handleInterval)
	mux.HandleFunc("POST /expr", s.handleExpr)
	mux.HandleFunc("POST /append", s.handleAppend)
	mux.HandleFunc("GET /analytics/degree", scanHandler(s, "degree", analytics.DegreePartOf,
		func(p *wire.DegreePart) *bool { return &p.Cached }, analytics.MergeDegree))
	mux.HandleFunc("GET /analytics/components", scanHandler(s, "components", analytics.ComponentsPartOf,
		func(p *wire.ComponentsPart) *bool { return &p.Cached }, analytics.MergeComponents))
	mux.HandleFunc("GET /analytics/evolution", s.handleAnalyticsEvolution)
	mux.HandleFunc("POST /analytics/pagerank", s.handleAnalyticsPageRank)
	mux.HandleFunc("POST /analytics/prepare", s.handlePRPrepare)
	mux.HandleFunc("POST /analytics/prstart", s.handlePRStart)
	mux.HandleFunc("POST /analytics/prstep", s.handlePRStep)
	mux.HandleFunc("GET /admin/slots", s.handleSlotsGet)
	mux.HandleFunc("POST /admin/slots", s.handleSlotsPost)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.Handle("GET /metrics", reg.Handler())
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	// A bare worker is ready as soon as it serves; a replica node layers
	// its own /readyz (in-sync state) over this one on its outer mux.
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	s.mux = mux
	s.ins = NewInstrumentation(reg, serverEndpoints, cfg.SlowQueryThreshold)
	return s
}

// Handler returns the service's HTTP handler, wrapped in the request
// instrumentation middleware.
func (s *Server) Handler() http.Handler {
	return s.ins.Wrap(s.mux)
}

// Metrics returns the server's metrics registry; the replication node
// registers its WAL and readiness collectors on it.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// InstrumentHandler wraps h in this server's request-metrics middleware.
// The replica node uses it so the replication endpoints it serves ahead
// of the server's mux are counted and traced identically.
func (s *Server) InstrumentHandler(h http.Handler) http.Handler {
	return s.ins.Wrap(h)
}

// Close evicts and releases every cached view. The underlying
// GraphManager is not closed.
func (s *Server) Close() { s.invalidate(cache.AllTime) }

// invalidate runs one invalidation pass from timepoint t over every cache
// level and returns the number of views evicted. No level is named by any
// other invalidation path, so the levels cannot disagree about what an
// append, a store swap or a shutdown made stale.
func (s *Server) invalidate(t historygraph.Time) int {
	s.enc.InvalidateFrom(t)
	return s.cache.InvalidateFrom(t)
}

// Retrievals reports how many times the server actually executed
// GetHistGraph (tests assert coalescing against this).
func (s *Server) Retrievals() int64 { return s.retrievals.Value() }

// Encodes reports how many snapshot response-body encodes (whole-message
// or streamed) the server executed. An encoded-bytes cache hit writes the
// stored body without encoding, so tests assert hits leave this counter
// untouched.
func (s *Server) Encodes() int64 { return s.enc.Encodes.Value() }

// cacheKey identifies one (timepoint, attribute-spec) retrieval.
func cacheKey(t historygraph.Time, attrs string) string {
	return strconv.FormatInt(int64(t), 10) + "|" + attrs
}

// flightView is what a retrieval flight hands its own caller: the cached
// view with a reader pin already taken (release may be nil if caching the
// view failed).
type flightView struct {
	h       *historygraph.HistGraph
	release func()
}

func (s *Server) retrieve(gm *historygraph.GraphManager, t historygraph.Time, attrs string) (*historygraph.HistGraph, error) {
	s.retrievals.Inc()
	return gm.GetHistGraph(t, attrs)
}

// acquire returns a pool view of the snapshot at t with a reference held;
// release must be called once the response is built. Concurrent identical
// requests share one underlying retrieval, and popular timepoints are
// served from the hot-snapshot cache without touching the DeltaGraph.
// The manager is captured once so a concurrent ReplaceManager cannot
// split one request across two stores (the release closures hand views
// back to the manager that produced them).
func (s *Server) acquire(t historygraph.Time, attrs string) (h *historygraph.HistGraph, release func(), cached, coalesced bool, err error) {
	gm := s.gm.Load()
	if s.cache.Cache == nil {
		h, err := s.retrieve(gm, t, attrs)
		if err != nil {
			return nil, nil, false, false, err
		}
		return h, func() { gm.Release(h) }, false, false, nil
	}
	key := cacheKey(t, attrs)
	if h, rel, ok := s.cache.Acquire(key); ok {
		return h, rel, true, false, nil
	}
	v, shared, err := s.flights.Do(key, func() (any, error) {
		gen := s.cache.Gen()
		h, err := s.retrieve(gm, t, attrs)
		if err != nil {
			return nil, err
		}
		// The flight keeps a reader pin for its own caller, so the
		// leader serves its handle directly — no re-lookup that could
		// race an eviction under cache churn.
		fh, rel := s.cache.InsertAcquire(gm, key, t, h, gen)
		if rel == nil {
			// Not cached (an append's invalidation pass overlapped the
			// retrieval, so the view may be stale as a cache entry —
			// though exact for this request's moment — or the cache is
			// shutting down): the leader serves its own view uncached.
			return flightView{h: h, release: func() { gm.Release(h) }}, nil
		}
		return flightView{h: fh, release: rel}, nil
	})
	if err != nil {
		return nil, nil, false, shared, err
	}
	if !shared {
		if fv := v.(flightView); fv.release != nil {
			return fv.h, fv.release, false, false, nil
		}
	}
	// Coalesced waiters (and the leader in the pathological case where
	// the insert failed) pin the cached entry themselves.
	if h, rel, ok := s.cache.Reacquire(key); ok {
		return h, rel, false, shared, nil
	}
	// The entry was evicted between insert and pin (cache under heavy
	// churn): fall back to a one-off uncached retrieval.
	h, err = s.retrieve(gm, t, attrs)
	if err != nil {
		return nil, nil, false, shared, err
	}
	return h, func() { gm.Release(h) }, false, shared, nil
}

// annotateView tags the request trace with acquire's view-cache verdict.
func annotateView(r *http.Request, cached, coalesced bool) {
	switch {
	case cached:
		Annotate(r.Context(), "cache", "view-hit")
	case coalesced:
		Annotate(r.Context(), "cache", "coalesced")
	default:
		Annotate(r.Context(), "cache", "miss")
	}
}

// encKey identifies one encoded /snapshot body in the encoded-bytes
// cache: the view key plus the response shape (full or counts-only) and
// the encoding it was serialized with.
func encKey(t historygraph.Time, attrs string, full bool, codecName string) string {
	k := cacheKey(t, attrs)
	if full {
		k += "|full|"
	} else {
		k += "|counts|"
	}
	return k + codecName
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if !s.CheckEpoch(w, r) {
		return
	}
	q, ok := ReadQuery(w, r, true)
	if !ok {
		return
	}
	accept := r.Header.Get("Accept")
	// Streaming applies to full responses only: a counts-only answer has
	// nothing to chunk, so it falls through to the whole-message codec
	// Negotiate picks (the stream Accept value matches binary there).
	stream := q.Full && wire.WantsStream(accept)
	codec := wire.Negotiate(accept)
	name := codec.Name()
	if stream {
		name = wire.NameBinaryStream
	}
	ekey := encKey(q.T, q.Attrs, q.Full, name)
	for d := range strings.SplitSeq(r.Header.Get("Cache-Control"), ",") {
		if strings.EqualFold(strings.TrimSpace(d), "no-store") {
			// The caller keeps the encoded answer (a coordinator's merged
			// level), so this level could never hold the body: serve the
			// same bytes with no lookup, no counted miss and no admission.
			ekey = ""
		}
	}
	if ekey != "" && s.enc.WriteHit(w, ekey) {
		Annotate(r.Context(), "cache", "encoded-hit")
		return
	}
	// Snapshot the invalidation generation before the retrieval so a body
	// built while an append overlapped cannot register as fresh.
	gen := s.enc.Gen()
	h, release, cached, coalesced, err := s.acquire(q.T, q.Attrs)
	if err != nil {
		WriteError(w, http.StatusUnprocessableEntity, err)
		return
	}
	annotateView(r, cached, coalesced)
	if coalesced {
		// Coalesced waiters leave caching to the flight leader, like the
		// coordinator's merged-response cache.
		ekey = ""
	}
	own := s.ownership()
	if stream {
		s.streamSnapshot(w, h, release, cached, coalesced, ekey, gen, own)
		return
	}
	slot := cache.Entry[cache.Body]{At: q.T, DepCur: h.DependsOnCurrent()}
	if _, bin := codec.(wire.Binary); bin {
		// Written straight from the walk; a later hit answers the same
		// bytes with the Cached flag set.
		s.enc.Encodes.Inc()
		body := binarySnapshot(h, wire.Snapshot{At: int64(h.At()), Cached: cached, Coalesced: coalesced}, q.Full, own)
		release()
		var hit func() ([]byte, error)
		if !cached {
			hit = func() ([]byte, error) { return body.MarkCached(), nil }
		}
		s.enc.WriteBody(w, codec.ContentType(), body.Bytes(), hit, ekey, slot, gen)
		return
	}
	out := snapshotOf(h, h.At(), q.Full, own)
	release()
	out.Cached, out.Coalesced = cached, coalesced
	var hit any
	if !cached {
		// A later hit answers exactly like a hot-snapshot cache hit: the
		// Cached flag flips on.
		variant := out
		variant.Cached = true
		hit = variant
	}
	s.enc.Write(w, codec, out, hit, ekey, slot, gen)
}

func (s *Server) handleNeighbors(w http.ResponseWriter, r *http.Request) {
	if !s.CheckEpoch(w, r) {
		return
	}
	q, ok := ReadQuery(w, r, true)
	if !ok {
		return
	}
	nodeRaw := q.Get("node")
	node, err := strconv.ParseInt(nodeRaw, 10, 64)
	if err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("bad node %q", nodeRaw))
		return
	}
	h, release, cached, _, err := s.acquire(q.T, q.Attrs)
	if err != nil {
		WriteError(w, http.StatusUnprocessableEntity, err)
		return
	}
	id := historygraph.NodeID(node)
	out := wire.Neighbors{At: int64(q.T), Node: node, Cached: cached}
	var neigh []historygraph.NodeID
	if own := s.ownership(); own.filtering() {
		// Restricted to owned edges: a retired owner still holding a
		// moved slot's history must not double-count its edges in the
		// coordinator's degree sum.
		out.Degree, neigh = ownedNeighbors(h, id, own)
	} else {
		out.Degree, neigh = h.Degree(id), h.Neighbors(id)
	}
	release()
	out.Neighbors = make([]int64, len(neigh))
	for i, n := range neigh {
		out.Neighbors[i] = int64(n)
	}
	WriteWire(w, r, http.StatusOK, out)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if !s.CheckEpoch(w, r) {
		return
	}
	gm := s.gm.Load()
	own := s.ownership()
	q, times, ok := ReadBatchQuery(w, r)
	if !ok {
		return
	}
	attrs, full := q.Attrs, q.Full
	out := make([]wire.Snapshot, len(times))

	// Probe the hot-snapshot cache per timepoint; the misses execute as
	// one multipoint shared-delta plan (Section 4.4) into the GraphPool
	// and register in the cache, so a repeat batch — or a later
	// singlepoint query at any of its timepoints — costs zero plan
	// executions.
	var missTimes []historygraph.Time
	missIdx := make(map[historygraph.Time][]int)
	for i, t := range times {
		if h, rel, ok := s.cache.Acquire(cacheKey(t, attrs)); ok {
			out[i] = snapshotOf(h, t, full, own)
			rel()
			out[i].Cached = true
			continue
		}
		if _, seen := missIdx[t]; !seen {
			missTimes = append(missTimes, t)
		}
		missIdx[t] = append(missIdx[t], i)
	}
	if len(missTimes) > 0 {
		s.retrievals.Add(int64(len(missTimes)))
		gen := s.cache.Gen()
		hs, err := gm.GetHistGraphs(missTimes, attrs)
		if err != nil {
			WriteError(w, http.StatusUnprocessableEntity, err)
			return
		}
		// Admission guard: registering a batch as large as the whole LRU
		// would evict the entire hot set (including the batch's own
		// earlier entries) for zero reuse, so such a batch — which is also
		// every batch when caching is disabled (capacity 0) — is answered
		// from its views and hands them straight back to the pool.
		admit := len(missTimes) < s.cache.Cap()
		for j, h := range hs {
			t := missTimes[j]
			// Not cached (guarded, concurrent append invalidation, or
			// shutdown): this view is served directly and released.
			fh, rel := h, func() { gm.Release(h) }
			if admit {
				if ch, crel := s.cache.InsertAcquire(gm, cacheKey(t, attrs), t, h, gen); crel != nil {
					fh, rel = ch, crel
				}
			}
			sj := snapshotOf(fh, t, full, own)
			rel()
			for _, i := range missIdx[t] {
				out[i] = sj
			}
		}
	}
	WriteWire(w, r, http.StatusOK, out)
}

func (s *Server) handleInterval(w http.ResponseWriter, r *http.Request) {
	if !s.CheckEpoch(w, r) {
		return
	}
	q, from, to, ok := ReadSpanQuery(w, r, "interval", "from", "to")
	if !ok {
		return
	}
	gm := s.gm.Load()
	res, err := gm.GetHistGraphInterval(from, to, q.Attrs)
	if err != nil {
		WriteError(w, http.StatusUnprocessableEntity, err)
		return
	}
	own := s.ownership()
	sj := snapshotOf(res.Graph, 0, q.Full, own)
	gm.Release(res.Graph)
	out := wire.Interval{
		Start: int64(res.Start), End: int64(res.End),
		NumNodes: sj.NumNodes, NumEdges: sj.NumEdges,
		Nodes: sj.Nodes, Edges: sj.Edges,
	}
	for _, ev := range res.Transients {
		if own.filtering() && !own.owns(graph.SlotOfEvent(ev)) {
			continue
		}
		out.Transients = append(out.Transients, ev)
	}
	WriteWire(w, r, http.StatusOK, out)
}

func (s *Server) handleExpr(w http.ResponseWriter, r *http.Request) {
	if !s.CheckEpoch(w, r) {
		return
	}
	req, expr, ok := ReadExprRequest(w, r)
	if !ok {
		return
	}
	tex := historygraph.TimeExpression{Expr: expr}
	for _, t := range req.Times {
		tex.Times = append(tex.Times, historygraph.Time(t))
	}
	gm := s.gm.Load()
	h, err := gm.GetHistGraphExpr(tex, req.Attrs)
	if err != nil {
		WriteError(w, http.StatusUnprocessableEntity, err)
		return
	}
	out := snapshotOf(h, 0, req.Full, s.ownership())
	gm.Release(h)
	WriteWire(w, r, http.StatusOK, out)
}

// ApplyEvents records a run of events against the embedded GraphManager
// and invalidates the affected hot-snapshot cache entries — the single
// append-application path, shared by the HTTP handler and the replication
// subsystem (internal/replica), whose WAL replay and follower apply loops
// must invalidate exactly like a live append. The cache is invalidated
// even when the batch failed partway: AppendAll applies events one at a
// time, so a prefix may have landed. Cached snapshots at or after the
// earliest appended timestamp — and every view that reads through the
// current graph — are stale then; earlier independent ones are untouched
// (history is append-only).
func (s *Server) ApplyEvents(events historygraph.EventList) (wire.AppendResult, error) {
	gm := s.gm.Load()
	minAt := historygraph.Time(0)
	for i, ev := range events {
		if i == 0 || ev.At < minAt {
			minAt = ev.At
		}
	}
	applied, appendErr := gm.AppendAllCounted(events)
	// Invalidated counts evicted *views*, as it always has; the encoded
	// bodies projected from them go in the same pass.
	invalidated := 0
	if len(events) > 0 {
		invalidated = s.invalidate(minAt)
	}
	// Appended is the exact applied count even on failure (a prefix may
	// have landed); the replication recovery paths read it to resume
	// precisely where a partial apply stopped.
	res := wire.AppendResult{
		Appended:    applied,
		LastTime:    int64(gm.LastTime()),
		Invalidated: invalidated,
	}
	return res, appendErr
}

// Manager returns the embedded GraphManager (the replication node uses it
// to bound WAL replay).
func (s *Server) Manager() *historygraph.GraphManager { return s.gm.Load() }

// ReplaceManager swaps the embedded GraphManager for a rebuilt one (the
// automated replica re-seed) and returns the old manager. Every cache
// level is dropped: pinned views belong to the old manager's pool and are
// released through it, and the generation bumps refuse in-flight inserts
// whose retrievals predate the swap. Requests already past their gm load
// finish against the old manager, so the caller must keep it open until
// those drain (or accept their failure, as the re-seed path does after a
// divergence that already made the old store unservable).
func (s *Server) ReplaceManager(gm *historygraph.GraphManager) *historygraph.GraphManager {
	s.observeIndex(gm)
	old := s.gm.Swap(gm)
	s.invalidate(cache.AllTime)
	return old
}

// handleStats re-derives the /stats JSON from the metrics registry's
// collectors — the exact values /metrics exposes — so the two surfaces
// cannot drift.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	gm := s.gm.Load()
	out := wire.Stats{
		Index: gm.IndexStats(),
		Pool:  gm.PoolStats(),
		Server: wire.ServerStats{
			Requests:   s.ins.Requests(),
			Retrievals: s.retrievals.Value(),
			Coalesced:  s.flights.Hits.Value(),
		},
	}
	vs := s.cache.Stats()
	out.Server.CacheHits, out.Server.CacheMisses, out.Server.CacheEvictions = vs.Hits, vs.Misses, vs.Evictions
	out.Server.CacheSize, out.Server.CacheCapacity = vs.Size, vs.Capacity
	es := s.enc.Stats()
	out.Server.Encodes = s.Encodes()
	out.Server.EncodedHits, out.Server.EncodedMisses = es.Hits, es.Misses
	out.Server.EncodedSize, out.Server.EncodedCapacity = es.Size, es.Capacity
	WriteJSON(w, http.StatusOK, out)
}

// ParseTimeParam parses a timepoint query parameter. Exported so the
// shard coordinator parses requests exactly like a worker.
func ParseTimeParam(s string) (historygraph.Time, error) {
	if s == "" {
		return 0, fmt.Errorf("missing timepoint parameter t")
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad timepoint %q", s)
	}
	return historygraph.Time(v), nil
}

// Query is a read request's URL query, parsed once, with the parameters
// the read endpoints of both roles share already interpreted; an
// endpoint's own parameters (node, from, t1, …) are read with Get.
type Query struct {
	url.Values
	T     historygraph.Time // "t"; zero for endpoints that name their timepoints otherwise
	Attrs string            // "attrs", known to parse
	Full  bool              // "full"
}

// ReadQuery parses the shared read parameters — attrs, full and, when
// wantT, the timepoint t — and answers 400 itself (ok false) when one is
// malformed. The attribute spec is validated here, for every endpoint of
// a worker and a coordinator alike, so a malformed one is the client's
// 400 everywhere rather than whatever status the retrieval underneath
// happens to fail with.
func ReadQuery(w http.ResponseWriter, r *http.Request, wantT bool) (q Query, ok bool) {
	q.Values = r.URL.Query()
	var err error
	if wantT {
		q.T, err = ParseTimeParam(q.Get("t"))
	}
	q.Attrs, q.Full = q.Get("attrs"), BoolParam(q.Get("full"))
	if err == nil {
		_, err = historygraph.ParseAttrOptions(q.Attrs)
	}
	return q, badRequest(w, err)
}

// ReadSpanQuery is ReadQuery for an endpoint that takes a pair of
// timepoints under its own parameter names (/interval's from and to,
// /analytics/evolution's t1 and t2).
func ReadSpanQuery(w http.ResponseWriter, r *http.Request, endpoint, first, second string) (q Query, a, b historygraph.Time, ok bool) {
	if q, ok = ReadQuery(w, r, false); !ok {
		return q, 0, 0, false
	}
	a, err1 := ParseTimeParam(q.Get(first))
	b, err2 := ParseTimeParam(q.Get(second))
	if err1 != nil || err2 != nil {
		ok = badRequest(w, fmt.Errorf("%s wants numeric %s/%s", endpoint, first, second))
	}
	return q, a, b, ok
}

// ReadBatchQuery is ReadQuery for /batch, whose t is a comma-separated
// list of timepoints.
func ReadBatchQuery(w http.ResponseWriter, r *http.Request) (q Query, times []historygraph.Time, ok bool) {
	if q, ok = ReadQuery(w, r, false); !ok {
		return q, nil, false
	}
	for _, part := range strings.Split(q.Get("t"), ",") {
		t, err := ParseTimeParam(strings.TrimSpace(part))
		if err != nil {
			return q, nil, badRequest(w, err)
		}
		times = append(times, t)
	}
	return q, times, true
}

// ReadExprRequest reads and validates a POST /expr body: the expression
// must parse over the request's timepoints and the attribute spec must be
// well-formed. Every failure is the client's: answered 400 here, ok false.
func ReadExprRequest(w http.ResponseWriter, r *http.Request) (req wire.ExprRequest, expr historygraph.TimeExpr, ok bool) {
	err := ReadBody(r, &req)
	if err != nil {
		err = fmt.Errorf("bad expr body: %w", err)
	} else if _, err = historygraph.ParseAttrOptions(req.Attrs); err == nil {
		expr, err = ParseTimeExpr(req.Expr, len(req.Times))
	}
	return req, expr, badRequest(w, err)
}

// badRequest answers 400 with err, if there is one, and reports whether
// the request may proceed.
func badRequest(w http.ResponseWriter, err error) bool {
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
	}
	return err == nil
}

// BoolParam parses a boolean query parameter ("1", "true", "yes").
func BoolParam(s string) bool {
	switch strings.ToLower(s) {
	case "1", "true", "yes":
		return true
	}
	return false
}

// WriteJSON writes v as the JSON response body with the given status.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// WriteWire writes v encoded with the codec the request's Accept header
// negotiated (wire.Negotiate): JSON unless the client asked for binary.
// Types the negotiated codec cannot encode fall back to JSON, so adding a
// binary-unaware response shape never breaks a binary client — it just
// answers JSON, which the Content-Type header declares.
func WriteWire(w http.ResponseWriter, r *http.Request, code int, v any) {
	codec := wire.Negotiate(r.Header.Get("Accept"))
	data, err := codec.Encode(v)
	if err != nil {
		WriteJSON(w, code, v)
		return
	}
	writeBody(w, code, codec.ContentType(), data)
}

// writeBody answers code with body, whole: its Content-Length stated, so
// a client can size its read before the first byte.
func writeBody(w http.ResponseWriter, code int, contentType string, body []byte) {
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	w.Write(body)
}

// ReadBody decodes a request body with the codec its Content-Type names
// (JSON unless the binary type is declared). AppendFrames reads a batch
// with it, and every role's request bodies go through it, so each accepts
// both encodings.
func ReadBody(r *http.Request, v any) error {
	data, err := io.ReadAll(r.Body)
	if err != nil {
		return err
	}
	return wire.ForContentType(r.Header.Get("Content-Type")).Decode(data, v)
}

// WriteError writes the wire error shape ({"error": "..."}) the Client
// decodes; the shard coordinator reuses it so error bodies stay uniform.
func WriteError(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, wire.Error{Error: err.Error()})
}
