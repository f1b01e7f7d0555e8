package server

// Worker-side analytics: the /analytics/* handlers every server exposes.
// Unsharded, a request computes the partition scan with parts=1 and
// merges the single part — the same code path the shard coordinator runs
// per partition, so sharded and single-process answers agree byte for
// byte. Sharded, the coordinator adds parts/self query parameters and the
// handler answers the raw mergeable part instead.
//
// Scans run over a materialized CSR snapshot (internal/csr) cached beside
// the view cache under the same generation guard; evolution diffs two
// pinned views directly because it needs edge identity, which the CSR
// drops.

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"historygraph"
	"historygraph/internal/analytics"
	"historygraph/internal/cache"
	"historygraph/internal/csr"
	"historygraph/internal/metrics"
	"historygraph/internal/pregel"
	"historygraph/internal/wire"
)

// DefaultCSRCacheSize is the CSR cache capacity when Config.CSRCacheSize
// is zero.
const DefaultCSRCacheSize = 16

// prJobTTL is how long an idle PageRank partition job survives between
// steps before the prune pass reclaims it — the backstop for jobs whose
// coordinator died mid-run.
const prJobTTL = 5 * time.Minute

// maxPRJobs bounds concurrently resident partition jobs; prepares beyond
// it are rejected rather than letting abandoned state accumulate.
const maxPRJobs = 64

// prJob is one PageRank job's partition-resident state between supersteps.
type prJob struct {
	pr   *pregel.PartitionPageRank
	last time.Time
}

// analyticsState is the server's analytics plane: the CSR cache and the
// PageRank partition job table.
type analyticsState struct {
	csr *cache.Cache[*csr.Graph] // materialized CSRs, keyed like the view cache

	mu   sync.Mutex
	jobs map[string]*prJob

	jobsTotal  *metrics.CounterVec
	durations  *metrics.HistogramVec
	supersteps *metrics.Counter
}

// acquireCSR returns the CSR snapshot for (t, attrs), built from a pinned
// view on miss and cached under the view cache's invalidation rules.
// Concurrent identical builds coalesce on the flight group.
func (s *Server) acquireCSR(t historygraph.Time, attrs string) (*csr.Graph, bool, error) {
	key := "csr|" + cacheKey(t, attrs)
	if g, ok := s.an.csr.Get(key); ok {
		return g, true, nil
	}
	v, _, err := s.flights.Do(key, func() (any, error) {
		gen := s.an.csr.Gen()
		g, depCur, err := s.buildCSR(t, attrs)
		if err != nil {
			return nil, err
		}
		s.an.csr.Insert(key, cache.Entry[*csr.Graph]{At: t, DepCur: depCur, Value: g}, gen)
		return g, nil
	})
	if err != nil {
		return nil, false, err
	}
	return v.(*csr.Graph), false, nil
}

// buildCSR materializes one CSR from a freshly acquired view.
func (s *Server) buildCSR(t historygraph.Time, attrs string) (*csr.Graph, bool, error) {
	h, release, _, _, err := s.acquire(t, attrs)
	if err != nil {
		return nil, false, err
	}
	defer release()
	return csr.Build(h), h.DependsOnCurrent(), nil
}

// analyticsParams parses the common scan parameters. parts/self identify
// a coordinator leg (answer the raw part); absent, the handler merges
// locally.
func analyticsParams(r *http.Request) (attrs string, parts, self int, err error) {
	q := r.URL.Query()
	attrs = q.Get("attrs")
	if _, err := historygraph.ParseAttrOptions(attrs); err != nil {
		return "", 0, 0, err
	}
	parts, self = 1, 0
	if p := q.Get("parts"); p != "" {
		if parts, err = strconv.Atoi(p); err != nil || parts < 1 {
			return "", 0, 0, fmt.Errorf("bad parts %q", p)
		}
		if self, err = strconv.Atoi(q.Get("self")); err != nil || self < 0 || self >= parts {
			return "", 0, 0, fmt.Errorf("bad self %q for %d parts", q.Get("self"), parts)
		}
	}
	return attrs, parts, self, nil
}

func (s *Server) handleAnalyticsDegree(w http.ResponseWriter, r *http.Request) {
	t, err := ParseTimeParam(r.URL.Query().Get("t"))
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	attrs, parts, self, err := analyticsParams(r)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	s.observeAnalytics("degree", func() error {
		g, cached, err := s.acquireCSR(t, attrs)
		if err != nil {
			WriteError(w, http.StatusUnprocessableEntity, err)
			return err
		}
		annotateCSR(r, cached)
		part := analytics.DegreePartOf(g, t, parts, self)
		part.Cached = cached
		if parts > 1 {
			WriteWire(w, r, http.StatusOK, part)
			return nil
		}
		WriteWire(w, r, http.StatusOK, analytics.MergeDegree(int64(t), []*wire.DegreePart{part}))
		return nil
	})
}

func (s *Server) handleAnalyticsComponents(w http.ResponseWriter, r *http.Request) {
	t, err := ParseTimeParam(r.URL.Query().Get("t"))
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	attrs, parts, self, err := analyticsParams(r)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	s.observeAnalytics("components", func() error {
		g, cached, err := s.acquireCSR(t, attrs)
		if err != nil {
			WriteError(w, http.StatusUnprocessableEntity, err)
			return err
		}
		annotateCSR(r, cached)
		part := analytics.ComponentsPartOf(g, t, parts, self)
		part.Cached = cached
		if parts > 1 {
			WriteWire(w, r, http.StatusOK, part)
			return nil
		}
		WriteWire(w, r, http.StatusOK, analytics.MergeComponents(int64(t), []*wire.ComponentsPart{part}))
		return nil
	})
}

func (s *Server) handleAnalyticsEvolution(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	t1, err1 := ParseTimeParam(q.Get("t1"))
	t2, err2 := ParseTimeParam(q.Get("t2"))
	if err1 != nil || err2 != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("evolution wants numeric t1/t2"))
		return
	}
	attrs, parts, _, err := analyticsParams(r)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	s.observeAnalytics("evolution", func() error {
		g1, rel1, cached1, _, err := s.acquire(t1, attrs)
		if err != nil {
			WriteError(w, http.StatusUnprocessableEntity, err)
			return err
		}
		defer rel1()
		g2, rel2, cached2, _, err := s.acquire(t2, attrs)
		if err != nil {
			WriteError(w, http.StatusUnprocessableEntity, err)
			return err
		}
		defer rel2()
		part := analytics.EvolutionPartOf(g1, g2, t1, t2)
		part.Cached = cached1 && cached2
		if parts > 1 {
			WriteWire(w, r, http.StatusOK, part)
			return nil
		}
		WriteWire(w, r, http.StatusOK, analytics.MergeEvolution([]*wire.EvolutionPart{part}))
		return nil
	})
}

// NormalizePageRank fills a request's defaults in place — one place both
// the coordinator and the worker resolve them, so damping/iterations
// agree across every partition of a job.
func NormalizePageRank(req *wire.PageRankRequest) {
	if req.Damping == 0 {
		req.Damping = 0.85
	}
	if req.Iterations <= 0 {
		req.Iterations = 20
	}
	if req.TopK <= 0 {
		req.TopK = 20
	}
}

// handleAnalyticsPageRank computes PageRank synchronously over the local
// CSR — the whole graph on an unsharded server (the sharded oracle), one
// partition's subgraph otherwise (meaningless alone; the coordinator
// never calls this, it drives the superstep protocol instead).
func (s *Server) handleAnalyticsPageRank(w http.ResponseWriter, r *http.Request) {
	var req wire.PageRankRequest
	if err := ReadBody(r, &req); err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("bad pagerank body: %w", err))
		return
	}
	NormalizePageRank(&req)
	if _, err := historygraph.ParseAttrOptions(req.Attrs); err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	s.observeAnalytics("pagerank", func() error {
		g, cached, err := s.acquireCSR(historygraph.Time(req.T), req.Attrs)
		if err != nil {
			WriteError(w, http.StatusUnprocessableEntity, err)
			return err
		}
		annotateCSR(r, cached)
		scores := analytics.PageRank(g, req.Damping, req.Iterations)
		top := make([]wire.RankEntry, 0, req.TopK)
		for _, id := range analytics.TopK(scores, req.TopK) {
			top = append(top, wire.RankEntry{Node: int64(id), Score: scores[id]})
		}
		WriteWire(w, r, http.StatusOK, wire.PageRankResult{
			At: req.T, NumNodes: int64(g.NumNodes()),
			Damping: req.Damping, Iterations: req.Iterations,
			Supersteps: req.Iterations, Top: top,
		})
		return nil
	})
}

// --- PageRank partition job endpoints (coordinator-internal) ----------

// pruneJobsLocked drops partition jobs idle past the TTL.
func (a *analyticsState) pruneJobsLocked(now time.Time) {
	for id, j := range a.jobs {
		if now.Sub(j.last) > prJobTTL {
			delete(a.jobs, id)
		}
	}
}

func (s *Server) handlePRPrepare(w http.ResponseWriter, r *http.Request) {
	var req wire.PRPrepare
	if err := ReadBody(r, &req); err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("bad prepare body: %w", err))
		return
	}
	if req.Job == "" || req.Parts < 1 || req.Self < 0 || req.Self >= req.Parts {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("bad prepare job/parts/self"))
		return
	}
	g, cached, err := s.acquireCSR(historygraph.Time(req.T), req.Attrs)
	if err != nil {
		WriteError(w, http.StatusUnprocessableEntity, err)
		return
	}
	annotateCSR(r, cached)
	pr := pregel.NewPartitionPageRank(g, req.Parts, req.Self, req.Damping)
	pairs := analytics.BoundaryPairs(g, req.Parts, req.Self)
	s.an.mu.Lock()
	now := time.Now()
	s.an.pruneJobsLocked(now)
	if len(s.an.jobs) >= maxPRJobs {
		s.an.mu.Unlock()
		WriteError(w, http.StatusServiceUnavailable, fmt.Errorf("pagerank job table full (%d resident)", maxPRJobs))
		return
	}
	s.an.jobs[req.Job] = &prJob{pr: pr, last: now}
	s.an.mu.Unlock()
	WriteWire(w, r, http.StatusOK, wire.PRPrepared{
		Job: req.Job, Nodes: pr.NumVertices(), Pairs: pairs,
	})
}

// jobFor looks up one partition job, refreshing its idle clock.
func (s *Server) jobFor(id string) (*prJob, error) {
	s.an.mu.Lock()
	defer s.an.mu.Unlock()
	j, ok := s.an.jobs[id]
	if !ok {
		return nil, fmt.Errorf("unknown pagerank job %q (expired or never prepared)", id)
	}
	j.last = time.Now()
	return j, nil
}

func (s *Server) handlePRStart(w http.ResponseWriter, r *http.Request) {
	var req wire.PRStart
	if err := ReadBody(r, &req); err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("bad prstart body: %w", err))
		return
	}
	j, err := s.jobFor(req.Job)
	if err != nil {
		WriteError(w, http.StatusNotFound, err)
		return
	}
	j.pr.Start(req.N, req.Ghosts)
	WriteWire(w, r, http.StatusOK, wire.PRPrepared{Job: req.Job, Nodes: j.pr.NumVertices()})
}

func (s *Server) handlePRStep(w http.ResponseWriter, r *http.Request) {
	var req wire.PRStepRequest
	if err := ReadBody(r, &req); err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("bad prstep body: %w", err))
		return
	}
	j, err := s.jobFor(req.Job)
	if err != nil {
		WriteError(w, http.StatusNotFound, err)
		return
	}
	// One superstep: fold routed shares in, commit the pending round, then
	// scatter the next one. The collecting step (TopK set) releases the
	// partition's job state.
	j.pr.Absorb(req.Inbox)
	if req.Finalize {
		j.pr.Finalize()
	}
	var res wire.PRStepResult
	if req.Compute {
		res.Out = j.pr.Compute()
	}
	s.an.supersteps.Inc()
	if req.TopK > 0 {
		res.Top = j.pr.TopK(req.TopK)
		res.NumNodes = j.pr.NumVertices()
		s.an.mu.Lock()
		delete(s.an.jobs, req.Job)
		s.an.mu.Unlock()
	}
	WriteWire(w, r, http.StatusOK, res)
}

// observeAnalytics wraps one analytics execution with the jobs/duration
// metrics: status "ok" or "error", duration observed per kind.
func (s *Server) observeAnalytics(kind string, fn func() error) {
	start := time.Now()
	err := fn()
	status := "ok"
	if err != nil {
		status = "error"
	}
	s.an.jobsTotal.With(kind, status).Inc()
	s.an.durations.With(kind).Observe(time.Since(start).Seconds())
}

// annotateCSR tags the request trace with the CSR cache verdict.
func annotateCSR(r *http.Request, cached bool) {
	if cached {
		Annotate(r.Context(), "csr", "hit")
	} else {
		Annotate(r.Context(), "csr", "miss")
	}
}
