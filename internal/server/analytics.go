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
	"net/url"
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

// readParts parses the parameters that mark a coordinator leg — parts and
// self: answer the raw part — answering 400 itself when they are
// malformed; absent (parts 1), the handler merges locally.
func readParts(w http.ResponseWriter, v url.Values) (parts, self int, ok bool) {
	var err error
	parts = 1
	if p := v.Get("parts"); p != "" {
		if parts, err = strconv.Atoi(p); err != nil || parts < 1 {
			err = fmt.Errorf("bad parts %q", p)
		} else if self, err = strconv.Atoi(v.Get("self")); err != nil || self < 0 || self >= parts {
			err = fmt.Errorf("bad self %q for %d parts", v.Get("self"), parts)
		}
	}
	return parts, self, badRequest(w, err)
}

// scanHandler is the one CSR scan endpoint behind /analytics/degree and
// /analytics/components, which differ only in the reduction: partOf
// reduces the cached CSR to this partition's mergeable part, cached
// locates the part's Cached flag, and merge folds parts into the
// response. A coordinator leg (parts > 1) is answered the raw part; an
// unsharded request merges its single part through the same merge the
// coordinator runs over many.
func scanHandler[P, M any](s *Server, kind string,
	partOf func(g analytics.RowGraph, at historygraph.Time, parts, self int) *P,
	cached func(*P) *bool, merge func(at int64, parts []*P) *M) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q, ok := ReadQuery(w, r, true)
		if !ok {
			return
		}
		parts, self, ok := readParts(w, q.Values)
		if !ok {
			return
		}
		s.observeAnalytics(kind, func() error {
			g, hit, err := s.acquireCSR(q.T, q.Attrs)
			if err != nil {
				WriteError(w, http.StatusUnprocessableEntity, err)
				return err
			}
			annotateCSR(r, hit)
			part := partOf(g, q.T, parts, self)
			*cached(part) = hit
			if parts > 1 {
				WriteWire(w, r, http.StatusOK, part)
				return nil
			}
			WriteWire(w, r, http.StatusOK, merge(int64(q.T), []*P{part}))
			return nil
		})
	}
}

func (s *Server) handleAnalyticsEvolution(w http.ResponseWriter, r *http.Request) {
	q, t1, t2, ok := ReadSpanQuery(w, r, "evolution", "t1", "t2")
	if !ok {
		return
	}
	parts, _, ok := readParts(w, q.Values)
	if !ok {
		return
	}
	s.observeAnalytics("evolution", func() error {
		g1, rel1, cached1, _, err := s.acquire(t1, q.Attrs)
		if err != nil {
			WriteError(w, http.StatusUnprocessableEntity, err)
			return err
		}
		defer rel1()
		g2, rel2, cached2, _, err := s.acquire(t2, q.Attrs)
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

// ReadPageRankRequest reads a POST /analytics/pagerank body, checks its
// attribute spec (answering 400 itself on either failure) and fills the
// defaults — one place both the coordinator and the worker resolve them,
// so damping/iterations agree across every partition of a job.
func ReadPageRankRequest(w http.ResponseWriter, r *http.Request) (req wire.PageRankRequest, ok bool) {
	err := ReadBody(r, &req)
	if err != nil {
		err = fmt.Errorf("bad pagerank body: %w", err)
	} else {
		_, err = historygraph.ParseAttrOptions(req.Attrs)
	}
	if req.Damping == 0 {
		req.Damping = 0.85
	}
	if req.Iterations <= 0 {
		req.Iterations = 20
	}
	if req.TopK <= 0 {
		req.TopK = 20
	}
	return req, badRequest(w, err)
}

// handleAnalyticsPageRank computes PageRank synchronously over the local
// CSR — the whole graph on an unsharded server (the sharded oracle), one
// partition's subgraph otherwise (meaningless alone; the coordinator
// never calls this, it drives the superstep protocol instead).
func (s *Server) handleAnalyticsPageRank(w http.ResponseWriter, r *http.Request) {
	req, ok := ReadPageRankRequest(w, r)
	if !ok {
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
