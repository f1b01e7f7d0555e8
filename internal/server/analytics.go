package server

// Worker-side analytics: the /analytics/* handlers every server exposes.
// Unsharded, a request computes the partition scan with parts=1 and
// merges the single part — the same code path the shard coordinator runs
// per partition, so sharded and single-process answers agree byte for
// byte. Sharded, the coordinator adds parts/self query parameters and the
// handler answers the raw mergeable part instead.
//
// A scan builds a CSR (internal/csr) from the view Server.acquire
// returns, so it shares the view cache, flight group and invalidation
// pass with /snapshot; evolution diffs two pinned views directly because
// it needs edge identity, which the CSR drops.

import (
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"historygraph"
	"historygraph/internal/analytics"
	"historygraph/internal/csr"
	"historygraph/internal/metrics"
	"historygraph/internal/pregel"
	"historygraph/internal/wire"
)

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

// analyticsState is the server's analytics plane: the PageRank partition
// job table and the analytics metrics.
type analyticsState struct {
	mu   sync.Mutex
	jobs map[string]*prJob

	jobsTotal  *metrics.CounterVec
	durations  *metrics.HistogramVec
	supersteps *metrics.Counter
}

// scanCSR builds the CSR a scan reads at (t, attrs) from an acquired
// view, annotates the trace with the view's cache verdict as /snapshot
// does, and reports whether the view was a cache hit.
func (s *Server) scanCSR(r *http.Request, t historygraph.Time, attrs string) (*csr.Graph, bool, error) {
	h, release, cached, coalesced, err := s.acquire(t, attrs)
	if err != nil {
		return nil, false, err
	}
	defer release()
	annotateView(r, cached, coalesced)
	return csr.Build(h), cached, nil
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
// reduces the scan's CSR to this partition's mergeable part, cached
// locates the part's Cached flag (set on a view-cache hit), and merge
// folds parts into the response. A coordinator leg (parts > 1) is
// answered the raw part; an unsharded request merges its single part
// through the same merge the coordinator runs over many.
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
			g, hit, err := s.scanCSR(r, q.T, q.Attrs)
			if err != nil {
				WriteError(w, http.StatusUnprocessableEntity, err)
				return err
			}
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

// MaxPageRankIterations bounds a PageRank request's iterations: each one
// is a full pass over the graph, and at a coordinator a cluster-wide
// superstep.
const MaxPageRankIterations = 1000

// ReadPageRankRequest reads a POST /analytics/pagerank body, checks its
// attribute spec, damping and iterations (answering 400 itself on any
// failure) and fills the defaults — one place both the coordinator and
// the worker resolve them, so damping/iterations agree across every
// partition of a job.
func ReadPageRankRequest(w http.ResponseWriter, r *http.Request) (req wire.PageRankRequest, ok bool) {
	err := ReadBody(r, &req)
	switch {
	case err != nil:
		err = fmt.Errorf("bad pagerank body: %w", err)
	case req.Damping < 0 || req.Damping >= 1:
		err = fmt.Errorf("bad pagerank damping %v: want 0 < damping < 1 (0 for the default)", req.Damping)
	case req.Iterations > MaxPageRankIterations:
		err = fmt.Errorf("bad pagerank iterations %d: at most %d", req.Iterations, MaxPageRankIterations)
	default:
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
// CSR at one partition (pregel.PageRank): the whole graph on an unsharded
// server, where the answer is a cluster's byte for byte; one partition's
// subgraph otherwise (meaningless alone; the coordinator never calls
// this, it drives the superstep protocol instead). Like a coordinator's,
// each of its supersteps counts in dg_analytics_supersteps_total.
func (s *Server) handleAnalyticsPageRank(w http.ResponseWriter, r *http.Request) {
	req, ok := ReadPageRankRequest(w, r)
	if !ok {
		return
	}
	s.observeAnalytics("pagerank", func() error {
		g, _, err := s.scanCSR(r, historygraph.Time(req.T), req.Attrs)
		if err != nil {
			WriteError(w, http.StatusUnprocessableEntity, err)
			return err
		}
		top := pregel.PageRank(g, req.Damping, req.Iterations, req.TopK)
		s.an.supersteps.Add(int64(req.Iterations + 1))
		WriteWire(w, r, http.StatusOK, wire.PageRankResult{
			At: req.T, NumNodes: int64(g.NumNodes()),
			Damping: req.Damping, Iterations: req.Iterations,
			Supersteps: req.Iterations + 1, Top: top,
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
	g, _, err := s.scanCSR(r, historygraph.Time(req.T), req.Attrs)
	if err != nil {
		WriteError(w, http.StatusUnprocessableEntity, err)
		return
	}
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
