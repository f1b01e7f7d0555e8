package shard

// The coordinator's analytics plane: the /analytics/* merge handlers and
// the distributed PageRank job machine.
//
// Degree, components, and evolution are one scatter-gather each — every
// partition reduces its CSR (or view pair) to a mergeable part and the
// coordinator folds the parts with the same analytics.Merge* the
// unsharded server runs on its single part, so both deployments answer
// off one code path. The merged responses ride the same flight group and
// merged-response cache as /snapshot.
//
// PageRank is stateful: each partition holds vertex ranks across
// supersteps, so a job's legs are member-sticky — the member that
// answered a partition's prepare owns that partition's job state, and
// every later call for the job goes back to it rather than through the
// read rotation. A sticky member dying mid-job fails the leg and the job
// (reported as state "failed", or an error on a waiting request — never a
// hung client); the surviving partitions' state expires via the worker's
// job TTL.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"historygraph"
	"historygraph/internal/analytics"
	"historygraph/internal/graph"
	"historygraph/internal/metrics"
	"historygraph/internal/server"
	"historygraph/internal/wire"
)

// coJobTTL is how long a finished (or abandoned) coordinator job stays
// pollable before the prune pass drops it.
const coJobTTL = 10 * time.Minute

// maxCoJobs bounds resident coordinator jobs; submissions beyond it are
// rejected rather than letting unfetched results accumulate.
const maxCoJobs = 128

// coJob is one asynchronous analytics job's coordinator-side state.
type coJob struct {
	id   string
	kind string

	mu     sync.Mutex
	state  string // "running", "done", "failed"
	errMsg string
	result *wire.PageRankResult
	last   time.Time
}

// status snapshots the job for GET /analytics/jobs/{id}.
func (j *coJob) status() wire.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.last = time.Now()
	return wire.JobStatus{ID: j.id, Kind: j.kind, State: j.state, Error: j.errMsg, Result: j.result}
}

func (j *coJob) finish(res *wire.PageRankResult, err error) string {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err != nil {
		j.state, j.errMsg = "failed", err.Error()
	} else {
		j.state, j.result = "done", res
	}
	j.last = time.Now()
	return j.state
}

// coAnalytics is the coordinator's analytics state: the async job table
// plus the plane's metrics.
type coAnalytics struct {
	mu   sync.Mutex
	jobs map[string]*coJob

	jobsTotal  *metrics.CounterVec   // dg_analytics_jobs_total{kind,status}
	durations  *metrics.HistogramVec // dg_analytics_duration_seconds{kind}
	supersteps *metrics.Counter      // dg_analytics_supersteps_total
}

// observeAnalytics wraps one analytics execution with the jobs/duration
// metrics, mirroring the worker-side helper.
func (co *Coordinator) observeAnalytics(kind string, fn func() error) {
	start := time.Now()
	err := fn()
	status := "ok"
	if err != nil {
		status = "error"
	}
	co.an.jobsTotal.With(kind, status).Inc()
	co.an.durations.With(kind).Observe(time.Since(start).Seconds())
}

// --- mergeable scans --------------------------------------------------

func (co *Coordinator) handleAnalyticsDegree(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	t, err := server.ParseTimeParam(q.Get("t"))
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, err)
		return
	}
	attrs := q.Get("attrs")
	if _, err := historygraph.ParseAttrOptions(attrs); err != nil {
		server.WriteError(w, http.StatusBadRequest, err)
		return
	}
	co.observeAnalytics("degree", func() error {
		codec := wire.Negotiate(r.Header.Get("Accept"))
		key := fmt.Sprintf("andeg|%d|%s", t, attrs)
		server.Annotate(r.Context(), "partitions", strconv.Itoa(co.NumPartitions()))
		if co.writeCached(w, codec, key) {
			server.Annotate(r.Context(), "cache", "merged-hit")
			return nil
		}
		parent := context.WithoutCancel(r.Context())
		v, shared, err := co.flights.Do(key, func() (any, error) {
			co.fanouts.Inc()
			gen := co.cache.Gen()
			parts, errs, rt := scatterRead(co, parent, func(ctx reqCtx, cl *server.Client) (*wire.DegreePart, error) {
				return cl.DegreePartCtx(ctx, t, attrs, ctx.parts, ctx.part)
			})
			if len(errs) == len(rt.sets) {
				return nil, co.allFailed(errs)
			}
			co.notePartial(errs, len(rt.sets))
			out := analytics.MergeDegree(int64(t), compactParts(parts))
			out.Partial = errs
			return flightMerge{v: *out, gen: gen, complete: len(errs) == 0}, nil
		})
		if err != nil {
			writeAllFailed(w, err)
			return err
		}
		fm := v.(flightMerge)
		out := fm.v.(wire.DegreeDist)
		if shared {
			server.Annotate(r.Context(), "cache", "coalesced")
			out.Coalesced = true
			server.WriteWire(w, r, http.StatusOK, out)
			return nil
		}
		server.Annotate(r.Context(), "cache", "miss")
		cached := out
		cached.Cached, cached.Coalesced = true, false
		co.writeMerged(w, codec, out, cached, key, t, fm.gen, fm.complete)
		return nil
	})
}

func (co *Coordinator) handleAnalyticsComponents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	t, err := server.ParseTimeParam(q.Get("t"))
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, err)
		return
	}
	attrs := q.Get("attrs")
	if _, err := historygraph.ParseAttrOptions(attrs); err != nil {
		server.WriteError(w, http.StatusBadRequest, err)
		return
	}
	co.observeAnalytics("components", func() error {
		codec := wire.Negotiate(r.Header.Get("Accept"))
		key := fmt.Sprintf("ancmp|%d|%s", t, attrs)
		server.Annotate(r.Context(), "partitions", strconv.Itoa(co.NumPartitions()))
		if co.writeCached(w, codec, key) {
			server.Annotate(r.Context(), "cache", "merged-hit")
			return nil
		}
		parent := context.WithoutCancel(r.Context())
		v, shared, err := co.flights.Do(key, func() (any, error) {
			co.fanouts.Inc()
			gen := co.cache.Gen()
			parts, errs, rt := scatterRead(co, parent, func(ctx reqCtx, cl *server.Client) (*wire.ComponentsPart, error) {
				return cl.ComponentsPartCtx(ctx, t, attrs, ctx.parts, ctx.part)
			})
			if len(errs) == len(rt.sets) {
				return nil, co.allFailed(errs)
			}
			co.notePartial(errs, len(rt.sets))
			out := analytics.MergeComponents(int64(t), compactParts(parts))
			out.Partial = errs
			return flightMerge{v: *out, gen: gen, complete: len(errs) == 0}, nil
		})
		if err != nil {
			writeAllFailed(w, err)
			return err
		}
		fm := v.(flightMerge)
		out := fm.v.(wire.Components)
		if shared {
			server.Annotate(r.Context(), "cache", "coalesced")
			out.Coalesced = true
			server.WriteWire(w, r, http.StatusOK, out)
			return nil
		}
		server.Annotate(r.Context(), "cache", "miss")
		cached := out
		cached.Cached, cached.Coalesced = true, false
		co.writeMerged(w, codec, out, cached, key, t, fm.gen, fm.complete)
		return nil
	})
}

func (co *Coordinator) handleAnalyticsEvolution(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	t1, err1 := server.ParseTimeParam(q.Get("t1"))
	t2, err2 := server.ParseTimeParam(q.Get("t2"))
	if err1 != nil || err2 != nil {
		server.WriteError(w, http.StatusBadRequest, fmt.Errorf("evolution wants numeric t1/t2"))
		return
	}
	attrs := q.Get("attrs")
	if _, err := historygraph.ParseAttrOptions(attrs); err != nil {
		server.WriteError(w, http.StatusBadRequest, err)
		return
	}
	maxT := t1
	if t2 > maxT {
		maxT = t2
	}
	co.observeAnalytics("evolution", func() error {
		codec := wire.Negotiate(r.Header.Get("Accept"))
		key := fmt.Sprintf("anevo|%d|%d|%s", t1, t2, attrs)
		server.Annotate(r.Context(), "partitions", strconv.Itoa(co.NumPartitions()))
		if co.writeCached(w, codec, key) {
			server.Annotate(r.Context(), "cache", "merged-hit")
			return nil
		}
		parent := context.WithoutCancel(r.Context())
		v, shared, err := co.flights.Do(key, func() (any, error) {
			co.fanouts.Inc()
			gen := co.cache.Gen()
			parts, errs, rt := scatterRead(co, parent, func(ctx reqCtx, cl *server.Client) (*wire.EvolutionPart, error) {
				return cl.EvolutionPartCtx(ctx, t1, t2, attrs, ctx.parts, ctx.part)
			})
			if len(errs) == len(rt.sets) {
				return nil, co.allFailed(errs)
			}
			co.notePartial(errs, len(rt.sets))
			out := analytics.MergeEvolution(compactParts(parts))
			out.T1, out.T2 = int64(t1), int64(t2)
			out.Partial = errs
			return flightMerge{v: *out, gen: gen, complete: len(errs) == 0}, nil
		})
		if err != nil {
			writeAllFailed(w, err)
			return err
		}
		fm := v.(flightMerge)
		out := fm.v.(wire.Evolution)
		if shared {
			server.Annotate(r.Context(), "cache", "coalesced")
			out.Coalesced = true
			server.WriteWire(w, r, http.StatusOK, out)
			return nil
		}
		server.Annotate(r.Context(), "cache", "miss")
		cached := out
		cached.Cached, cached.Coalesced = true, false
		co.writeMerged(w, codec, out, cached, key, maxT, fm.gen, fm.complete)
		return nil
	})
}

// compactParts drops the nil slots failed partitions left in a scatter
// result (the merges take only the parts that answered).
func compactParts[T any](parts []*T) []*T {
	out := make([]*T, 0, len(parts))
	for _, p := range parts {
		if p != nil {
			out = append(out, p)
		}
	}
	return out
}

// --- PageRank job machine ---------------------------------------------

func (co *Coordinator) handleAnalyticsPageRank(w http.ResponseWriter, r *http.Request) {
	var req wire.PageRankRequest
	if err := server.ReadBody(r, &req); err != nil {
		server.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad pagerank body: %w", err))
		return
	}
	server.NormalizePageRank(&req)
	if _, err := historygraph.ParseAttrOptions(req.Attrs); err != nil {
		server.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if req.Wait {
		// Synchronous: the job runs under the request's own context, so a
		// client that goes away cancels every leg instead of orphaning the
		// supersteps.
		co.observeAnalytics("pagerank", func() error {
			res, err := co.runPageRank(r.Context(), req)
			if err != nil {
				writeAllFailed(w, err)
				return err
			}
			server.WriteWire(w, r, http.StatusOK, *res)
			return nil
		})
		return
	}
	job, err := co.newJob("pagerank")
	if err != nil {
		server.WriteError(w, http.StatusServiceUnavailable, err)
		return
	}
	go func() {
		start := time.Now()
		res, err := co.runPageRank(context.Background(), req)
		status := "ok"
		if job.finish(res, err) == "failed" {
			status = "error"
		}
		co.an.jobsTotal.With(job.kind, status).Inc()
		co.an.durations.With(job.kind).Observe(time.Since(start).Seconds())
	}()
	server.WriteWire(w, r, http.StatusAccepted, wire.JobStatus{ID: job.id, Kind: job.kind, State: "running"})
}

func (co *Coordinator) handleAnalyticsJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	co.an.mu.Lock()
	job := co.an.jobs[id]
	co.an.mu.Unlock()
	if job == nil {
		server.WriteError(w, http.StatusNotFound, fmt.Errorf("unknown analytics job %q (expired or never submitted)", id))
		return
	}
	server.WriteWire(w, r, http.StatusOK, job.status())
}

// newJob registers a fresh async job, pruning expired ones first.
func (co *Coordinator) newJob(kind string) (*coJob, error) {
	id := newBatchID()
	if id == "" {
		return nil, fmt.Errorf("analytics: cannot mint a job ID")
	}
	j := &coJob{id: id, kind: kind, state: "running", last: time.Now()}
	co.an.mu.Lock()
	defer co.an.mu.Unlock()
	now := time.Now()
	for jid, old := range co.an.jobs {
		old.mu.Lock()
		idle := old.state != "running" && now.Sub(old.last) > coJobTTL
		old.mu.Unlock()
		if idle {
			delete(co.an.jobs, jid)
		}
	}
	if len(co.an.jobs) >= maxCoJobs {
		return nil, fmt.Errorf("analytics job table full (%d resident)", maxCoJobs)
	}
	co.an.jobs[id] = j
	return j, nil
}

// prLeg binds one partition of a running PageRank job to the member that
// holds its state.
type prLeg struct {
	part int
	m    *member
}

// stickyRead is readFrom returning the member that answered: PageRank job
// state is member-local, so later legs must go back to the same member
// rather than through the read rotation.
func stickyRead[T any](ctx, parent context.Context, rs *replicaSet, call func(cl *server.Client) (T, error)) (T, *member, error) {
	var zero T
	var lastErr error
	for _, m := range rs.readOrder() {
		begin := time.Now()
		v, err := call(m.client)
		if err == nil {
			m.healthy.Store(true)
			m.observeLatency(time.Since(begin))
			return v, m, nil
		}
		var he *server.HTTPError
		if errors.As(err, &he) && he.Status >= 400 && he.Status < 500 {
			m.healthy.Store(true)
			m.observeLatency(time.Since(begin))
			return zero, nil, err
		}
		if parent.Err() != nil {
			return zero, nil, err
		}
		m.healthy.Store(false)
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	return zero, nil, lastErr
}

// prScatter runs one job phase against every leg concurrently, each call
// bounded by the partition timeout and charged to the per-partition leg
// metrics. Any leg failing fails the phase — a stateful superstep cannot
// drop a partition and stay correct — with every completed leg's result
// discarded by the caller.
func prScatter[T any](co *Coordinator, parent context.Context, legs []prLeg, call func(ctx context.Context, leg prLeg) (T, error)) ([]T, error) {
	results := make([]T, len(legs))
	errs := make([]error, len(legs))
	var wg sync.WaitGroup
	for i, leg := range legs {
		wg.Add(1)
		go func(i int, leg prLeg) {
			defer wg.Done()
			part := strconv.Itoa(leg.part)
			co.legs.With(part).Inc()
			begin := time.Now()
			ctx, cancel := context.WithTimeout(parent, co.timeout)
			defer cancel()
			v, err := call(ctx, leg)
			co.legDur.With(part).Observe(time.Since(begin).Seconds())
			if err != nil {
				if parent.Err() != nil {
					co.legCancels.With(part).Inc()
				} else {
					co.legFails.With(part).Inc()
				}
				errs[i] = fmt.Errorf("partition %d (%s): %w", leg.part, leg.m.url, err)
				return
			}
			results[i] = v
		}(i, leg)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// runPageRank drives one distributed PageRank job end to end: prepare
// (pin a CSR per partition, gather vertex counts and boundary pairs),
// start (ship the global count and each partition's ghost pairs), then
// iterations+1 supersteps with the coordinator as the message barrier,
// the last one collecting each partition's top-K.
func (co *Coordinator) runPageRank(ctx context.Context, req wire.PageRankRequest) (*wire.PageRankResult, error) {
	jobID := newBatchID()
	if jobID == "" {
		return nil, fmt.Errorf("analytics: cannot mint a job ID")
	}
	co.fanouts.Inc()
	// One routing snapshot drives the whole job: PageRank's cross-partition
	// message routing still uses the boot-time hash (graph.Partition), so a
	// job is only exact while the installed table matches it — a limitation
	// recorded in ARCHITECTURE.md's resharding section.
	rt := co.rt()
	parts := len(rt.sets)

	// Prepare: the member that answers owns the partition's job state for
	// the rest of the run.
	type prepOut struct {
		m        *member
		prepared *wire.PRPrepared
	}
	prep, errs := scatter(co, rt, ctx, func(sctx reqCtx, rs *replicaSet) (prepOut, error) {
		v, m, err := stickyRead(sctx, ctx, rs, func(cl *server.Client) (*wire.PRPrepared, error) {
			return cl.PRPrepareCtx(sctx, wire.PRPrepare{
				Job: jobID, T: req.T, Attrs: req.Attrs,
				Parts: parts, Self: sctx.part, Damping: req.Damping,
			})
		})
		if err != nil {
			return prepOut{}, err
		}
		return prepOut{m: m, prepared: v}, nil
	})
	if len(errs) > 0 {
		return nil, fmt.Errorf("pagerank prepare: partition %d: %s", errs[0].Partition, errs[0].Error)
	}
	legs := make([]prLeg, parts)
	var n int64
	var allPairs []int64
	for p, po := range prep {
		legs[p] = prLeg{part: p, m: po.m}
		n += po.prepared.Nodes
		allPairs = append(allPairs, po.prepared.Pairs...)
	}
	routed := analytics.RoutePairs(allPairs, parts)

	// Start: every partition learns the global vertex count and the ghost
	// adjacency the other partitions stored for its vertices.
	if _, err := prScatter(co, ctx, legs, func(lctx context.Context, leg prLeg) (*wire.PRPrepared, error) {
		return leg.m.client.PRStartCtx(lctx, wire.PRStart{Job: jobID, N: n, Ghosts: routed[leg.part]})
	}); err != nil {
		return nil, fmt.Errorf("pagerank start: %w", err)
	}

	// Supersteps: step 1 scatters from the initial ranks; steps 2..k fold
	// the previous round in, commit, and scatter the next; step k+1 commits
	// the final round and collects.
	inboxes := make([][]wire.PRMessage, parts)
	for step := 1; step <= req.Iterations+1; step++ {
		last := step == req.Iterations+1
		sreq := wire.PRStepRequest{
			Job:      jobID,
			Finalize: step > 1,
			Compute:  !last,
		}
		if last {
			sreq.TopK = req.TopK
		}
		res, err := prScatter(co, ctx, legs, func(lctx context.Context, leg prLeg) (*wire.PRStepResult, error) {
			r := sreq
			r.Inbox = inboxes[leg.part]
			return leg.m.client.PRStepCtx(lctx, r)
		})
		co.an.supersteps.Inc()
		if err != nil {
			return nil, fmt.Errorf("pagerank superstep %d: %w", step, err)
		}
		if last {
			lists := make([][]wire.RankEntry, parts)
			var total int64
			for p, sr := range res {
				lists[p] = sr.Top
				total += sr.NumNodes
			}
			return &wire.PageRankResult{
				At: req.T, NumNodes: total,
				Damping: req.Damping, Iterations: req.Iterations,
				Supersteps: req.Iterations + 1,
				Top:        analytics.MergeRanks(lists, req.TopK),
			}, nil
		}
		outs := make([][]wire.PRMessage, parts)
		for p, sr := range res {
			outs[p] = sr.Out
		}
		inboxes = routeMessages(outs, parts)
	}
	return nil, fmt.Errorf("pagerank: zero iterations") // unreachable: NormalizePageRank floors Iterations at 1
}

// routeMessages is the superstep barrier: every partition's outgoing
// cross-partition shares, aggregated per target node (summed in ascending
// source-partition order, so reruns are deterministic) and routed to the
// target's owner sorted ascending by node.
func routeMessages(outs [][]wire.PRMessage, parts int) [][]wire.PRMessage {
	acc := make([]map[int64]float64, parts)
	for p := range acc {
		acc[p] = map[int64]float64{}
	}
	for _, out := range outs {
		for _, m := range out {
			acc[graph.Partition(graph.NodeID(m.Node), parts)][m.Node] += m.Val
		}
	}
	inboxes := make([][]wire.PRMessage, parts)
	for p, byNode := range acc {
		if len(byNode) == 0 {
			continue
		}
		inbox := make([]wire.PRMessage, 0, len(byNode))
		for node, val := range byNode {
			inbox = append(inbox, wire.PRMessage{Node: node, Val: val})
		}
		sort.Slice(inbox, func(i, j int) bool { return inbox[i].Node < inbox[j].Node })
		inboxes[p] = inbox
	}
	return inboxes
}
