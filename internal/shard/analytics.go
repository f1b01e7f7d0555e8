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
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

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

func (j *coJob) finish(res *wire.PageRankResult, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err != nil {
		j.state, j.errMsg = "failed", err.Error()
	} else {
		j.state, j.result = "done", res
	}
	j.last = time.Now()
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
	q, ok := server.ReadQuery(w, r, true)
	if !ok {
		return
	}
	co.observeAnalytics("degree", func() error {
		return serveRead(co, w, r, read[*wire.DegreePart, wire.DegreeDist]{
			key: fmt.Sprintf("andeg|%d|%s", q.T, q.Attrs), maxT: q.T, coalesce: true,
			leg: func(ctx reqCtx, cl *server.Client) (*wire.DegreePart, error) {
				return cl.DegreePartCtx(ctx, q.T, q.Attrs, ctx.parts, ctx.part)
			},
			merge: func(parts []*wire.DegreePart, errs []wire.PartitionError) wire.DegreeDist {
				out := analytics.MergeDegree(int64(q.T), compactParts(parts))
				out.Partial = errs
				return *out
			},
			flags: func(m *wire.DegreeDist) (*bool, *bool) { return &m.Cached, &m.Coalesced },
		})
	})
}

func (co *Coordinator) handleAnalyticsComponents(w http.ResponseWriter, r *http.Request) {
	q, ok := server.ReadQuery(w, r, true)
	if !ok {
		return
	}
	co.observeAnalytics("components", func() error {
		return serveRead(co, w, r, read[*wire.ComponentsPart, wire.Components]{
			key: fmt.Sprintf("ancmp|%d|%s", q.T, q.Attrs), maxT: q.T, coalesce: true,
			leg: func(ctx reqCtx, cl *server.Client) (*wire.ComponentsPart, error) {
				return cl.ComponentsPartCtx(ctx, q.T, q.Attrs, ctx.parts, ctx.part)
			},
			merge: func(parts []*wire.ComponentsPart, errs []wire.PartitionError) wire.Components {
				out := analytics.MergeComponents(int64(q.T), compactParts(parts))
				out.Partial = errs
				return *out
			},
			flags: func(m *wire.Components) (*bool, *bool) { return &m.Cached, &m.Coalesced },
		})
	})
}

func (co *Coordinator) handleAnalyticsEvolution(w http.ResponseWriter, r *http.Request) {
	q, t1, t2, ok := server.ReadSpanQuery(w, r, "evolution", "t1", "t2")
	if !ok {
		return
	}
	co.observeAnalytics("evolution", func() error {
		return serveRead(co, w, r, read[*wire.EvolutionPart, wire.Evolution]{
			key: fmt.Sprintf("anevo|%d|%d|%s", t1, t2, q.Attrs), maxT: max(t1, t2), coalesce: true,
			leg: func(ctx reqCtx, cl *server.Client) (*wire.EvolutionPart, error) {
				return cl.EvolutionPartCtx(ctx, t1, t2, q.Attrs, ctx.parts, ctx.part)
			},
			merge: func(parts []*wire.EvolutionPart, errs []wire.PartitionError) wire.Evolution {
				out := analytics.MergeEvolution(compactParts(parts))
				out.T1, out.T2, out.Partial = int64(t1), int64(t2), errs
				return *out
			},
			flags: func(m *wire.Evolution) (*bool, *bool) { return &m.Cached, &m.Coalesced },
		})
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
	req, ok := server.ReadPageRankRequest(w, r)
	if !ok {
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
	go co.observeAnalytics(job.kind, func() error {
		res, err := co.runPageRank(context.Background(), req)
		job.finish(res, err)
		return err
	})
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

// prPhase runs one job phase on every partition's sticky member — the one
// that answered the partition's prepare and holds its job state — as an
// ordinary scatter. Any leg failing fails the phase: a stateful superstep
// cannot drop a partition and stay correct.
func prPhase[T any](co *Coordinator, rt *routing, parent context.Context, sticky []*member, call func(ctx reqCtx, cl *server.Client) (T, error)) ([]T, error) {
	res, errs := scatter(co, rt, parent, func(ctx reqCtx, _ *replicaSet) (T, error) {
		m := sticky[ctx.part]
		v, err := call(ctx, m.client)
		if err != nil {
			err = fmt.Errorf("%s: %w", m.url, err)
		}
		return v, err
	})
	if len(errs) > 0 {
		return nil, fmt.Errorf("partition %d: %s", errs[0].Partition, errs[0].Error)
	}
	return res, nil
}

// runPageRank drives one distributed PageRank job end to end: prepare
// (load each partition's job from a CSR, gather vertex counts and
// boundary pairs), start (ship the global count and each partition's
// ghost pairs), then iterations+1 supersteps with the coordinator as the
// message barrier, the last one collecting each partition's top-K.
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
	sticky := make([]*member, parts)
	prep, errs := scatter(co, rt, ctx, func(sctx reqCtx, rs *replicaSet) (p *wire.PRPrepared, err error) {
		p, sticky[sctx.part], err = readMember(sctx, ctx, rs, func(cl *server.Client) (*wire.PRPrepared, error) {
			return cl.PRPrepareCtx(sctx, wire.PRPrepare{
				Job: jobID, T: req.T, Attrs: req.Attrs,
				Parts: parts, Self: sctx.part, Damping: req.Damping,
			})
		})
		return p, err
	})
	if len(errs) > 0 {
		return nil, fmt.Errorf("pagerank prepare: partition %d: %s", errs[0].Partition, errs[0].Error)
	}
	var n int64
	var allPairs []int64
	for _, p := range prep {
		n += p.Nodes
		allPairs = append(allPairs, p.Pairs...)
	}
	routed := analytics.RoutePairs(allPairs, parts)

	// Start: every partition learns the global vertex count and the ghost
	// adjacency the other partitions stored for its vertices.
	if _, err := prPhase(co, rt, ctx, sticky, func(lctx reqCtx, cl *server.Client) (*wire.PRPrepared, error) {
		return cl.PRStartCtx(lctx, wire.PRStart{Job: jobID, N: n, Ghosts: routed[lctx.part]})
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
		res, err := prPhase(co, rt, ctx, sticky, func(lctx reqCtx, cl *server.Client) (*wire.PRStepResult, error) {
			r := sreq
			r.Inbox = inboxes[lctx.part]
			return cl.PRStepCtx(lctx, r)
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
	return nil, fmt.Errorf("pagerank: zero iterations") // unreachable: ReadPageRankRequest holds Iterations to 1..MaxPageRankIterations
}

// routeMessages is the superstep barrier: every partition's outgoing
// cross-partition shares, summed per target node (integers, so in any
// order) and routed to the target's owner sorted ascending by node.
func routeMessages(outs [][]wire.PRMessage, parts int) [][]wire.PRMessage {
	acc := make([]map[int64]int64, parts)
	for p := range acc {
		acc[p] = map[int64]int64{}
	}
	for _, out := range outs {
		for _, m := range out {
			acc[graph.Partition(graph.NodeID(m.Node), parts)][m.Node] += m.Share
		}
	}
	inboxes := make([][]wire.PRMessage, parts)
	for p, byNode := range acc {
		if len(byNode) == 0 {
			continue
		}
		inbox := make([]wire.PRMessage, 0, len(byNode))
		for node, share := range byNode {
			inbox = append(inbox, wire.PRMessage{Node: node, Share: share})
		}
		sort.Slice(inbox, func(i, j int) bool { return inbox[i].Node < inbox[j].Node })
		inboxes[p] = inbox
	}
	return inboxes
}
