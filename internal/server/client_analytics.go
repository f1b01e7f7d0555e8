package server

// Analytics client surface: the public /analytics endpoints (served
// identically by an unsharded server and the shard coordinator) and the
// coordinator-internal partition-leg calls (part scans, PageRank job
// steps) the shard fan-out drives through the same Client.

import (
	"context"
	"net/url"
	"strconv"

	"historygraph"
	"historygraph/internal/wire"
)

func analyticsQuery(t historygraph.Time, attrs string) url.Values {
	q := url.Values{"t": {strconv.FormatInt(int64(t), 10)}}
	if attrs != "" {
		q.Set("attrs", attrs)
	}
	return q
}

// spanQuery is the query of an endpoint that takes a pair of timepoints
// under its own parameter names (ReadSpanQuery's counterpart).
func spanQuery(first, second string, a, b historygraph.Time, attrs string) url.Values {
	q := url.Values{
		first:  {strconv.FormatInt(int64(a), 10)},
		second: {strconv.FormatInt(int64(b), 10)},
	}
	if attrs != "" {
		q.Set("attrs", attrs)
	}
	return q
}

// legQuery adds the coordinator-leg parameters that make a worker answer
// its raw mergeable part instead of a locally merged response.
func legQuery(q url.Values, parts, self int) url.Values {
	q.Set("parts", strconv.Itoa(parts))
	q.Set("self", strconv.Itoa(self))
	return q
}

// AnalyticsDegreeCtx fetches the degree distribution of the snapshot at t.
func (c *Client) AnalyticsDegreeCtx(ctx context.Context, t historygraph.Time, attrs string) (*wire.DegreeDist, error) {
	return getAs[wire.DegreeDist](c, ctx, "/analytics/degree", analyticsQuery(t, attrs))
}

// AnalyticsComponentsCtx fetches the connected-component size
// distribution of the snapshot at t.
func (c *Client) AnalyticsComponentsCtx(ctx context.Context, t historygraph.Time, attrs string) (*wire.Components, error) {
	return getAs[wire.Components](c, ctx, "/analytics/components", analyticsQuery(t, attrs))
}

// AnalyticsEvolutionCtx fetches the evolution counters between the
// snapshots at t1 and t2.
func (c *Client) AnalyticsEvolutionCtx(ctx context.Context, t1, t2 historygraph.Time, attrs string) (*wire.Evolution, error) {
	return getAs[wire.Evolution](c, ctx, "/analytics/evolution", spanQuery("t1", "t2", t1, t2, attrs))
}

// AnalyticsPageRankCtx runs PageRank synchronously (it sets req.Wait)
// and returns the result.
func (c *Client) AnalyticsPageRankCtx(ctx context.Context, req wire.PageRankRequest) (*wire.PageRankResult, error) {
	req.Wait = true
	return postAs[wire.PageRankResult](c, ctx, "/analytics/pagerank", req)
}

// AnalyticsPageRankJobCtx submits an asynchronous PageRank job to a
// coordinator and returns its initial status (state "running"); poll
// GET /analytics/jobs/{id} until it reports done or failed.
func (c *Client) AnalyticsPageRankJobCtx(ctx context.Context, req wire.PageRankRequest) (*wire.JobStatus, error) {
	req.Wait = false
	return postAs[wire.JobStatus](c, ctx, "/analytics/pagerank", req)
}

// --- coordinator-internal partition legs ------------------------------

// DegreePartCtx fetches one partition's raw degree-scan part.
func (c *Client) DegreePartCtx(ctx context.Context, t historygraph.Time, attrs string, parts, self int) (*wire.DegreePart, error) {
	return getAs[wire.DegreePart](c, ctx, "/analytics/degree", legQuery(analyticsQuery(t, attrs), parts, self))
}

// ComponentsPartCtx fetches one partition's raw component-scan part.
func (c *Client) ComponentsPartCtx(ctx context.Context, t historygraph.Time, attrs string, parts, self int) (*wire.ComponentsPart, error) {
	return getAs[wire.ComponentsPart](c, ctx, "/analytics/components", legQuery(analyticsQuery(t, attrs), parts, self))
}

// EvolutionPartCtx fetches one partition's raw evolution counters.
func (c *Client) EvolutionPartCtx(ctx context.Context, t1, t2 historygraph.Time, attrs string, parts, self int) (*wire.EvolutionPart, error) {
	return getAs[wire.EvolutionPart](c, ctx, "/analytics/evolution", legQuery(spanQuery("t1", "t2", t1, t2, attrs), parts, self))
}

// PRPrepareCtx opens one partition's PageRank job leg.
func (c *Client) PRPrepareCtx(ctx context.Context, req wire.PRPrepare) (*wire.PRPrepared, error) {
	return postAs[wire.PRPrepared](c, ctx, "/analytics/prepare", &req)
}

// PRStartCtx finishes one partition leg's setup with the global vertex
// count and its ghost pairs.
func (c *Client) PRStartCtx(ctx context.Context, req wire.PRStart) (*wire.PRPrepared, error) {
	return postAs[wire.PRPrepared](c, ctx, "/analytics/prstart", &req)
}

// PRStepCtx drives one partition superstep.
func (c *Client) PRStepCtx(ctx context.Context, req wire.PRStepRequest) (*wire.PRStepResult, error) {
	return postAs[wire.PRStepResult](c, ctx, "/analytics/prstep", &req)
}
