package loadgen

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"historygraph"
	"historygraph/internal/metrics"
	"historygraph/internal/server"
	"historygraph/internal/wire"
)

// Chaos is the handle a harness-launched cluster gives the runner for
// scenario-scheduled fault injection. Attach mode has no such handle:
// scenarios with chaos events require a launched cluster.
type Chaos interface {
	// KillReplica stops partition p's member m (0 = the initial
	// primary) for the rest of the run.
	KillReplica(p, m int) error
	// SlowPartition injects delay before every response from partition
	// p's members for dur (0 = the rest of the run).
	SlowPartition(p int, delay, dur time.Duration) error
	// Reshard provisions a fresh replica set and runs one live reshard
	// through the coordinator: mode "split" (or "") has the set join as
	// a new partition with an auto-picked slot share; mode "merge"
	// retires the listed partitions into it. Blocks until the cutover
	// epoch is installed (or the reshard failed).
	Reshard(mode string, merge []int) error
}

// Options configures a Run beyond what the scenario declares.
type Options struct {
	// Target is the base URL the workload is aimed at (a coordinator or
	// a single server).
	Target string
	// Chaos executes the scenario's chaos events; nil with a chaotic
	// scenario is an error.
	Chaos Chaos
	// TimeMax / NodeMax bound the read domains when the scenario leaves
	// them 0 (launch mode learns them from the preload).
	TimeMax int64
	NodeMax int64
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

// EndpointStats is one endpoint's share of a Result.
type EndpointStats struct {
	// Count is successful (2xx) completions inside the measurement
	// phase; the latency quantiles are over exactly these.
	Count       int64   `json:"count"`
	Errors      int64   `json:"errors"`
	ChaosErrors int64   `json:"chaos_errors,omitempty"`
	Partials    int64   `json:"partials,omitempty"`
	MeanMs      float64 `json:"mean_ms"`
	P50Ms       float64 `json:"p50_ms"`
	P90Ms       float64 `json:"p90_ms"`
	P99Ms       float64 `json:"p99_ms"`
	P999Ms      float64 `json:"p999_ms"`
	MaxMs       float64 `json:"max_ms"`
	// ErrorSamples holds the first few error strings seen on this
	// endpoint (chaos-window ones prefixed "[chaos]"), so a failed gate
	// names its cause in the artifact instead of just a count.
	ErrorSamples []string `json:"error_samples,omitempty"`
}

// ServerCheck is the post-run cross-check of the client's own counts
// against the target's /metrics scrape.
type ServerCheck struct {
	Scraped bool `json:"scraped"`
	// Requests2xx sums dg_http_requests_total across the driven
	// endpoints' 2xx series. It includes warmup (and any concurrent
	// traffic), so consistency means scraped >= client-measured.
	Requests2xx    int64 `json:"requests_2xx"`
	ClientMeasured int64 `json:"client_measured"`
	Consistent     bool  `json:"consistent"`
	// P50Ms/P99Ms are the server's own request-duration quantiles over
	// the driven endpoints (from dg_http_request_duration_seconds), the
	// number an operator's dashboard would show for the same window.
	P50Ms float64 `json:"p50_ms,omitempty"`
	P99Ms float64 `json:"p99_ms,omitempty"`
	// Caches holds the target's dg_cache_* series by level (the
	// coordinator's merged and flight levels behind a launched cluster),
	// then by family without its prefix and _total ("hits", "refused",
	// "entries", …), warmup included: the run's cache verdict.
	Caches map[string]map[string]int64 `json:"caches,omitempty"`
	Note   string                      `json:"note,omitempty"`
}

// Result is one run's artifact. It marshals to the JSON file
// cmd/dgtraffic writes.
type Result struct {
	Scenario       string                    `json:"scenario"`
	Target         string                    `json:"target"`
	Mode           string                    `json:"mode"`
	Wire           string                    `json:"wire"`
	Clients        int                       `json:"clients"`
	TargetRPS      float64                   `json:"target_rps,omitempty"`
	AchievedRPS    float64                   `json:"achieved_rps"`
	MeasureSeconds float64                   `json:"measure_seconds"`
	Requests       int64                     `json:"requests"`
	Errors         int64                     `json:"errors"`
	ChaosErrors    int64                     `json:"chaos_errors,omitempty"`
	Partials       int64                     `json:"partials,omitempty"`
	ScheduleLag    int64                     `json:"schedule_lag,omitempty"`
	Endpoints      map[string]*EndpointStats `json:"endpoints"`
	ChaosApplied   []string                  `json:"chaos_applied,omitempty"`
	Server         *ServerCheck              `json:"server_check,omitempty"`
}

// GateErrors returns a non-nil error when the run should fail a CI
// gate: any non-chaos error, or an endpoint that was in the mix but
// recorded nothing (an empty histogram means the scenario did not
// actually exercise what it claims to).
func (r *Result) GateErrors() error {
	var problems []string
	if r.Errors > 0 {
		problems = append(problems, fmt.Sprintf("%d non-chaos errors", r.Errors))
	}
	for name, ep := range r.Endpoints {
		if ep.Count == 0 {
			problems = append(problems, fmt.Sprintf("endpoint %s recorded no successful requests (empty histogram)", name))
		}
	}
	if r.Server != nil && r.Server.Scraped && !r.Server.Consistent {
		problems = append(problems, fmt.Sprintf("server scrape saw %d 2xx requests but clients measured %d",
			r.Server.Requests2xx, r.Server.ClientMeasured))
	}
	if len(problems) == 0 {
		return nil
	}
	return errors.New(strings.Join(problems, "; "))
}

// errSampleCap bounds how many error strings each endpoint keeps for
// the result artifact.
const errSampleCap = 4

// epAgg accumulates one endpoint's measurement-phase outcomes.
type epAgg struct {
	hist        Hist
	errors      atomic.Int64
	chaosErrors atomic.Int64
	partials    atomic.Int64

	errMu      sync.Mutex
	errSamples []string
}

// sampleError keeps the first errSampleCap error strings.
func (a *epAgg) sampleError(s string) {
	a.errMu.Lock()
	if len(a.errSamples) < errSampleCap {
		a.errSamples = append(a.errSamples, s)
	}
	a.errMu.Unlock()
}

// runState is everything the workers share.
type runState struct {
	sc   *Scenario
	opts Options

	measuring  atomic.Bool
	graceUntil atomic.Int64 // unix nanos; errors before this are chaos errors
	lag        atomic.Int64 // open mode: dispatcher slots delivered late

	eps map[string]*epAgg

	// Appends must reach the store in nondecreasing event-time order
	// (the index rejects time travel with a 422). Workers append
	// concurrently off a shared atomic clock: each batch takes the next
	// timestamp and a fresh run of node IDs without blocking on other
	// writers' requests, which is what lets the server's pipelined
	// append path see overlapping batches. A batch that loses the race
	// (a later stamp applied first) is re-stamped with a fresh timestamp
	// and retried, bounded by appendRestampLimit.
	nextTime atomic.Int64
	nextNode atomic.Int64
}

// worker is one closed-loop client.
type worker struct {
	st     *runState
	client *server.Client
	rng    *rand.Rand
	cum    []float64 // cumulative mix weights, parallel to eps
	names  []string
	hot    []int64 // hotkey timepoint set (nil for uniform)
}

// Run executes the scenario against opts.Target and returns the result.
// It blocks for warmup + duration (plus request drain).
func Run(ctx context.Context, sc *Scenario, opts Options) (*Result, error) {
	if err := sc.Normalize(); err != nil {
		return nil, err
	}
	if opts.Target == "" {
		return nil, fmt.Errorf("loadgen: no target")
	}
	if len(sc.Chaos) > 0 && opts.Chaos == nil {
		return nil, fmt.Errorf("loadgen: scenario %s schedules chaos but the target is attached, not launched (no process handle to kill or slow)", sc.Name)
	}
	timeMax := sc.TimeMax
	if timeMax == 0 {
		timeMax = opts.TimeMax
	}
	if timeMax <= 0 && needsTimepoints(sc) {
		return nil, fmt.Errorf("loadgen: scenario %s needs a read-timepoint domain: set time_max or preload the cluster", sc.Name)
	}
	nodeMax := sc.NodeMax
	if nodeMax == 0 {
		nodeMax = opts.NodeMax
	}
	if nodeMax <= 0 && sc.Mix["neighbors"] > 0 {
		return nil, fmt.Errorf("loadgen: scenario %s drives /neighbors: set node_max or preload the cluster", sc.Name)
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	// A pooled client sized for the scenario's concurrency, with no global
	// timeout: each request is bounded by the scenario's request_timeout.
	tr := &http.Transport{
		MaxIdleConns:        sc.Clients * 2,
		MaxIdleConnsPerHost: sc.Clients * 2,
	}
	hc := &http.Client{Transport: tr}
	defer tr.CloseIdleConnections()

	st := &runState{
		sc:   sc,
		opts: opts,
		eps:  map[string]*epAgg{},
	}
	st.nextTime.Store(timeMax + 1)
	st.nextNode.Store(nodeMax + 1)
	names := sc.Endpoints()
	for _, name := range names {
		st.eps[name] = &epAgg{}
	}

	// Per-worker clients with deterministic RNG streams.
	workers := make([]*worker, sc.Clients)
	for i := range workers {
		cl := server.NewClientHTTP(opts.Target, hc)
		if sc.Wire != "json" {
			if _, err := cl.SetWire(sc.Wire); err != nil {
				return nil, err
			}
		}
		w := &worker{
			st:     st,
			client: cl,
			rng:    rand.New(rand.NewSource(sc.Seed + int64(i)*7919 + 1)),
			names:  names,
		}
		var cum float64
		for _, name := range names {
			cum += sc.Mix[name]
			w.cum = append(w.cum, cum)
		}
		if sc.Timepoints.Distribution == "hotkey" {
			k := int(sc.Timepoints.HotFraction * 1000)
			if k < 1 {
				k = 1
			}
			w.hot = make([]int64, k)
			for j := range w.hot {
				// A deterministic spread over the history; every worker
				// shares the same hot set, which is the point.
				w.hot[j] = timeMax * int64(j+1) / int64(k+1)
			}
		}
		workers[i] = w
	}

	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()

	var lim *Limiter
	if sc.Mode == "closed" && sc.TargetRPS > 0 {
		lim = NewLimiter(sc.TargetRPS, sc.Burst)
	}
	var slots chan time.Time
	if sc.Mode == "open" {
		slots = make(chan time.Time, sc.Clients*4)
		go dispatch(runCtx, sc.TargetRPS, slots, &st.lag)
	}

	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.loop(runCtx, timeMax, nodeMax, lim, slots)
		}(w)
	}

	logf("loadgen: %s against %s", sc, opts.Target)
	if sc.Warmup > 0 {
		if !sleepCtx(ctx, sc.Warmup.D()) {
			cancelRun()
			wg.Wait()
			return nil, ctx.Err()
		}
	}
	st.measuring.Store(true)
	measureStart := time.Now()
	logf("loadgen: warmup done, measuring for %v", sc.Duration.D())

	var chaosApplied []string
	var chaosMu sync.Mutex
	var chaosWg sync.WaitGroup
	for _, ce := range sc.Chaos {
		chaosWg.Add(1)
		go func(ce ChaosEvent) {
			defer chaosWg.Done()
			if !sleepCtx(runCtx, ce.At.D()) {
				return
			}
			if ce.Action == ChaosReshard {
				// The reshard blocks through its cutover, so errors racing
				// the migration or the epoch flip land while applyChaos is
				// still running — open the grace window up front and let
				// the post-return store trim it to the settle period.
				st.graceUntil.Store(time.Now().Add(time.Hour).UnixNano())
			}
			desc, grace := applyChaos(opts.Chaos, ce)
			st.graceUntil.Store(time.Now().Add(grace).UnixNano())
			chaosMu.Lock()
			chaosApplied = append(chaosApplied, desc)
			chaosMu.Unlock()
			logf("loadgen: chaos at +%v: %s", ce.At.D(), desc)
		}(ce)
	}

	if !sleepCtx(ctx, sc.Duration.D()) {
		cancelRun()
		wg.Wait()
		return nil, ctx.Err()
	}
	st.measuring.Store(false)
	measured := time.Since(measureStart).Seconds()
	cancelRun()
	wg.Wait()
	chaosWg.Wait() // join the injectors before reading chaosApplied

	res := &Result{
		Scenario:       sc.Name,
		Target:         opts.Target,
		Mode:           sc.Mode,
		Wire:           sc.Wire,
		Clients:        sc.Clients,
		TargetRPS:      sc.TargetRPS,
		MeasureSeconds: measured,
		ScheduleLag:    st.lag.Load(),
		Endpoints:      map[string]*EndpointStats{},
		ChaosApplied:   chaosApplied,
	}
	var successes int64
	for _, name := range names {
		agg := st.eps[name]
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		es := &EndpointStats{
			Count:       agg.hist.Count(),
			Errors:      agg.errors.Load(),
			ChaosErrors: agg.chaosErrors.Load(),
			Partials:    agg.partials.Load(),
			MeanMs:      ms(agg.hist.Mean()),
			P50Ms:       ms(agg.hist.Quantile(0.50)),
			P90Ms:       ms(agg.hist.Quantile(0.90)),
			P99Ms:       ms(agg.hist.Quantile(0.99)),
			P999Ms:      ms(agg.hist.Quantile(0.999)),
			MaxMs:       ms(agg.hist.Max()),
		}
		agg.errMu.Lock()
		es.ErrorSamples = append([]string(nil), agg.errSamples...)
		agg.errMu.Unlock()
		res.Endpoints[name] = es
		successes += es.Count
		res.Requests += es.Count + es.Errors + es.ChaosErrors
		res.Errors += es.Errors
		res.ChaosErrors += es.ChaosErrors
		res.Partials += es.Partials
	}
	if measured > 0 {
		res.AchievedRPS = float64(successes) / measured
	}
	res.Server = scrapeCheck(ctx, hc, opts.Target, names, successes)
	return res, nil
}

func needsTimepoints(sc *Scenario) bool {
	for _, name := range []string{"snapshot", "neighbors", "batch", "interval", "stream", "analytics"} {
		if sc.Mix[name] > 0 {
			return true
		}
	}
	return false
}

// dispatch emits one request slot per 1/rps seconds, stamped with its
// intended start time. When every worker is busy and the queue is full
// the schedule slips; each slipped slot is counted, and its eventual
// latency still runs from the intended start (no coordinated omission).
func dispatch(ctx context.Context, rps float64, slots chan<- time.Time, lag *atomic.Int64) {
	interval := time.Duration(float64(time.Second) / rps)
	if interval <= 0 {
		interval = time.Microsecond
	}
	next := time.Now()
	for ctx.Err() == nil {
		if d := time.Until(next); d > 0 {
			if !sleepCtx(ctx, d) {
				return
			}
		}
		select {
		case slots <- next:
		default:
			lag.Add(1)
			select {
			case slots <- next:
			case <-ctx.Done():
				return
			}
		}
		next = next.Add(interval)
	}
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

func applyChaos(c Chaos, ce ChaosEvent) (desc string, grace time.Duration) {
	switch ce.Action {
	case ChaosKillReplica:
		err := c.KillReplica(ce.Partition, ce.Member)
		desc = fmt.Sprintf("kill_replica p%d m%d", ce.Partition, ce.Member)
		if err != nil {
			desc += " (" + err.Error() + ")"
		}
		// Transport errors race the coordinator noticing the death and
		// any failover; give it a settle window.
		return desc, 3 * time.Second
	case ChaosSlowPartition:
		err := c.SlowPartition(ce.Partition, ce.Delay.D(), ce.Duration.D())
		desc = fmt.Sprintf("slow_partition p%d delay=%v dur=%v", ce.Partition, ce.Delay.D(), ce.Duration.D())
		if err != nil {
			desc += " (" + err.Error() + ")"
		}
		grace = ce.Duration.D() + time.Second
		if ce.Duration == 0 {
			grace = time.Hour // slowed for the rest of the run
		}
		return desc, grace
	case ChaosReshard:
		mode := ce.Mode
		if mode == "" {
			mode = "split"
		}
		err := c.Reshard(mode, ce.Merge)
		desc = "reshard " + mode
		if mode == "merge" {
			desc = fmt.Sprintf("reshard merge %v", ce.Merge)
		}
		if err != nil {
			desc += " (" + err.Error() + ")"
		}
		// Reshard blocks through the cutover, so the epoch flip lands just
		// before this returns: requests planned against the old table are
		// replanned internally, but the flip still races request deadlines
		// and the brief append gate — give the routing a settle window.
		return desc, 5 * time.Second
	}
	return "noop", 0
}

// loop is one worker's closed loop: take a slot (pacing mode decides
// how), issue one request from the mix, record the outcome.
func (w *worker) loop(ctx context.Context, timeMax, nodeMax int64, lim *Limiter, slots <-chan time.Time) {
	for ctx.Err() == nil {
		var intended time.Time
		switch {
		case slots != nil: // open loop
			select {
			case <-ctx.Done():
				return
			case intended = <-slots:
			}
		case lim != nil: // paced closed loop
			if lim.Wait(ctx) != nil {
				return
			}
			intended = time.Now()
		default: // unpaced closed loop
			intended = time.Now()
		}
		name := w.pickEndpoint()
		partial, err := w.issue(ctx, name, timeMax, nodeMax)
		elapsed := time.Since(intended)
		if ctx.Err() != nil {
			return // run shutdown aborted the request; not an outcome
		}
		if !w.st.measuring.Load() {
			continue
		}
		agg := w.st.eps[name]
		if err != nil {
			if time.Now().UnixNano() < w.st.graceUntil.Load() {
				agg.chaosErrors.Add(1)
				agg.sampleError("[chaos] " + err.Error())
			} else {
				agg.errors.Add(1)
				agg.sampleError(err.Error())
			}
			continue
		}
		agg.hist.Record(elapsed)
		if partial {
			agg.partials.Add(1)
		}
	}
}

func (w *worker) pickEndpoint() string {
	total := w.cum[len(w.cum)-1]
	x := w.rng.Float64() * total
	for i, c := range w.cum {
		if x < c {
			return w.names[i]
		}
	}
	return w.names[len(w.names)-1]
}

func (w *worker) pickTime(timeMax int64) historygraph.Time {
	if w.hot != nil && w.rng.Float64() < w.st.sc.Timepoints.HotWeight {
		return historygraph.Time(w.hot[w.rng.Intn(len(w.hot))])
	}
	return historygraph.Time(w.rng.Int63n(timeMax + 1))
}

// issue performs one request and reports whether the answer was partial
// (a scatter-gather response missing partitions) and any error.
func (w *worker) issue(ctx context.Context, name string, timeMax, nodeMax int64) (partial bool, err error) {
	rctx, cancel := context.WithTimeout(ctx, w.st.sc.RequestTimeout.D())
	defer cancel()
	switch name {
	case "snapshot":
		var resp *wire.Snapshot
		resp, err = w.client.SnapshotCtx(rctx, w.pickTime(timeMax), "", w.st.sc.SnapshotFull)
		partial = err == nil && len(resp.Partial) > 0
	case "stream":
		partial, err = w.issueStream(rctx, timeMax)
	case "neighbors":
		var resp *wire.Neighbors
		resp, err = w.client.NeighborsCtx(rctx, w.pickTime(timeMax), historygraph.NodeID(1+w.rng.Int63n(nodeMax)), "")
		partial = err == nil && len(resp.Partial) > 0
	case "batch":
		ts := make([]historygraph.Time, w.st.sc.BatchSize)
		for i := range ts {
			ts[i] = w.pickTime(timeMax)
		}
		var resp []wire.Snapshot
		resp, err = w.client.SnapshotsCtx(rctx, ts, "", w.st.sc.SnapshotFull)
		for i := range resp {
			partial = partial || len(resp[i].Partial) > 0
		}
	case "interval":
		a, b := w.pickTime(timeMax), w.pickTime(timeMax)
		if a > b {
			a, b = b, a
		}
		var resp *wire.Interval
		resp, err = w.client.IntervalCtx(rctx, a, b+1, "", false)
		partial = err == nil && len(resp.Partial) > 0
	case "append":
		partial, err = w.issueAppend(rctx)
	case "analytics":
		partial, err = w.issueAnalytics(rctx, timeMax)
	}
	return partial, err
}

// issueAnalytics drives the /analytics plane the way a dashboard does:
// mostly cheap mergeable scans, with an occasional synchronous PageRank
// (kept short — 5 iterations — so one job cannot monopolize a closed-loop
// worker).
func (w *worker) issueAnalytics(ctx context.Context, timeMax int64) (partial bool, err error) {
	switch pick := w.rng.Intn(8); {
	case pick < 3:
		var resp *wire.DegreeDist
		resp, err = w.client.AnalyticsDegreeCtx(ctx, w.pickTime(timeMax), "")
		partial = err == nil && len(resp.Partial) > 0
	case pick < 6:
		var resp *wire.Components
		resp, err = w.client.AnalyticsComponentsCtx(ctx, w.pickTime(timeMax), "")
		partial = err == nil && len(resp.Partial) > 0
	case pick < 7:
		a, b := w.pickTime(timeMax), w.pickTime(timeMax)
		if a > b {
			a, b = b, a
		}
		var resp *wire.Evolution
		resp, err = w.client.AnalyticsEvolutionCtx(ctx, a, b, "")
		partial = err == nil && len(resp.Partial) > 0
	default:
		// All-or-nothing: a partition failure fails the job, never a
		// partial rank list.
		_, err = w.client.AnalyticsPageRankCtx(ctx, wire.PageRankRequest{
			T: int64(w.pickTime(timeMax)), Iterations: 5, TopK: 10,
		})
	}
	return partial, err
}

// issueStream drives the chunked snapshot stream end to end, draining
// every run frame the way a real consumer would.
func (w *worker) issueStream(ctx context.Context, timeMax int64) (partial bool, err error) {
	ss, err := w.client.SnapshotStreamCtx(ctx, w.pickTime(timeMax), "")
	if err != nil {
		return false, err
	}
	defer ss.Close()
	for {
		frame, err := ss.Next()
		if err == io.EOF {
			return partial, nil
		}
		if err != nil {
			return partial, err
		}
		if frame.Summary != nil && len(frame.Summary.Partial) > 0 {
			partial = true
		}
	}
}

// appendRestampLimit bounds how many times a batch that lost the
// timestamp race (a concurrent writer's later stamp applied first, 422)
// is re-stamped with a fresh clock value and retried before the error
// surfaces. Each retry takes a fresh, strictly-later stamp, so losing
// is independent per attempt; 16 attempts makes surfacing a 422 under
// even heavy writer contention vanishingly rare.
const appendRestampLimit = 16

// issueAppend appends one batch of fresh AddNode events. The store
// requires globally nondecreasing event time, so each batch takes its
// timestamp from the shared atomic clock; concurrent writers' batches
// may arrive reordered, and a batch rejected for time travel is
// re-stamped and retried — the fresh stamp is always later than
// whatever applied in the meantime.
func (w *worker) issueAppend(ctx context.Context) (partial bool, err error) {
	st := w.st
	n := int64(st.sc.AppendSize)
	first := st.nextNode.Add(n) - n
	events := make(historygraph.EventList, st.sc.AppendSize)
	for attempt := 0; ; attempt++ {
		at := historygraph.Time(st.nextTime.Add(1))
		for i := range events {
			events[i] = historygraph.Event{
				Type: historygraph.AddNode,
				At:   at,
				Node: historygraph.NodeID(first + int64(i)),
			}
		}
		res, err := w.client.AppendCtx(ctx, events)
		if err == nil {
			if len(res.Partial) == 0 {
				return false, nil
			}
			// A partial answer whose failed legs are all 422s is the same
			// stamp race seen per partition: a concurrent writer's later
			// stamp landed on some partitions before this batch's legs
			// arrived. Re-stamping and re-sending the whole batch is safe —
			// the partitions that already applied it re-apply the same
			// AddNode events as no-ops — so retry until the batch lands
			// everywhere.
			if attempt < appendRestampLimit && allStampRace(res.Partial) {
				continue
			}
			return true, nil
		}
		var he *server.HTTPError
		if attempt < appendRestampLimit && errors.As(err, &he) &&
			he.Status == http.StatusUnprocessableEntity {
			continue // lost the stamp race; retry with a later timestamp
		}
		// The batch may or may not have landed; the skipped timestamp is
		// harmless (the next batch's later time is always valid).
		return false, err
	}
}

// allStampRace reports whether every failed partition leg is a 422
// timestamp rejection — the only partial outcome a restamped retry can
// repair. Anything else (5xx, transport) is left to surface as partial.
func allStampRace(partial []wire.PartitionError) bool {
	for _, pe := range partial {
		if pe.Status != http.StatusUnprocessableEntity {
			return false
		}
	}
	return true
}

// scrapeCheck cross-checks client-side accounting against the target's
// own /metrics: the cluster must have seen at least as many 2xx
// requests on the driven endpoints as the clients measured, and its
// duration histogram yields the server-side p50/p99 for the same
// endpoints.
func scrapeCheck(ctx context.Context, hc *http.Client, target string, endpoints []string, clientMeasured int64) *ServerCheck {
	check := &ServerCheck{ClientMeasured: clientMeasured}
	rctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, strings.TrimRight(target, "/")+"/metrics", nil)
	if err != nil {
		check.Note = err.Error()
		return check
	}
	resp, err := hc.Do(req)
	if err != nil {
		check.Note = "scrape failed: " + err.Error()
		return check
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil || resp.StatusCode != http.StatusOK {
		check.Note = fmt.Sprintf("scrape failed: HTTP %d", resp.StatusCode)
		return check
	}
	samples, err := metrics.Parse(string(body))
	if err != nil {
		check.Note = "scrape parse: " + err.Error()
		return check
	}
	driven := map[string]bool{}
	for _, name := range endpoints {
		switch name {
		case "stream":
			name = "snapshot"
		case "analytics":
			// One mix entry fans over the four instrumented analytics paths.
			for _, p := range []string{"/analytics/degree", "/analytics/components",
				"/analytics/evolution", "/analytics/pagerank"} {
				driven[p] = true
			}
			continue
		}
		driven["/"+name] = true
	}
	// Aggregate the duration histogram across the driven endpoints: the
	// _bucket series share bounds, so summing per-le then extracting the
	// quantile is exact.
	type bk struct {
		le  float64
		sum uint64
	}
	leSums := map[float64]uint64{}
	check.Caches = map[string]map[string]int64{}
	for _, s := range samples {
		if family, ok := strings.CutPrefix(s.Name, "dg_cache_"); ok {
			level := check.Caches[s.Labels["cache"]]
			if level == nil {
				level = map[string]int64{}
				check.Caches[s.Labels["cache"]] = level
			}
			level[strings.TrimSuffix(family, "_total")] = int64(s.Value)
			continue
		}
		switch s.Name {
		case "dg_http_requests_total":
			if driven[s.Labels["endpoint"]] && strings.HasPrefix(s.Labels["code"], "2") {
				check.Requests2xx += int64(s.Value)
			}
		case "dg_http_request_duration_seconds_bucket":
			if driven[s.Labels["endpoint"]] {
				if le, perr := parseLE(s.Labels["le"]); perr == nil {
					leSums[le] += uint64(s.Value)
				}
			}
		}
	}
	check.Scraped = true
	check.Consistent = check.Requests2xx >= clientMeasured
	if len(leSums) > 0 {
		var bks []bk
		for le, sum := range leSums {
			bks = append(bks, bk{le, sum})
		}
		sort.Slice(bks, func(i, j int) bool { return bks[i].le < bks[j].le })
		var bounds []float64
		var cum []uint64
		for _, b := range bks {
			if b.le == infLE {
				cum = append(cum, b.sum)
				continue
			}
			bounds = append(bounds, b.le)
			cum = append(cum, b.sum)
		}
		if len(cum) == len(bounds)+1 {
			check.P50Ms = metrics.BucketQuantile(0.50, bounds, cum) * 1000
			check.P99Ms = metrics.BucketQuantile(0.99, bounds, cum) * 1000
		}
	}
	return check
}

// infLE stands in for +Inf in the le sort (larger than any real bound).
const infLE = 1e308

func parseLE(s string) (float64, error) {
	if s == "+Inf" {
		return infLE, nil
	}
	var v float64
	_, err := fmt.Sscanf(s, "%g", &v)
	return v, err
}
