package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"historygraph"
	"historygraph/internal/graph"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	// seconds scales the number of timed rounds: timedRounds of them at
	// runSeconds, which is what the driver passes. The work of a round never
	// changes.
	seconds float64
	trace   bool
	smoke   bool   // 1/20 dataset, one set-up, one timed round
	dataDir string // parent of the run's scratch directory
	outDir  string // where trace.json goes
}

// workload binds a name to a deployment shape and a round of fixed work.
type workload struct {
	name string
	why  string
	// launch builds the deployment from the trace; its duration is part
	// of set-up.
	launch func(r *runner, dir string) (*deployment, error)
	// warmup is the untimed round 0.
	warmup func(r *runner) error
	// round runs one timed round, recording into rec. Every round of a
	// workload is the same work.
	round func(r *runner, rec *roundRec) error
	// workingSet, when set, is the fixed set of timepoints the reads draw
	// from; the traced ladder then asks for those.
	workingSet func(ds *dataset) []graph.Time
}

// roundRec is what one timed round measured.
type roundRec struct {
	lat           [numOpKinds][]time.Duration // per-op latency by class
	appendEvents  int                         // events acked
	appendWall    time.Duration               // wall time spent appending them
	restartEvents int                         // events the round's restart replayed (ingest-restart)
	restartWall   time.Duration               // from opening the files to ready
	hostRefMS     float64                     // the host yardstick, taken right before the round
	traced        bool
}

// runner carries one run's state across set-up, rounds and the checks.
type runner struct {
	cfg config
	wl  *workload
	sz  sizes
	tr  *tracer
	dir string // this run's scratch directory

	ds  *dataset
	dep *deployment
	// loaded is what the deployment held when launched and acked what was
	// appended live since, in order: together the oracle's input.
	loaded, acked graph.EventList
	heads         int // head batches appended so far
	pinned        []*historygraph.HistGraph

	attempted, failed int
	errs              []string
	leaks             int // answers excused as the known head-attribute leak

	lp *layerProbe // traced runs only
}

func (r *runner) fail(err error) {
	r.failed++
	if len(r.errs) < 8 {
		r.errs = append(r.errs, err.Error())
	}
}

// exec sends one op through the front door, records its latency and
// reports whether it succeeded. A transport or HTTP error, or an empty
// graph where the trace has nodes, is a failed op.
func (r *runner) exec(o op, rec *roundRec) bool {
	door := r.dep.door
	var err error
	batch := o.events
	if o.kind == opAppend && batch == nil {
		batch = r.ds.headBatch(r.heads)
	}
	id := r.tr.begin("op." + opNames[o.kind])
	t0 := time.Now()
	switch o.kind {
	case opSnapshot, opSnapshotAttrs:
		attrs := attrsNone
		if o.kind == opSnapshotAttrs {
			attrs = attrsAll
		}
		var rep reply
		if rep, err = door.snapshot(o.t, attrs); err == nil && rep.numNodes() == 0 {
			err = fmt.Errorf("snapshot@%d: empty graph", o.t)
		}
	case opMultipoint:
		var reps []reply
		if reps, err = door.multipoint(o.ts, false); err == nil && len(reps) != len(o.ts) {
			err = fmt.Errorf("multipoint: %d answers for %d times", len(reps), len(o.ts))
		}
	case opNeighbors:
		_, err = door.neighbors(o.t, o.node)
	case opAppend:
		err = door.appendBatch(batch)
	}
	d := time.Since(t0)
	r.tr.end(id)
	r.attempted++
	if err != nil {
		r.fail(err)
		return false
	}
	if o.kind == opAppend {
		r.heads++
		r.acked = append(r.acked, batch...)
	}
	if rec != nil {
		rec.lat[o.kind] = append(rec.lat[o.kind], d)
		if o.kind == opAppend {
			rec.appendEvents += len(batch)
			rec.appendWall += d
		}
	}
	return true
}

func (r *runner) execAll(ops []op, rec *roundRec) {
	for _, o := range ops {
		r.exec(o, rec)
	}
}

// setupOnce generates the trace, launches the deployment and runs the
// warm-up round; its duration is one sample of setup_s.
func (r *runner) setupOnce(k int) (time.Duration, error) {
	dir := filepath.Join(r.dir, fmt.Sprintf("setup%d", k))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	r.acked, r.heads = nil, 0
	t0 := time.Now()
	r.ds = newDataset(r.cfg.seed, r.sz)
	dep, err := r.wl.launch(r, dir)
	if err != nil {
		return 0, fmt.Errorf("launch: %w", err)
	}
	r.dep = dep
	if err := r.wl.warmup(r); err != nil {
		return 0, fmt.Errorf("warm-up: %w", err)
	}
	return time.Since(t0), nil
}

// teardown stops the deployment; a traced run reads its counters first.
func (r *runner) teardown() {
	r.unpin()
	if r.dep != nil {
		r.lp.harvest(r.dep)
		r.dep.close()
		r.dep = nil
	}
}

func (r *runner) unpin() {
	if r.dep == nil || r.dep.gm == nil {
		r.pinned = nil
		return
	}
	for _, h := range r.pinned {
		r.dep.gm.Unpin(h)
		r.dep.gm.Release(h)
	}
	r.pinned = nil
	r.dep.gm.ForceClean()
}

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// result is everything one run measured.
type result struct {
	workload          string
	attempted, failed int
	errs              []string
	leaks             int
	e2e               map[string]float64 // the gated metrics
	timings           map[string]float64 // the workload's matrix row of the ungated ones; the others read 0
	layer             map[string]float64 // traced runs only: timings and layers together
	rounds            int
	samples           map[string]int // ops (or repetitions) behind each timing
	roundSpread       map[string]float64
	gomaxprocs        int
	dataDir           string
	hostRefMS         float64 // median of the yardstick over the rounds; a diagnostic, applied to nothing
}

func (res *result) correct() bool { return res.failed == 0 }

// run executes one workload once.
func run(cfg config) (*result, error) {
	wl := workloadByName(cfg.workload)
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if !(cfg.seconds > 0) {
		return nil, fmt.Errorf("--seconds must be positive, not %v", cfg.seconds)
	}
	procs := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(procs)
	dir, err := os.MkdirTemp(cfg.dataDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	r := &runner{cfg: cfg, wl: wl, sz: fullSizes, dir: dir}
	setups := setupRepeats
	rounds := max(1, int(math.Round(timedRounds*cfg.seconds/runSeconds)))
	if cfg.smoke {
		r.sz, setups, rounds = smokeSizes, 1, 1
	}
	if cfg.trace {
		r.tr = newTracer()
	}
	defer r.teardown()

	// Set-up, several times over; only the last deployment is kept.
	var setupS, buildRate []float64
	var heapBase uint64
	for k := 0; k < setups; k++ {
		if k == setups-1 {
			r.ds = nil // the earlier set-ups' trace is garbage, not baseline
			heapBase = liveHeap()
		}
		d, err := r.setupOnce(k)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, d.Seconds())
		buildRate = append(buildRate, float64(r.dep.builtEvents)/r.dep.built.Seconds())
		if k < setups-1 {
			r.teardown()
			os.RemoveAll(filepath.Join(dir, fmt.Sprintf("setup%d", k)))
		}
	}
	if err := checkTrace(r.ds.events); err != nil {
		return nil, err
	}
	// The fixed point: the deployment as round 0 of the last set-up left
	// it, a state that depends on the seed alone. The heap excludes what
	// the process held before that set-up began (mostly garbage of the
	// earlier ones); it includes the trace, as any embedding program would.
	//
	// Released views are reclaimed by a 1 s timer; reclaim them now, so that
	// the heap does not depend on where in its period the timer is.
	for _, gm := range r.dep.managers() {
		gm.ForceClean()
	}
	heapLive := float64(liveHeap()-heapBase) / (1 << 20)
	r.unpin()
	indexBytes, durableBytes, err := r.dep.footprint()
	if err != nil {
		return nil, err
	}
	heldEvents := float64(len(r.loaded) + len(r.acked))
	if cfg.trace {
		r.lp = newLayerProbe(r.dep)
	}

	// Timed rounds: the same fixed work every round.
	var recs []*roundRec
	for i := 1; i <= rounds; i++ {
		runtime.GC()
		rec := &roundRec{traced: cfg.trace && i%2 == 1, hostRefMS: hostRef()}
		r.tr.enable(rec.traced)
		err := r.wl.round(r, rec)
		r.tr.enable(false)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		recs = append(recs, rec)
	}
	if r.lp != nil {
		r.lp.harvest(r.dep)
		r.lp.done = true
	}

	res := &result{
		workload: wl.name, rounds: len(recs), gomaxprocs: procs, dataDir: cfg.dataDir,
		samples: map[string]int{}, roundSpread: map[string]float64{},
	}
	res.e2e = map[string]float64{
		"setup_s":                 median(setupS),
		"index_bytes_per_event":   float64(indexBytes) / heldEvents,
		"durable_bytes_per_event": float64(durableBytes) / heldEvents,
		"heap_live_mb":            heapLive,
	}
	var refs []float64
	for _, rec := range recs {
		refs = append(refs, rec.hostRefMS)
	}
	res.hostRefMS = median(refs)
	res.timings = roundTimings(recs, res)
	res.timings["build_events_s"] = median(buildRate)
	res.samples["build_events_s"], res.roundSpread["build_events_s"] = len(buildRate), spread(buildRate)
	inMatrix := map[string]bool{}
	for _, name := range matrix[wl.name] {
		inMatrix[name] = true
	}
	for _, m := range timings {
		if !inMatrix[m.Name] || math.IsNaN(res.timings[m.Name]) {
			res.timings[m.Name] = 0
		}
	}

	if r.lp != nil {
		if err := r.lp.climb(r); err != nil {
			return nil, fmt.Errorf("layer ladder: %w", err)
		}
	}
	r.verify()
	res.attempted, res.failed, res.errs, res.leaks = r.attempted, r.failed, r.errs, r.leaks

	if r.lp != nil {
		res.layer = r.lp.metrics(r, recs, res)
		if err := r.tr.write(filepath.Join(cfg.outDir, "trace.json")); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// roundTimings turns the per-round samples into the timing metrics. Each
// round is the same work, so each yields one value of every statistic (an
// exact quantile over the round's raw latencies, or a rate); the metric is
// the median of those values over the rounds, and their inter-quartile
// spread is kept beside it.
func roundTimings(recs []*roundRec, res *result) map[string]float64 {
	out := map[string]float64{}
	perRound := func(name string, stat func(rec *roundRec) (float64, bool)) {
		var vals []float64
		for _, rec := range recs {
			if v, ok := stat(rec); ok {
				vals = append(vals, v)
			}
		}
		out[name] = median(vals)
		res.roundSpread[name] = spread(vals)
	}
	latency := func(name string, k opKind, q float64) {
		perRound(name, func(rec *roundRec) (float64, bool) {
			return quantile(msAll(rec.lat[k]), q), len(rec.lat[k]) > 0
		})
		for _, rec := range recs {
			res.samples[name] += len(rec.lat[k])
		}
	}
	latency("snapshot_p50_ms", opSnapshot, 0.5)
	latency("snapshot_p90_ms", opSnapshot, 0.9)
	latency("snapshot_attrs_p50_ms", opSnapshotAttrs, 0.5)
	latency("multipoint_p50_ms", opMultipoint, 0.5)
	latency("neighbors_p50_ms", opNeighbors, 0.5)
	latency("append_batch_p50_ms", opAppend, 0.5)
	perRound("read_ops_s", func(rec *roundRec) (float64, bool) {
		n, wall := rec.reads()
		return float64(n) / wall.Seconds(), n > 0
	})
	perRound("append_events_s", func(rec *roundRec) (float64, bool) {
		return float64(rec.appendEvents) / rec.appendWall.Seconds(), rec.appendEvents > 0
	})
	perRound("restart_events_s", func(rec *roundRec) (float64, bool) {
		return float64(rec.restartEvents) / rec.restartWall.Seconds(), rec.restartEvents > 0
	})
	for _, rec := range recs {
		n, _ := rec.reads()
		res.samples["read_ops_s"] += n
		res.samples["append_events_s"] += rec.appendEvents
		if rec.restartEvents > 0 {
			res.samples["restart_events_s"]++
		}
	}
	return out
}

// reads is how many reads the round completed and the time spent in them.
func (rec *roundRec) reads() (n int, wall time.Duration) {
	for k := opKind(0); k < numOpKinds; k++ {
		if k.isRead() {
			n += len(rec.lat[k])
			wall += sumDur(rec.lat[k])
		}
	}
	return n, wall
}

// verify re-reads sampled timepoints, the head among them, and counts each
// comparison as an op and each mismatch as a failed one.
func (r *runner) verify() {
	all := append(append(graph.EventList{}, r.loaded...), r.acked...)
	o, err := newOracle(all)
	if err != nil {
		r.attempted++
		r.fail(err)
		return
	}
	first, head := all.Span()
	times := append(spreadTimes(first, head, verifySamples-1, 0, 1), head)
	checked, mismatches := verify(r.dep.door, o, times)
	r.attempted += checked
	r.leaks += o.leaks
	for _, m := range mismatches {
		r.fail(fmt.Errorf("oracle mismatch: %s", m))
	}
}
