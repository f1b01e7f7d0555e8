package main

import (
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"historygraph/internal/graph"
	"historygraph/internal/server"
)

func TestSameSeedSameInputs(t *testing.T) {
	a, b := newDataset(3, smokeSizes), newDataset(3, smokeSizes)
	if !reflect.DeepEqual(a.events, b.events) {
		t.Fatal("same seed gave different traces")
	}
	if c := newDataset(4, smokeSizes); reflect.DeepEqual(a.events, c.events) {
		t.Fatal("different seeds gave the same trace")
	}
	if err := checkTrace(a.events); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !reflect.DeepEqual(a.headBatch(i), b.headBatch(i)) {
			t.Fatalf("same seed gave different head batch %d", i)
		}
	}
	lists := map[string]func(ds *dataset) []op{
		"embedded": func(ds *dataset) []op { return embeddedOps(opRNG(3), ds, embeddedMix) },
		"hot":      func(ds *dataset) []op { return hotOps(opRNG(3), ds, hotMix.scaled(10)) },
		"mixed":    func(ds *dataset) []op { return mixedOps(opRNG(3), ds, 4, 7) },
	}
	for name, gen := range lists {
		if !reflect.DeepEqual(gen(a), gen(b)) {
			t.Errorf("%s: same seed gave different op lists", name)
		}
	}
	if reflect.DeepEqual(embeddedOps(opRNG(3), a, embeddedMix), embeddedOps(opRNG(4), a, embeddedMix)) {
		t.Error("seeds 3 and 4 got the same op list")
	}
}

// ISSUE 12's sample minimums: at least 400 operations behind every p90 and
// 100 behind every p50, over the timed rounds of one run.
func TestSampleMinimums(t *testing.T) {
	var mixedMix mix
	for _, k := range mixedCycle {
		mixedMix[k] += mixedCycles
	}
	ingestBatches := fullSizes.authors*(1+traceAttrsPerNode) + fullSizes.edges + 2*fullSizes.churn
	ingestBatches = ingestBatches / (ingestSlices * appendBatchSize) * ingestSlices / 2 // POST slices only
	for name, m := range map[string]mix{
		"retrieve-embedded": embeddedMix, "serve-hot": hotMix, "serve-mixed": mixedMix,
		"ingest-restart": {opAppend: ingestBatches},
	} {
		for k, n := range m {
			if n == 0 {
				continue
			}
			need := 100
			if opKind(k) == opSnapshot {
				need = 400 // the one class with a p90
			}
			if got := n * timedRounds; got < need {
				t.Errorf("%s: %d %s samples a run, need %d", name, got, opNames[k], need)
			}
		}
	}
	if setupRepeats < 3 {
		t.Errorf("build_events_s rests on %d builds, need 3", setupRepeats)
	}
	if timedRounds < 5 {
		t.Errorf("restart_events_s rests on %d restarts, need 5", timedRounds)
	}
}

// Head batches must be a valid continuation of the trace: times move
// forward, every delete removes an edge that is there, no id is reused.
func TestHeadBatchesContinueTheTrace(t *testing.T) {
	ds := newDataset(5, smokeSizes)
	s := graph.NewSnapshot()
	s.ApplyAll(ds.events)
	edges := len(s.Edges)
	at := ds.last
	for i := 0; i < 6; i++ {
		batch := ds.headBatch(i)
		if len(batch) != appendBatchSize {
			t.Fatalf("batch %d has %d events", i, len(batch))
		}
		for _, ev := range batch {
			if ev.At <= at && ev.At != batch[0].At {
				t.Fatalf("batch %d goes back in time", i)
			}
			switch ev.Type {
			case graph.AddEdge:
				if _, ok := s.Edges[ev.Edge]; ok {
					t.Fatalf("batch %d re-adds edge %d", i, ev.Edge)
				}
				if _, ok := s.Nodes[ev.Node]; !ok || ev.Node == ev.Node2 {
					t.Fatalf("batch %d: bad endpoints %d-%d", i, ev.Node, ev.Node2)
				}
			case graph.DelEdge:
				if info, ok := s.Edges[ev.Edge]; !ok || info.From != ev.Node || info.To != ev.Node2 {
					t.Fatalf("batch %d deletes edge %d, which is not there with those endpoints", i, ev.Edge)
				}
			default:
				t.Fatalf("batch %d holds a %v event", i, ev.Type)
			}
			s.Apply(ev)
		}
		if batch[0].At <= at {
			t.Fatalf("batch %d is not past the head", i)
		}
		at = batch[0].At
	}
	if got := len(s.Edges); got != edges+appendBatchSize {
		t.Errorf("after 6 batches the graph has %d edges, want the trace's %d plus batch 0's %d", got, edges, appendBatchSize)
	}
}

func TestStratifiedCoversEveryStratum(t *testing.T) {
	fs := stratified(opRNG(1), 50)
	seen := make([]bool, 50)
	for _, f := range fs {
		if f < 0 || f >= 1 {
			t.Fatalf("draw %v outside [0,1)", f)
		}
		seen[int(f*50)] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Errorf("stratum %d empty", i)
		}
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0, 1}, {0.1, 1}, {0.11, 2}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) || !math.IsNaN(median(nil)) {
		t.Error("empty input must give NaN")
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median of 1..10 = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 1..3 = %v, want 2", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, q3 := quartiles([]float64{16, 1, 4, 2, 8}); q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles = %v, %v, want 1.5, 12", q1, q3)
	}
	if got := spread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func durMS(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

func TestRoundTimings(t *testing.T) {
	rec := func(snap ...float64) *roundRec {
		r := &roundRec{}
		for _, v := range snap {
			r.lat[opSnapshot] = append(r.lat[opSnapshot], durMS(v))
		}
		return r
	}
	// Round p50s are 2, 20, 3, 4, 5: the metric is their median, which one
	// burst round does not move.
	recs := []*roundRec{rec(1, 2, 3), rec(10, 20, 30), rec(2, 3, 4), rec(3, 4, 5), rec(4, 5, 6)}
	res := &result{samples: map[string]int{}, roundSpread: map[string]float64{}}
	got := roundTimings(recs, res)
	if got["snapshot_p50_ms"] != 4 {
		t.Errorf("snapshot_p50_ms = %v, want the median of the round medians, 4", got["snapshot_p50_ms"])
	}
	if res.samples["snapshot_p50_ms"] != 15 {
		t.Errorf("samples = %d, want 15", res.samples["snapshot_p50_ms"])
	}
	if got["snapshot_p90_ms"] != 5 {
		t.Errorf("snapshot_p90_ms = %v, want the median of the round p90s (3, 30, 4, 5, 6), 5", got["snapshot_p90_ms"])
	}
	// Round read rates are 3 ops over 6, 60, 9, 12 and 15 ms.
	if want := 3 / 0.012; math.Abs(got["read_ops_s"]-want) > 1e-6 {
		t.Errorf("read_ops_s = %v, want %v", got["read_ops_s"], want)
	}
	// q1 and q3 of the round medians (Python's rule) are 2.5 and 12.5.
	if want := (12.5 - 2.5) / 4; math.Abs(res.roundSpread["snapshot_p50_ms"]-want) > 1e-9 {
		t.Errorf("spread = %v, want %v", res.roundSpread["snapshot_p50_ms"], want)
	}
	if !math.IsNaN(got["neighbors_p50_ms"]) {
		t.Errorf("a class with no samples gave %v", got["neighbors_p50_ms"])
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{id: 0, parent: -1, start: 0, end: 100},   // root
		{id: 1, parent: 0, start: 10, end: 40},    // child
		{id: 2, parent: 1, start: 15, end: 25},    // grandchild: counts against 1, not 0
		{id: 3, parent: 0, start: 30, end: 60},    // overlaps child 1 on [30,40]
		{id: 4, parent: 0, start: 90, end: 120},   // outlives the root: clipped at 100
		{id: 5, parent: -1, start: 200, end: 210}, // childless
	}
	want := []int64{100 - (60 - 10) - (100 - 90), 30 - 10, 10, 30, 30, 10}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times = %v, want %v", got, want)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	if id := tr.begin("off"); id != -1 {
		t.Fatal("a tracer that is off recorded a span")
	}
	tr.enable(true)
	root := tr.begin("op.snapshot")
	child := tr.begin("http.roundtrip")
	tr.end(child)
	body := tr.begin("http.body")
	tr.end(root) // closes the still-open body span too
	tr.end(body) // and ending it again changes nothing
	next := tr.begin("op.neighbors")
	tr.end(next)
	if len(tr.spans) != 4 {
		t.Fatalf("%d spans, want 4", len(tr.spans))
	}
	for i, want := range []int32{-1, root, root, -1} {
		if tr.spans[i].parent != want {
			t.Errorf("span %d has parent %d, want %d", i, tr.spans[i].parent, want)
		}
	}
	if tr.spans[0].op != tr.spans[2].op || tr.spans[0].op == tr.spans[3].op {
		t.Error("spans of one operation must share an op id, and only those")
	}
	if tr.spans[2].end != tr.spans[0].end {
		t.Error("ending the root must end what is open inside it")
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x")) // a nil tracer is off, not a crash
}

func TestDigestIgnoresOrderAndForm(t *testing.T) {
	ds := newDataset(2, smokeSizes)
	s := graph.NewSnapshot()
	s.ApplyAll(ds.events)
	a := (reply{snap: s}).digest()
	if b := (reply{snap: s.Clone()}).digest(); a != b {
		t.Error("a clone hashes differently")
	}
	// One more edge, or one changed attribute, must change it.
	s2 := s.Clone()
	s2.Apply(graph.Event{Type: graph.AddEdge, Edge: 1 << 50, Node: 1, Node2: 2})
	if (reply{snap: s2}).digest() == a {
		t.Error("an extra edge left the digest unchanged")
	}
	s3 := s.Clone()
	s3.Apply(graph.Event{Type: graph.SetNodeAttr, Node: 1, Attr: "k0", New: "other", HasNew: true})
	if (reply{snap: s3}).digest() == a {
		t.Error("a changed attribute left the digest unchanged")
	}
}

// The oracle compares in full; the one excuse is a served structure-only
// read near the head that carries exactly the oracle's node attributes.
func TestOracleCheck(t *testing.T) {
	ds := newDataset(2, smokeSizes)
	o, err := newOracle(ds.events)
	if err != nil {
		t.Fatal(err)
	}
	at := func(t graph.Time, attrs string) *graph.Snapshot {
		s := graph.NewSnapshot()
		for _, ev := range ds.events {
			if ev.At <= t {
				s.Apply(ev)
			}
		}
		return graph.MustParseAttrOptions(attrs).FilterSnapshot(s)
	}
	served := func(s *graph.Snapshot, t graph.Time) reply {
		body := server.SnapshotToJSON(s, t, true)
		return reply{wire: &body}
	}
	mid := ds.first + (ds.last-ds.first)/2
	halfLeak, wrongAttr := served(at(ds.last, attrsAll), ds.last), served(at(ds.last, attrsAll), ds.last)
	for i := range halfLeak.wire.Nodes {
		if halfLeak.wire.Nodes[i].ID%2 == 0 {
			halfLeak.wire.Nodes[i].Attrs = nil
		}
	}
	wrongAttr.wire.Nodes[0].Attrs = map[string]string{"k0": "not this"}
	for _, c := range []struct {
		name  string
		got   reply
		t     graph.Time
		attrs string
		ok    bool
		leaks int
	}{
		{"embedded structure", reply{snap: at(mid, attrsNone)}, mid, attrsNone, true, 0},
		{"served with attributes", served(at(mid, attrsAll), mid), mid, attrsAll, true, 0},
		{"served, attributes asked for and missing", served(at(mid, attrsNone), mid), mid, attrsAll, false, 0},
		{"served, stray attributes in the past", served(at(mid, attrsAll), mid), mid, attrsNone, false, 0},
		{"embedded, stray attributes at the head", reply{snap: at(ds.last, attrsAll)}, ds.last, attrsNone, false, 0},
		{"served, the known leak at the head", served(at(ds.last, attrsAll), ds.last), ds.last, attrsNone, true, 1},
		{"served, the leak on one partition's nodes only", halfLeak, ds.last, attrsNone, true, 1},
		{"served, a wrong attribute at the head", wrongAttr, ds.last, attrsNone, false, 0},
		{"served, wrong graph at the head", served(at(mid, attrsAll), ds.last), ds.last, attrsNone, false, 0},
	} {
		o.leaks = 0
		err := o.check(c.got, c.t, c.attrs)
		if (err == nil) != c.ok || o.leaks != c.leaks {
			t.Errorf("%s: err %v, %d excused; want ok=%v, %d excused", c.name, err, o.leaks, c.ok, c.leaks)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestSpecIsWellFormed(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name, unit, better string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is not a legal name", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s %s: unit %q is not legal", kind, name, unit)
		}
		if better != "" && better != "lower" && better != "higher" {
			t.Errorf("%s %s: better is %q", kind, name, better)
		}
	}
	for _, w := range workloads {
		check("workload", w.name, "", "")
		if len(w.why) > 200 || len(w.why) == 0 {
			t.Errorf("workload %s: why has %d characters", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		check("end-to-end", m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("setup_s (s, lower) is missing")
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics exceed the contract", len(workloads), len(endToEnd), len(perLayer))
	}
	for _, m := range perLayer {
		check("per-layer", m.Name, m.Unit, m.Better)
	}
	for _, name := range exactMetrics {
		if !seen[name] {
			t.Errorf("exact metric %q is not a declared metric", name)
		}
	}
	// The matrix has a row for every workload and names only timings.
	timing := map[string]bool{}
	for _, m := range timings {
		timing[m.Name] = true
	}
	for _, w := range workloads {
		if len(matrix[w.name]) == 0 {
			t.Errorf("workload %s has no row in the matrix", w.name)
		}
		for _, name := range matrix[w.name] {
			if !timing[name] {
				t.Errorf("matrix row %s names %q, which is not a timing", w.name, name)
			}
		}
	}
	if len(matrix) != len(workloads) {
		t.Errorf("the matrix has %d rows for %d workloads", len(matrix), len(workloads))
	}
}

func TestBenchmarkJSONMatchesTheDriver(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(committed) != string(specJSON()) {
		t.Error("BENCHMARK.json differs from the driver's tables; regenerate it with: bash benchmark/run.sh -spec > BENCHMARK.json")
	}
	if len(committed) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(committed))
	}
}

// TestSmoke runs every workload end to end on the 1/20 dataset, untraced
// and traced: the launch of each deployment shape, the restarts, the oracle
// check and the ladder cannot rot between benchmark runs. It prints
// timings and judges none.
func TestSmoke(t *testing.T) {
	for _, traced := range []bool{false, true} {
		for _, w := range workloads {
			cfg := config{workload: w.name, seed: 1, seconds: 1, smoke: true, trace: traced, dataDir: t.TempDir(), outDir: t.TempDir()}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.name, traced, err)
			}
			if !res.correct() || res.attempted == 0 {
				t.Errorf("%s (trace %v): %d of %d ops failed: %v", w.name, traced, res.failed, res.attempted, res.errs)
			}
			if len(res.e2e) != len(endToEnd) {
				t.Errorf("%s: %d gated metrics reported, %d declared", w.name, len(res.e2e), len(endToEnd))
			}
			for _, m := range endToEnd {
				if v, ok := res.e2e[m.Name]; !ok || !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s: gated metric %s is %v; it must be a number and never 0", w.name, m.Name, v)
				}
			}
			// The ungated timings follow the matrix: measured on the
			// workload's row, 0 off it.
			row := map[string]bool{}
			for _, name := range matrix[w.name] {
				row[name] = true
			}
			for _, m := range timings {
				if v, ok := res.timings[m.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) || (v > 0) != row[m.Name] {
					t.Errorf("%s: timing %s is %v (in the matrix row: %v)", w.name, m.Name, v, row[m.Name])
				}
			}
			got := res.layer
			if traced {
				if len(got) != len(perLayer) {
					t.Errorf("%s: %d per-layer metrics reported, %d declared", w.name, len(got), len(perLayer))
				}
				for _, m := range perLayer {
					if v, ok := got[m.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("%s: per-layer metric %s missing or not a number (%v)", w.name, m.Name, v)
					}
				}
			}
			if traced {
				if _, err := os.Stat(cfg.outDir + "/trace.json"); err != nil {
					t.Errorf("%s: %v", w.name, err)
				}
				embedded := w.name == "retrieve-embedded"
				if served := got["http.spans"] > 0; served == embedded {
					t.Errorf("%s: http.spans = %v", w.name, got["http.spans"])
				}
				if w.name == "serve-hot" && got["deltagraph.plan_executions"] != 0 {
					t.Errorf("serve-hot executed %v query plans in its timed round", got["deltagraph.plan_executions"])
				}
			}
		}
	}
}
