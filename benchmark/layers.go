package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"historygraph"
	"historygraph/internal/delta"
	"historygraph/internal/deltagraph"
	"historygraph/internal/graph"
	"historygraph/internal/graphpool"
	"historygraph/internal/kvstore"
	"historygraph/internal/metrics"
	"historygraph/internal/replica"
	"historygraph/internal/server"
	"historygraph/internal/wire"
)

// layerProbe gathers the per-layer metrics of a traced run, all from
// outside the program: counters read off its public surfaces (IndexStats,
// PoolStats, the metrics registries behind /metrics) over the timed rounds,
// spans recorded around the client's calls, and a ladder that runs the
// workload's own timepoints at one rung after another — kvstore, index,
// pool, facade, handler, loopback client, coordinator — to price each rung
// where it is only reachable through its parent. Counter rows say how often
// the workload paid for a layer; ladder rows say what one visit costs.
type layerProbe struct {
	totals map[string]float64         // counter growth over the timed rounds
	last   map[any]map[string]float64 // last reading per source (registry or index)
	ladder map[string]float64         // rung costs, filled after the rounds
	done   bool
}

// newLayerProbe starts counting at d's present readings.
func newLayerProbe(d *deployment) *layerProbe {
	lp := &layerProbe{totals: map[string]float64{}, last: map[any]map[string]float64{}, ladder: map[string]float64{}}
	lp.harvest(d)
	lp.totals = map[string]float64{} // what happened before the rounds is baseline
	return lp
}

// scrape renders a registry the way GET /metrics does and parses it back.
// Histogram buckets are dropped; _sum and _count stay.
func scrape(reg *metrics.Registry) map[string]float64 {
	var buf bytes.Buffer
	if err := reg.Expose(&buf); err != nil {
		return nil
	}
	samples, err := metrics.Parse(buf.String())
	if err != nil {
		return nil
	}
	out := make(map[string]float64, len(samples))
	for _, s := range samples {
		if strings.HasSuffix(s.Name, "_bucket") {
			continue
		}
		keys := make([]string, 0, len(s.Labels))
		for k := range s.Labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		name := s.Name
		for _, k := range keys {
			name += fmt.Sprintf("{%s=%s}", k, s.Labels[k])
		}
		out[name] = s.Value
	}
	return out
}

// harvest adds to the totals whatever every live counter source grew by
// since it was last read. A source first seen now (a restarted process has
// new registries) counts from zero. The runner calls it before it stops
// anything and once more after the last round, then sets done; on an
// untraced run (nil probe) and once done it does nothing.
func (lp *layerProbe) harvest(d *deployment) {
	if lp == nil || lp.done {
		return
	}
	absorb := func(src any, role string, cur map[string]float64) {
		prev := lp.last[src]
		for k, v := range cur {
			lp.totals[role+":"+k] += v - prev[k]
		}
		lp.last[src] = cur
	}
	for _, gm := range d.managers() {
		if gm != nil {
			absorb(gm, "index", map[string]float64{"plan_executions": float64(gm.IndexStats().PlanExecutions)})
		}
	}
	for _, w := range d.workers {
		if w.svc != nil {
			absorb(w.svc.Metrics(), "worker", scrape(w.svc.Metrics()))
		}
	}
	if d.coord != nil {
		absorb(d.coord.Metrics(), "coord", scrape(d.coord.Metrics()))
	}
}

// timingStore wraps the FileStore under the ladder's own index: what the
// index asked of kvstore and how long kvstore took to answer.
type timingStore struct {
	kvstore.Store
	gets, getBytes, puts int64
	getTime, putTime     time.Duration
}

func (s *timingStore) Get(key []byte) ([]byte, error) {
	t0 := time.Now()
	v, err := s.Store.Get(key)
	s.getTime += time.Since(t0)
	s.gets++
	s.getBytes += int64(len(v))
	return v, err
}

func (s *timingStore) Put(key, value []byte) error {
	t0 := time.Now()
	err := s.Store.Put(key, value)
	s.putTime += time.Since(t0)
	s.puts++
	return err
}

func medianDur(ds []time.Duration) float64 { return median(msAll(ds)) }

// climb measures the rungs. The lower ones need a store the benchmark can
// see into, so they run on a second index built from the events the
// deployment's first index holds, over the same kind of FileStore; from
// the facade up they run on the deployment itself.
func (lp *layerProbe) climb(r *runner) error {
	d := r.dep
	events := d.indexed
	first, last := events.Span()
	// The workload's own timepoints: its working set if it has one,
	// otherwise 24 spread over what the index holds.
	times := spreadTimes(first, last, hotTimepoints, 0, 1)
	if r.wl.workingSet != nil {
		times = r.wl.workingSet(r.ds)
	}
	dir := filepath.Join(r.dir, "ladder")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	L := lp.ladder
	none, all := graph.MustParseAttrOptions(attrsNone), graph.MustParseAttrOptions(attrsAll)

	// kvstore and deltagraph.
	fs, err := kvstore.OpenFileStore(filepath.Join(dir, "index"), kvstore.FileOptions{})
	if err != nil {
		return err
	}
	store := &timingStore{Store: fs}
	pool := graphpool.New()
	dg, err := deltagraph.Build(events, deltagraph.Options{Store: store, Pool: pool})
	if err != nil {
		fs.Close()
		return err
	}
	defer fs.Close()
	L["kvstore.put_us"] = per(float64(store.putTime.Microseconds()), float64(store.puts))
	var getSnap, getTime, self []time.Duration
	var gets, getBytes, planCost float64
	for _, t := range times {
		*store = timingStore{Store: fs}
		t0 := time.Now()
		if _, err := dg.GetSnapshot(t, none); err != nil {
			return err
		}
		dur := time.Since(t0)
		getSnap, getTime, self = append(getSnap, dur), append(getTime, store.getTime), append(self, dur-store.getTime)
		gets += float64(store.gets)
		getBytes += float64(store.getBytes)
		cost, err := dg.PlanCost(t, none)
		if err != nil {
			return err
		}
		planCost += float64(cost)
	}
	n := float64(len(times))
	L["kvstore.gets_per_snapshot"] = gets / n
	L["kvstore.bytes_per_snapshot"] = getBytes / n
	L["kvstore.get_ms_per_snapshot"] = medianDur(getTime)
	L["deltagraph.get_snapshot_ms"] = medianDur(getSnap)
	L["deltagraph.self_ms_per_snapshot"] = medianDur(self)
	L["deltagraph.plan_cost_bytes"] = planCost / n
	var multi []time.Duration
	for i := 0; i < 6; i++ {
		ts := leafRun(float64(i)/6, r.ds, first, last)
		t0 := time.Now()
		if _, err := dg.GetSnapshots(ts, none); err != nil {
			return err
		}
		multi = append(multi, time.Since(t0))
	}
	L["deltagraph.get_snapshots8_ms"] = medianDur(multi)

	// graphpool: what Retrieve adds to GetSnapshot, and what letting go costs.
	var retrieve, release []time.Duration
	for _, t := range times {
		t0 := time.Now()
		id, err := dg.Retrieve(t, none)
		if err != nil {
			return err
		}
		retrieve = append(retrieve, time.Since(t0))
		t0 = time.Now()
		if err := pool.Release(id); err != nil {
			return err
		}
		pool.CleanNow()
		release = append(release, time.Since(t0))
	}
	L["graphpool.overlay_ms"] = medianDur(retrieve) - medianDur(getSnap)
	L["graphpool.release_clean_ms"] = medianDur(release)
	var held []graphpool.GraphID
	for _, t := range spreadTimes(first, last, pinnedViews, 0, 1) {
		id, err := dg.Retrieve(t, none)
		if err != nil {
			return err
		}
		held = append(held, id)
	}
	L["graphpool.bytes_per_view"] = float64(pool.ApproxBytes()) / float64(len(held))
	L["graphpool.bits"] = float64(pool.Stats().Bits)
	for _, id := range held {
		pool.Release(id)
	}
	pool.CleanNow()

	// facade: GetHistGraph against the Retrieve it wraps, both on the
	// deployment's own first index, paired per timepoint. What the facade
	// adds (parsing the options, looking the view up) is microseconds; a
	// difference below the ladder's resolution reads 0.
	gm := d.managers()[0]
	var facade []time.Duration
	for _, t := range times {
		t0 := time.Now()
		id, err := gm.DeltaGraph().Retrieve(t, none)
		if err != nil {
			return err
		}
		inner := time.Since(t0)
		gm.Pool().Release(id)
		t0 = time.Now()
		h, err := gm.GetHistGraph(t, attrsNone)
		if err != nil {
			return err
		}
		facade = append(facade, time.Since(t0)-inner)
		gm.Release(h)
	}
	gm.ForceClean()
	L["facade.self_ms"] = max(0, medianDur(facade))

	// delta codec alone: a whole graph as one delta, decoded column by column.
	mid := times[len(times)/2]
	full, err := dg.GetSnapshot(mid, all)
	if err != nil {
		return err
	}
	whole := delta.Compute(full, graph.NewSnapshot())
	structCol, attrCol := delta.EncodeStructCol(whole), delta.EncodeNodeAttrCol(whole)
	t0 := time.Now()
	if err := delta.DecodeStructCol(structCol, &delta.Delta{}); err != nil {
		return err
	}
	L["delta.decode_struct_ms"] = ms(time.Since(t0))
	t0 = time.Now()
	if err := delta.DecodeNodeAttrCol(attrCol, &delta.Delta{}); err != nil {
		return err
	}
	L["delta.decode_attrs_ms"] = ms(time.Since(t0))

	// The builder with storage out of the way: AppendAll into a MemStore.
	mem, err := deltagraph.New(deltagraph.Options{})
	if err != nil {
		return err
	}
	t0 = time.Now()
	if _, err := mem.AppendAllCounted(events); err != nil {
		return err
	}
	L["deltagraph.append_us_per_event"] = float64(time.Since(t0).Microseconds()) / float64(len(events))

	// The log under the WAL: buffered appends, one sync.
	sl, err := kvstore.OpenSeqLog(filepath.Join(dir, "seqlog"), kvstore.FileOptions{})
	if err != nil {
		return err
	}
	payload := bytes.Repeat([]byte{'x'}, 96)
	t0 = time.Now()
	for i := 0; i < leafSize; i++ {
		if _, err := sl.Append(payload); err != nil {
			sl.Close()
			return err
		}
	}
	err = sl.Sync()
	L["kvstore.seqlog_append_us"] = float64(time.Since(t0).Microseconds()) / leafSize
	sl.Close()
	if err != nil {
		return err
	}

	if len(d.workers) == 0 {
		return nil // embedded: no server, wire, shard or replica to price
	}
	plain, err := dg.GetSnapshot(mid, none)
	if err != nil {
		return err
	}
	return lp.climbServed(d, dir, plain, mid, times)
}

// climbServed measures the rungs above the facade: the wire codecs, the
// handler, the loopback client, the WAL, the coordinator. plain is the
// structure-only graph at mid, the answer the codecs are timed on.
func (lp *layerProbe) climbServed(d *deployment, dir string, plain *graph.Snapshot, mid graph.Time, times []graph.Time) error {
	L := lp.ladder
	w := d.workers[0]
	events := d.indexed

	// wire: one full structure-only answer through each codec.
	body := server.SnapshotToJSON(plain, mid, true)
	t0 := time.Now()
	bin, err := wire.Binary{}.Encode(&body)
	if err != nil {
		return err
	}
	L["wire.encode_binary_ms"] = ms(time.Since(t0))
	L["wire.snapshot_bytes"] = float64(len(bin))
	t0 = time.Now()
	if _, err := (wire.JSON{}).Encode(&body); err != nil {
		return err
	}
	L["wire.encode_json_ms"] = ms(time.Since(t0))
	t0 = time.Now()
	if err := (wire.Binary{}).Decode(bin, &wire.Snapshot{}); err != nil {
		return err
	}
	L["wire.decode_binary_ms"] = ms(time.Since(t0))
	t0 = time.Now()
	if err := wire.EncodeSnapshotStream(io.Discard, &body, 0); err != nil {
		return err
	}
	L["wire.stream_encode_ms"] = ms(time.Since(t0))

	// server: the handler on a recorder, cold then cached, and the same
	// cached answer through the loopback client. The times sit one tick off
	// the ladder's, so nothing before this has cached them.
	handler := w.svc.Handler()
	serve := func(t graph.Time) (time.Duration, error) {
		req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/snapshot?t=%d&full=1", t), nil)
		req.Header.Set("Accept", wire.ContentTypeBinary)
		rec := httptest.NewRecorder()
		t0 := time.Now()
		handler.ServeHTTP(rec, req)
		dur := time.Since(t0)
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("handler answered %d for t=%d", rec.Code, t)
		}
		return dur, nil
	}
	direct, hc := newClient(w.l.url(), nil)
	defer hc.CloseIdleConnections()
	var miss, hit, loop []time.Duration
	for _, t := range times {
		t++
		for _, into := range []*[]time.Duration{&miss, &hit} {
			dur, err := serve(t)
			if err != nil {
				return err
			}
			*into = append(*into, dur)
		}
		t0 := time.Now()
		if _, err := direct.Snapshot(t, attrsNone, true); err != nil {
			return err
		}
		loop = append(loop, time.Since(t0))
	}
	L["server.handler_miss_ms"] = medianDur(miss)
	L["server.handler_hit_ms"] = medianDur(hit)
	L["server.http_added_ms"] = medianDur(loop) - medianDur(hit)

	// replica: the WAL alone, Log.AppendBatch of one leaf's worth.
	if w.wal != nil {
		wal, err := replica.OpenLog(filepath.Join(dir, "wal"))
		if err != nil {
			return err
		}
		t0 := time.Now()
		for lo := 0; lo+appendBatchSize <= leafSize && lo+appendBatchSize <= len(events); lo += appendBatchSize {
			if _, _, err := wal.AppendBatch(events[lo:lo+appendBatchSize], ""); err != nil {
				wal.Close()
				return err
			}
		}
		L["replica.wal_append_us_per_event"] = float64(time.Since(t0).Microseconds()) / float64(min(leafSize, len(events)))
		wal.Close()
	}

	// shard: a cold read through the coordinator against the slowest of the
	// same read sent to each partition directly (one tick later, so the
	// workers have not cached it either).
	if d.coord != nil {
		co := d.door.(*httpDoor).c
		var added []time.Duration
		for _, t := range times {
			t += 2
			t0 := time.Now()
			if _, err := co.Snapshot(t, attrsNone, true); err != nil {
				return err
			}
			whole := time.Since(t0)
			var slowest time.Duration
			for _, w := range d.workers {
				leg, hc := newClient(w.l.url(), nil)
				t0 := time.Now()
				_, err := leg.Snapshot(t+1, attrsNone, true)
				slowest = max(slowest, time.Since(t0))
				hc.CloseIdleConnections()
				if err != nil {
					return err
				}
			}
			added = append(added, whole-slowest)
		}
		L["shard.coordinator_added_ms"] = medianDur(added)
	}
	return nil
}

// metrics assembles every per-layer metric; a layer the workload bypasses
// reads 0.
func (lp *layerProbe) metrics(r *runner, recs []*roundRec, res *result) map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		out[m.Name] = 0
	}
	for k, v := range lp.ladder {
		out[k] = v
	}
	// The ungated timings: every round of a traced run counts, traced or
	// not (trace.overhead_frac says what the spans cost).
	for k, v := range res.timings {
		out[k] = v
	}
	T := lp.totals
	histMS := func(role, name, label string) float64 {
		return 1000 * per(T[role+":"+name+"_sum"+label], T[role+":"+name+"_count"+label])
	}

	out["deltagraph.plan_executions"] = T["index:plan_executions"]
	var st historygraph.IndexStats
	for _, gm := range r.dep.managers() {
		s := gm.IndexStats()
		st.Leaves += s.Leaves
		st.Height = max(st.Height, s.Height)
		st.EventlistBytes += s.EventlistBytes
		for _, b := range s.DeltaBytesByLevel {
			out["deltagraph.delta_bytes"] += float64(b)
		}
	}
	out["deltagraph.height"], out["deltagraph.leaves"] = float64(st.Height), float64(st.Leaves)
	out["deltagraph.eventlist_bytes"] = float64(st.EventlistBytes)

	out["server.retrievals"] = T["worker:dg_retrievals_total"]
	out["server.encodes"] = T["worker:dg_encodes_total"]
	out["server.cache_hit_ratio"] = ratio(T["worker:dg_cache_hits_total{cache=view}"], T["worker:dg_cache_misses_total{cache=view}"])
	out["server.encoded_hit_ratio"] = ratio(T["worker:dg_cache_hits_total{cache=encoded}"], T["worker:dg_cache_misses_total{cache=encoded}"])
	out["server.cache_evictions"] = T["worker:dg_cache_evictions_total{cache=view}"] + T["worker:dg_cache_evictions_total{cache=encoded}"]
	out["server.coalesced"] = T["worker:dg_cache_hits_total{cache=flight}"]
	out["server.snapshot_handler_ms"] = histMS("worker", "dg_http_request_duration_seconds", "{endpoint=/snapshot}")
	out["server.neighbors_handler_ms"] = histMS("worker", "dg_http_request_duration_seconds", "{endpoint=/neighbors}")
	out["server.batch_handler_ms"] = histMS("worker", "dg_http_request_duration_seconds", "{endpoint=/batch}")
	out["server.append_handler_ms"] = histMS("worker", "dg_http_request_duration_seconds", "{endpoint=/append}")
	if door, ok := r.dep.door.(*httpDoor); ok {
		out["server.invalidated_per_append"] = per(float64(door.invalidated), float64(door.appends))
	}

	out["shard.fanouts"] = T["coord:dg_shard_fanouts_total"]
	out["shard.cocache_hit_ratio"] = ratio(T["coord:dg_cache_hits_total{cache=merged}"], T["coord:dg_cache_misses_total{cache=merged}"])
	var legSum, legCount float64
	for k, v := range T {
		if strings.HasPrefix(k, "coord:dg_shard_leg_duration_seconds_sum") {
			legSum += v
		}
		if strings.HasPrefix(k, "coord:dg_shard_leg_duration_seconds_count") {
			legCount += v
		}
	}
	out["shard.legs"] = legCount
	out["shard.leg_ms"] = 1000 * per(legSum, legCount)

	for _, stage := range []string{"validate", "log", "apply", "ack"} {
		out["replica.stage_"+stage+"_ms"] = histMS("worker", "dg_append_stage_duration_seconds", "{stage="+stage+"}")
	}
	records := T["worker:dg_wal_records_total"]
	out["replica.wal_fsyncs_per_kevent"] = per(1000*T["worker:dg_wal_fsync_duration_seconds_count"], records)
	out["replica.wal_fsync_ms"] = histMS("worker", "dg_wal_fsync_duration_seconds", "")
	out["replica.wal_commit_batch_records"] = per(T["worker:dg_wal_commit_batch_records_sum"], T["worker:dg_wal_commit_batch_records_count"])
	var walBytes, walRecords float64
	for _, w := range r.dep.workers {
		if w.wal != nil {
			walBytes += float64(w.wal.SizeOnDisk())
			walRecords += float64(w.wal.LastSeq())
		}
	}
	out["replica.wal_bytes_per_event"] = per(walBytes, walRecords)
	var replay []float64
	for _, rec := range recs {
		if rec.restartEvents > 0 {
			replay = append(replay, float64(rec.restartWall.Microseconds())/float64(rec.restartEvents))
		}
	}
	if len(replay) > 0 {
		out["replica.replay_us_per_event"] = median(replay)
	}

	// Spans: where a client call's time went, as the client sees it. The
	// self time of an op span is what neither the facade nor the network
	// accounts for: request encoding and response decoding in
	// server.Client, next to nothing when embedded.
	var ops, facade, rtt, body spanStat
	for name, s := range summarize(r.tr.spans) {
		switch {
		case name == "http.roundtrip":
			rtt = s
		case name == "http.body":
			body = s
		case layerOf(name) == "facade":
			facade.count += s.count
			facade.totalMS += s.totalMS
		case layerOf(name) == "op" && name != "op.append_stream":
			ops.count += s.count
			ops.selfMS += s.selfMS
		}
	}
	out["host.ref_ms"] = res.hostRefMS
	out["trace.spans"] = float64(len(r.tr.spans))
	out["client.decode_ms"] = per(ops.selfMS, float64(ops.count))
	out["facade.call_ms"] = per(facade.totalMS, float64(facade.count))
	out["facade.spans"] = float64(facade.count)
	out["http.roundtrip_ms"] = per(rtt.totalMS, float64(rtt.count))
	out["http.body_ms"] = per(body.totalMS, float64(body.count))
	out["http.spans"] = float64(rtt.count + body.count)

	// The tracing's own cost: read rate of traced rounds against untraced.
	var traced, plain []float64
	for _, rec := range recs {
		n, wall := rec.reads()
		if n == 0 {
			continue
		}
		if rec.traced {
			traced = append(traced, float64(n)/wall.Seconds())
		} else {
			plain = append(plain, float64(n)/wall.Seconds())
		}
	}
	if len(traced) > 0 && len(plain) > 0 {
		out["trace.overhead_frac"] = 1 - median(traced)/median(plain)
	}

	// Tails and sample counts of every latency class, pooled over the run,
	// and how far the round-level statistics spread.
	for k := opKind(0); k < numOpKinds; k++ {
		var all []float64
		for _, rec := range recs {
			all = append(all, msAll(rec.lat[k])...)
		}
		base := opNames[k] + "_ms"
		out[base+".n"] = float64(len(all))
		if len(all) > 0 {
			out[base+".p99"] = quantile(all, 0.99)
			out[base+".max"] = quantile(all, 1)
		}
	}
	for name, sp := range res.roundSpread {
		out[name+".spread"] = sp
	}
	return out
}
