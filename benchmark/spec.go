package main

import (
	"bytes"
	"encoding/json"
)

// runSeconds is what the driver passes as --seconds. The work is fixed, not
// time-boxed: at this value a run is timedRounds rounds, sized to take about
// this long on a 2-core box.
const runSeconds = 15

// metricSpec is one row of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Bounds: the share by which a gated metric may worsen before a change is a
// regression. setupBound is the contract's ceiling, which the contract gives
// to set-up time.
const (
	setupBound  = 0.25
	bytesBound  = 0.01
	heapBound   = 0.05
	timingBound = 0.10 // what ISSUE 12 gates a timing at; none is gated, see timings
)

// endToEnd lists the gated metrics. The driver wants every one of them from
// every workload, so only what every deployment has, and what repeats within
// its bound on the host the benchmark was built on, is here. The other ten
// metrics ISSUE 12 names are in timings below.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", setupBound},
	{"index_bytes_per_event", "B", "lower", bytesBound},
	{"durable_bytes_per_event", "B", "lower", bytesBound},
	{"heap_live_mb", "MB", "lower", heapBound},
}

// timings are ISSUE 12's latency and rate metrics. Its rule is that a metric
// which does not repeat within a tenth is not an end-to-end metric; none of
// these does on the shared 2-vCPU VM this was built on (one fixed loop runs
// between 5.6 and 10 ms from one second to the next there; see README, "Noise
// record"), so they are printed by every run, per the matrix, and carry no
// bound. To promote one on a quieter host, move its row to endToEnd with
// bound 0.10 and make every workload report it.
var timings = []metricSpec{
	{Name: "snapshot_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "snapshot_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "snapshot_attrs_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "multipoint_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "neighbors_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "read_ops_s", Unit: "1/s", Better: "higher"},
	{Name: "append_batch_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "append_events_s", Unit: "1/s", Better: "higher"},
	{Name: "build_events_s", Unit: "1/s", Better: "higher"},
	{Name: "restart_events_s", Unit: "1/s", Better: "higher"},
}

// matrix is ISSUE 12's workload × metric table: what each workload was built
// to exercise. A timing outside its workload's row is not measured and reads
// 0. The four gated metrics are on every row because the driver wants them
// there; ISSUE 12 had the byte ratios and the heap on fewer.
var matrix = map[string][]string{
	"retrieve-embedded": {"snapshot_p50_ms", "snapshot_p90_ms", "snapshot_attrs_p50_ms", "multipoint_p50_ms", "read_ops_s"},
	"serve-hot":         {"snapshot_p50_ms", "snapshot_p90_ms", "multipoint_p50_ms", "neighbors_p50_ms", "read_ops_s"},
	"serve-mixed": {"snapshot_p50_ms", "snapshot_p90_ms", "snapshot_attrs_p50_ms", "multipoint_p50_ms", "neighbors_p50_ms",
		"read_ops_s", "append_batch_p50_ms", "append_events_s"},
	"ingest-restart": {"append_batch_p50_ms", "append_events_s", "build_events_s", "restart_events_s"},
}

// layerOnly lists what only a traced run measures, layer by layer. A layer
// the workload bypasses reads 0.
var layerOnly = []metricSpec{
	// kvstore (ladder: the index's FileStore wrapped by the benchmark)
	{Name: "kvstore.gets_per_snapshot", Unit: "count", Better: "lower"},
	{Name: "kvstore.bytes_per_snapshot", Unit: "B", Better: "lower"},
	{Name: "kvstore.get_ms_per_snapshot", Unit: "ms", Better: "lower"},
	{Name: "kvstore.put_us", Unit: "us", Better: "lower"},
	{Name: "kvstore.seqlog_append_us", Unit: "us", Better: "lower"},
	// delta (the codec alone, one whole graph as a delta)
	{Name: "delta.decode_struct_ms", Unit: "ms", Better: "lower"},
	{Name: "delta.decode_attrs_ms", Unit: "ms", Better: "lower"},
	// deltagraph
	{Name: "deltagraph.plan_cost_bytes", Unit: "B", Better: "lower"},
	{Name: "deltagraph.get_snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "deltagraph.self_ms_per_snapshot", Unit: "ms", Better: "lower"},
	{Name: "deltagraph.get_snapshots8_ms", Unit: "ms", Better: "lower"},
	{Name: "deltagraph.plan_executions", Unit: "count", Better: "lower"},
	{Name: "deltagraph.append_us_per_event", Unit: "us", Better: "lower"},
	{Name: "deltagraph.height", Unit: "count", Better: "lower"},
	{Name: "deltagraph.leaves", Unit: "count", Better: "lower"},
	{Name: "deltagraph.delta_bytes", Unit: "B", Better: "lower"},
	{Name: "deltagraph.eventlist_bytes", Unit: "B", Better: "lower"},
	// graphpool
	{Name: "graphpool.overlay_ms", Unit: "ms", Better: "lower"},
	{Name: "graphpool.release_clean_ms", Unit: "ms", Better: "lower"},
	{Name: "graphpool.bytes_per_view", Unit: "B", Better: "lower"},
	{Name: "graphpool.bits", Unit: "count", Better: "lower"},
	// facade
	{Name: "facade.self_ms", Unit: "ms", Better: "lower"},
	{Name: "facade.call_ms", Unit: "ms", Better: "lower"},
	{Name: "facade.spans", Unit: "count", Better: "lower"},
	// wire
	{Name: "wire.encode_binary_ms", Unit: "ms", Better: "lower"},
	{Name: "wire.encode_json_ms", Unit: "ms", Better: "lower"},
	{Name: "wire.decode_binary_ms", Unit: "ms", Better: "lower"},
	{Name: "wire.stream_encode_ms", Unit: "ms", Better: "lower"},
	{Name: "wire.snapshot_bytes", Unit: "B", Better: "lower"},
	// server
	{Name: "server.handler_miss_ms", Unit: "ms", Better: "lower"},
	{Name: "server.handler_hit_ms", Unit: "ms", Better: "lower"},
	{Name: "server.http_added_ms", Unit: "ms", Better: "lower"},
	{Name: "server.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.encoded_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.cache_evictions", Unit: "count", Better: "lower"},
	{Name: "server.coalesced", Unit: "count", Better: "higher"},
	{Name: "server.retrievals", Unit: "count", Better: "lower"},
	{Name: "server.encodes", Unit: "count", Better: "lower"},
	{Name: "server.invalidated_per_append", Unit: "count", Better: "lower"},
	{Name: "server.snapshot_handler_ms", Unit: "ms", Better: "lower"},
	{Name: "server.neighbors_handler_ms", Unit: "ms", Better: "lower"},
	{Name: "server.batch_handler_ms", Unit: "ms", Better: "lower"},
	{Name: "server.append_handler_ms", Unit: "ms", Better: "lower"},
	// shard
	{Name: "shard.coordinator_added_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.fanouts", Unit: "count", Better: "lower"},
	{Name: "shard.legs", Unit: "count", Better: "lower"},
	{Name: "shard.leg_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.cocache_hit_ratio", Unit: "ratio", Better: "higher"},
	// replica
	{Name: "replica.stage_validate_ms", Unit: "ms", Better: "lower"},
	{Name: "replica.stage_log_ms", Unit: "ms", Better: "lower"},
	{Name: "replica.stage_apply_ms", Unit: "ms", Better: "lower"},
	{Name: "replica.stage_ack_ms", Unit: "ms", Better: "lower"},
	{Name: "replica.wal_bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "replica.wal_fsyncs_per_kevent", Unit: "count", Better: "lower"},
	{Name: "replica.wal_fsync_ms", Unit: "ms", Better: "lower"},
	{Name: "replica.wal_commit_batch_records", Unit: "count", Better: "higher"},
	{Name: "replica.wal_append_us_per_event", Unit: "us", Better: "lower"},
	{Name: "replica.replay_us_per_event", Unit: "us", Better: "lower"},
	// the client side and the benchmark's own cost
	{Name: "client.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "http.roundtrip_ms", Unit: "ms", Better: "lower"},
	{Name: "http.body_ms", Unit: "ms", Better: "lower"},
	{Name: "http.spans", Unit: "count", Better: "lower"},
	{Name: "host.ref_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	// tails and sample counts behind every latency metric, pooled over the run
	{Name: "snapshot_ms.p99", Unit: "ms", Better: "lower"},
	{Name: "snapshot_ms.max", Unit: "ms", Better: "lower"},
	{Name: "snapshot_ms.n", Unit: "count", Better: "higher"},
	{Name: "snapshot_attrs_ms.p99", Unit: "ms", Better: "lower"},
	{Name: "snapshot_attrs_ms.max", Unit: "ms", Better: "lower"},
	{Name: "snapshot_attrs_ms.n", Unit: "count", Better: "higher"},
	{Name: "multipoint_ms.p99", Unit: "ms", Better: "lower"},
	{Name: "multipoint_ms.max", Unit: "ms", Better: "lower"},
	{Name: "multipoint_ms.n", Unit: "count", Better: "higher"},
	{Name: "neighbors_ms.p99", Unit: "ms", Better: "lower"},
	{Name: "neighbors_ms.max", Unit: "ms", Better: "lower"},
	{Name: "neighbors_ms.n", Unit: "count", Better: "higher"},
	{Name: "append_ms.p99", Unit: "ms", Better: "lower"},
	{Name: "append_ms.max", Unit: "ms", Better: "lower"},
	{Name: "append_ms.n", Unit: "count", Better: "higher"},
	// spread over rounds of each round-level statistic
	{Name: "snapshot_p50_ms.spread", Unit: "ratio", Better: "lower"},
	{Name: "snapshot_p90_ms.spread", Unit: "ratio", Better: "lower"},
	{Name: "snapshot_attrs_p50_ms.spread", Unit: "ratio", Better: "lower"},
	{Name: "multipoint_p50_ms.spread", Unit: "ratio", Better: "lower"},
	{Name: "neighbors_p50_ms.spread", Unit: "ratio", Better: "lower"},
	{Name: "read_ops_s.spread", Unit: "ratio", Better: "lower"},
	{Name: "append_batch_p50_ms.spread", Unit: "ratio", Better: "lower"},
	{Name: "append_events_s.spread", Unit: "ratio", Better: "lower"},
	{Name: "build_events_s.spread", Unit: "ratio", Better: "lower"},
	{Name: "restart_events_s.spread", Unit: "ratio", Better: "lower"},
}

// perLayer is the per_layer block of BENCHMARK.json: the ungated timings,
// then the layers.
var perLayer = append(append([]metricSpec(nil), timings...), layerOnly...)

func unitOf(name string) string {
	for _, m := range endToEnd {
		if m.Name == name {
			return m.Unit
		}
	}
	for _, m := range perLayer {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}

// specJSON renders BENCHMARK.json from the tables above, so that the file
// at the repository root and what the driver prints cannot drift apart
// (-spec prints it; a test compares it with the committed file).
func specJSON() []byte {
	type workloadSpec struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerSpec struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []layerSpec    `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, workloadSpec{w.name, w.why})
	}
	for _, m := range perLayer {
		spec.PerLayer = append(spec.PerLayer, layerSpec{m.Name, m.Unit, m.Better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(spec); err != nil {
		panic(err) // plain structs of strings and numbers always encode
	}
	return buf.Bytes()
}
