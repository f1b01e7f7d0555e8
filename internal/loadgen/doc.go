// Package loadgen is the closed-loop cluster load harness: a traffic
// generator that drives a running coordinator (or a single server) with
// a scenario-declared mix of /snapshot, /neighbors, /batch, /interval
// and /append requests plus the chunked snapshot stream, and reports
// per-endpoint latency quantiles, achieved-vs-target throughput, and
// error accounting that a CI job can gate on.
//
// The pieces:
//
//   - Scenario (scenario.go): a plain-JSON declaration of the workload —
//     client count, duration, warmup, open- vs closed-loop pacing,
//     target RPS, per-endpoint mix ratios, hot-key vs uniform timepoint
//     distributions, wire selection, and chaos hooks. The module is
//     zero-dependency, so scenarios are JSON, not YAML.
//
//   - Limiter (limiter.go): a token-bucket rate limiter. Closed-loop
//     runs with a target use it to pace self-clocked clients; open-loop
//     runs use a dispatcher that stamps every request with its intended
//     start time, so queueing delay counts against latency instead of
//     being silently absorbed (coordinated omission).
//
//   - Hist (hist.go): an HDR-style log-bucketed latency histogram —
//     lock-free recording, bounded relative error (~3%), p50/p99/p999
//     extraction without retaining samples.
//
//   - Run (run.go): the harness proper. N worker clients replay the mix
//     against the target through warmup and measurement phases, classify
//     every outcome (ok / partial / HTTP error / transport error), keep
//     chaos-window errors out of the gate, and cross-check the client's
//     own counts against the cluster's /metrics scrape.
//
//   - Cluster (cluster.go): an in-process P-partition × R-replica
//     cluster (worker replica sets under a shard coordinator, each
//     worker WAL-backed) that cmd/dgtraffic boots when not attaching to
//     an external deployment. It implements the Chaos interface — kill a
//     replica, slow a partition mid-run — so scenarios can assert the
//     cluster degrades to partials and failover rather than errors.
//
// A Result serializes to the JSON artifact cmd/dgtraffic -out writes;
// Result.GateErrors is the pass/fail verdict on it.
package loadgen
