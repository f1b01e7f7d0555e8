package loadgen

import (
	"context"
	"maps"
	"slices"
	"strings"
	"testing"
)

// TestClusterChaosSmoke is the in-process version of CI's loadtest job:
// a 2×2 cluster, a short mixed run, a follower killed mid-measurement.
// The coordinator must degrade to failover/retry — the gate still sees
// zero non-chaos errors and every endpoint measured.
func TestClusterChaosSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a 2x2 cluster")
	}
	cluster, err := LaunchCluster(ClusterConfig{
		Partitions: 2, Replicas: 2,
		PreloadAuthors: 120,
		Seed:           5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	sc, err := ParseScenario([]byte(`{
		"name": "chaos-smoke",
		"seed": 5,
		"clients": 4,
		"duration": "2s",
		"warmup": "200ms",
		"mix": {"snapshot": 3, "neighbors": 2, "append": 1},
		"chaos": [
			{"at": "500ms", "action": "kill_replica", "partition": 1, "member": 0},
			{"at": "1s", "action": "slow_partition", "partition": 0, "delay": "5ms", "duration": "500ms"}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), sc, Options{
		Target:  cluster.URL(),
		Chaos:   cluster,
		TimeMax: cluster.TimeMax(),
		NodeMax: cluster.NodeMax(),
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ChaosApplied) != 2 {
		t.Errorf("chaos applied: %v", res.ChaosApplied)
	}
	// The dead follower and the slowed partition must surface as chaos
	// accounting or degraded latency — never as gate-tripping errors.
	if err := res.GateErrors(); err != nil {
		t.Errorf("gate failed under chaos: %v", err)
	}
	for _, name := range sc.Endpoints() {
		if ep := res.Endpoints[name]; ep == nil || ep.Count == 0 {
			t.Errorf("endpoint %s recorded nothing", name)
		}
	}
	workers := cluster.ScrapeWorkers(context.Background())
	if len(workers) != 4 {
		t.Errorf("scraped %d workers, want 4", len(workers))
	}
	for _, wc := range workers {
		if (wc.Worker == "p1-m0") != (wc.Note != "") {
			t.Errorf("worker %s scraped with note %q; only the killed p1-m0 has one", wc.Worker, wc.Note)
		}
	}
}

// TestClusterWorkerScrape: after a run on a launched cluster,
// ScrapeWorkers reports every worker's own cache levels and analytics
// timings — the series the coordinator's scrape cannot show.
func TestClusterWorkerScrape(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a 2x1 cluster")
	}
	cluster, err := LaunchCluster(ClusterConfig{
		Partitions: 2, Replicas: 1,
		PreloadAuthors: 60,
		Seed:           3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	sc, err := ParseScenario([]byte(`{
		"name": "worker-scrape",
		"seed": 3,
		"clients": 2,
		"duration": "1s",
		"warmup": "100ms",
		"mix": {"snapshot": 1, "analytics": 2}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), sc, Options{
		Target:  cluster.URL(),
		TimeMax: cluster.TimeMax(),
		NodeMax: cluster.NodeMax(),
		Logf:    t.Logf,
	}); err != nil {
		t.Fatal(err)
	}
	workers := cluster.ScrapeWorkers(context.Background())
	if len(workers) != 2 {
		t.Fatalf("scraped %d workers, want 2", len(workers))
	}
	for _, wc := range workers {
		if wc.Note != "" {
			t.Fatalf("worker %s not scraped: %s", wc.Worker, wc.Note)
		}
		if levels := slices.Sorted(maps.Keys(wc.Caches)); !slices.Equal(levels, []string{"encoded", "flight", "view"}) {
			t.Errorf("worker %s cache levels %v, want encoded, flight and view", wc.Worker, levels)
		}
		if v := wc.Caches["view"]; v["hits"]+v["misses"] == 0 {
			t.Errorf("worker %s view level saw no lookups: %v", wc.Worker, v)
		}
		scans := int64(0)
		for kind, a := range wc.Analytics {
			if a["count"] < 1 || a["sum_us"] <= 0 {
				t.Errorf("worker %s analytics %s: count %d, sum %d us", wc.Worker, kind, a["count"], a["sum_us"])
			}
			scans += a["count"]
		}
		if scans == 0 {
			t.Errorf("worker %s ran no analytics: %v", wc.Worker, wc.Analytics)
		}
	}
}

// TestClusterReshardSmoke drives the reshard chaos action end to end:
// a 2×2 cluster splits to three partitions mid-measurement, then merges
// the two newest back into one fresh set — two epoch flips under a live
// mixed workload. The gate must stay clean (the flips degrade to
// internal rerouting, never client errors) and the coordinator must end
// on the expected layout.
func TestClusterReshardSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a 2x2 cluster and reshards it twice")
	}
	cluster, err := LaunchCluster(ClusterConfig{
		Partitions: 2, Replicas: 2,
		PreloadAuthors: 120,
		Seed:           11,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	sc, err := ParseScenario([]byte(`{
		"name": "reshard-smoke",
		"seed": 11,
		"clients": 4,
		"duration": "6s",
		"warmup": "200ms",
		"mix": {"snapshot": 3, "neighbors": 2, "append": 2, "interval": 1},
		"chaos": [
			{"at": "1s", "action": "reshard", "mode": "split"},
			{"at": "3500ms", "action": "reshard", "mode": "merge", "merge": [1, 2]}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), sc, Options{
		Target:  cluster.URL(),
		Chaos:   cluster,
		TimeMax: cluster.TimeMax(),
		NodeMax: cluster.NodeMax(),
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ChaosApplied) != 2 {
		t.Errorf("chaos applied: %v", res.ChaosApplied)
	}
	// A failed reshard reports its error inside the chaos description;
	// the run degrades rather than erroring, so assert success here.
	for _, desc := range res.ChaosApplied {
		if strings.Contains(desc, "(") {
			t.Errorf("reshard failed: %s", desc)
		}
	}
	if err := res.GateErrors(); err != nil {
		t.Errorf("gate failed across reshards: %v", err)
	}
	// Split (epoch 2, 3 partitions) then merge (epoch 3, back to 2).
	co := cluster.Coordinator()
	if got := co.Epoch(); got != 3 {
		t.Errorf("final epoch = %d, want 3", got)
	}
	if got := co.NumPartitions(); got != 2 {
		t.Errorf("final partitions = %d, want 2", got)
	}
	for _, name := range sc.Endpoints() {
		if ep := res.Endpoints[name]; ep == nil || ep.Count == 0 {
			t.Errorf("endpoint %s recorded nothing", name)
		}
	}
}

// TestClusterKillValidation: chaos aimed outside the cluster shape is
// reported, not a panic.
func TestClusterKillValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a cluster")
	}
	cluster, err := LaunchCluster(ClusterConfig{
		Partitions: 1, Replicas: 1,
		PreloadAuthors: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.KillReplica(5, 0); err == nil {
		t.Error("killing a nonexistent partition succeeded")
	}
	if err := cluster.SlowPartition(9, 0, 0); err == nil {
		t.Error("slowing a nonexistent partition succeeded")
	}
}
