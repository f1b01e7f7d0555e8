package loadgen

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"historygraph"
	"historygraph/internal/datagen"
	"historygraph/internal/server"
)

// newTestTarget boots one unsharded server over httptest with a small
// preloaded coauthorship trace, returning its URL and read domains.
func newTestTarget(t *testing.T) (url string, timeMax, nodeMax int64) {
	t.Helper()
	gm, err := historygraph.Open(historygraph.Options{LeafEventlistSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	svc := server.New(gm, server.Config{})
	events := datagen.Coauthorship(datagen.CoauthorshipConfig{
		Authors: 200, Edges: 600, Years: 3, AttrsPerNode: 2, Seed: 11,
	})
	if _, err := svc.ApplyEvents(events); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
		gm.Close()
	})
	return ts.URL, int64(gm.LastTime()), 200
}

// TestRunE2E runs a short full-mix scenario against an httptest server:
// every endpoint must record successes, nothing may error, and the
// client accounting must reconcile with the server's own /metrics.
func TestRunE2E(t *testing.T) {
	url, timeMax, nodeMax := newTestTarget(t)
	sc, err := ParseScenario([]byte(`{
		"name": "e2e",
		"seed": 7,
		"clients": 6,
		"duration": "2s",
		"warmup": "200ms",
		"mode": "closed",
		"target_rps": 300,
		"mix": {"snapshot": 4, "neighbors": 3, "batch": 1, "interval": 1, "append": 1, "stream": 1},
		"timepoints": {"distribution": "hotkey"}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), sc, Options{
		Target:  url,
		TimeMax: timeMax,
		NodeMax: nodeMax,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Errorf("run recorded %d errors: %+v", res.Errors, res.Endpoints)
	}
	for _, name := range sc.Endpoints() {
		ep := res.Endpoints[name]
		if ep == nil || ep.Count == 0 {
			t.Errorf("endpoint %s recorded nothing", name)
			continue
		}
		if ep.P50Ms <= 0 || ep.P99Ms < ep.P50Ms {
			t.Errorf("endpoint %s quantiles look wrong: p50 %v p99 %v", name, ep.P50Ms, ep.P99Ms)
		}
	}
	if res.AchievedRPS <= 0 {
		t.Errorf("achieved rps %v", res.AchievedRPS)
	}
	// Local paced closed loop with spare capacity should track the
	// target; keep the band wide for starved CI runners.
	if res.AchievedRPS < sc.TargetRPS*0.5 || res.AchievedRPS > sc.TargetRPS*1.3 {
		t.Errorf("achieved %v rps of %v targeted", res.AchievedRPS, sc.TargetRPS)
	}
	if res.Server == nil || !res.Server.Scraped {
		t.Fatalf("server check missing: %+v", res.Server)
	}
	if !res.Server.Consistent {
		t.Errorf("server scrape saw %d 2xx vs %d client-measured", res.Server.Requests2xx, res.Server.ClientMeasured)
	}
	if res.Server.P99Ms <= 0 {
		t.Errorf("server-side p99 not extracted: %+v", res.Server)
	}
	// Every /snapshot probes the encoded level, and the first read of each
	// timepoint is refused there.
	if enc := res.Server.Caches["encoded"]; enc["hits"]+enc["misses"] < res.Endpoints["snapshot"].Count || enc["refused"] == 0 {
		t.Errorf("encoded-level counters not extracted: %+v", enc)
	}
	if err := res.GateErrors(); err != nil {
		t.Errorf("gate failed: %v", err)
	}
}

// TestRunOpenLoop checks the dispatcher path: an open-loop run measures
// from intended start times and reports the achieved rate.
func TestRunOpenLoop(t *testing.T) {
	url, timeMax, nodeMax := newTestTarget(t)
	sc, err := ParseScenario([]byte(`{
		"name": "open",
		"clients": 4,
		"duration": "1s",
		"mode": "open",
		"target_rps": 150,
		"mix": {"snapshot": 1, "neighbors": 1}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), sc, Options{Target: url, TimeMax: timeMax, NodeMax: nodeMax})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Errorf("open-loop errors: %d", res.Errors)
	}
	if res.AchievedRPS < sc.TargetRPS*0.5 {
		t.Errorf("open loop achieved %v of %v rps", res.AchievedRPS, sc.TargetRPS)
	}
}

// TestRunValidation: chaos without a launched cluster and missing read
// domains are refused up front, not discovered mid-run.
func TestRunValidation(t *testing.T) {
	sc, err := ParseScenario([]byte(`{
		"name": "chaotic",
		"clients": 1,
		"duration": "5s",
		"time_max": 100,
		"mix": {"snapshot": 1},
		"chaos": [{"at": "1s", "action": "kill_replica", "partition": 0, "member": 1}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(context.Background(), sc, Options{Target: "http://127.0.0.1:1"})
	if err == nil || !strings.Contains(err.Error(), "chaos") {
		t.Errorf("chaos in attach mode accepted: %v", err)
	}

	sc2, err := ParseScenario([]byte(`{
		"name": "domainless",
		"clients": 1,
		"duration": "1s",
		"mix": {"snapshot": 1}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(context.Background(), sc2, Options{Target: "http://127.0.0.1:1"})
	if err == nil || !strings.Contains(err.Error(), "time_max") {
		t.Errorf("missing time_max accepted: %v", err)
	}
}

// TestRunCanceled: interrupting the run context returns promptly with
// the context error instead of a half-built result.
func TestRunCanceled(t *testing.T) {
	url, timeMax, nodeMax := newTestTarget(t)
	sc, err := ParseScenario([]byte(`{
		"name": "cancel",
		"clients": 2,
		"duration": "30s",
		"mix": {"snapshot": 1}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = Run(ctx, sc, Options{Target: url, TimeMax: timeMax, NodeMax: nodeMax})
	if err == nil {
		t.Fatal("canceled run returned a result")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("cancel took %v", time.Since(start))
	}
}
