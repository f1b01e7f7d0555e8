package server

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"historygraph"
	"historygraph/internal/graphpool"
	"historygraph/internal/metrics"
)

// TestStructureOnlyNearHead: a read close enough to the head is overlaid as
// a dependent of the current graph, which holds every attribute. A
// structure-only read must not inherit them, through either door, and a
// read that asks for attributes must still get them.
func TestStructureOnlyNearHead(t *testing.T) {
	gm := newTestManager(t)
	_, client := newTestServer(t, gm, Config{})
	events := testEvents()
	for _, wireName := range []string{"json", "binary"} {
		if _, err := client.SetWire(wireName); err != nil {
			t.Fatal(err)
		}
		for _, back := range []int{1, 10, 25} { // the head and two times in the recent eventlist
			q := events[len(events)-back].At
			want, err := gm.GetHistSnapshot(q, "")
			if err != nil {
				t.Fatal(err)
			}
			h, err := gm.GetHistGraph(q, "")
			if err != nil {
				t.Fatal(err)
			}
			if !h.DependsOnCurrent() {
				t.Fatalf("t=%d is not overlaid on the current graph; the test misses its path", q)
			}
			if got := h.Snapshot(); !got.Equal(want) || len(got.NodeAttrs)+len(got.EdgeAttrs) != 0 {
				t.Errorf("embedded t=%d: %d nodes carry attributes in a structure-only view", q, len(got.NodeAttrs))
			}
			if err := gm.Release(h); err != nil {
				t.Fatal(err)
			}

			served, err := client.Snapshot(q, "", true)
			if err != nil {
				t.Fatal(err)
			}
			if served.NumNodes != len(want.Nodes) || len(served.Nodes) != len(want.Nodes) || len(served.Edges) != len(want.Edges) {
				t.Fatalf("%s t=%d: served %d/%d elements, want %d/%d", wireName, q, len(served.Nodes), len(served.Edges), len(want.Nodes), len(want.Edges))
			}
			for _, n := range served.Nodes {
				if len(n.Attrs) != 0 {
					t.Fatalf("%s t=%d: node %d served with attributes %v in a structure-only read", wireName, q, n.ID, n.Attrs)
				}
			}

			wantAttrs, err := gm.GetHistSnapshot(q, "+node:all")
			if err != nil {
				t.Fatal(err)
			}
			servedAttrs, err := client.Snapshot(q, "+node:all", true)
			if err != nil {
				t.Fatal(err)
			}
			carrying := 0
			for _, n := range servedAttrs.Nodes {
				if len(n.Attrs) != len(wantAttrs.NodeAttrs[historygraph.NodeID(n.ID)]) {
					t.Fatalf("%s t=%d: node %d served with %d attributes, want %d", wireName, q, n.ID, len(n.Attrs), len(wantAttrs.NodeAttrs[historygraph.NodeID(n.ID)]))
				}
				if len(n.Attrs) > 0 {
					carrying++
				}
			}
			if carrying == 0 {
				t.Fatalf("%s t=%d: +node:all served no attributes", wireName, q)
			}
		}
	}
}

// scrapeMetrics reads svc's /metrics, lints the exposition and returns the
// samples by name.
func scrapeMetrics(t *testing.T, svc *Server) map[string]float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if err := metrics.Lint(rec.Body.String()); err != nil {
		t.Fatalf("exposition does not lint: %v", err)
	}
	samples, err := metrics.Parse(rec.Body.String())
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, s := range samples {
		out[s.Name] = s.Value
	}
	return out
}

// TestPoolGauges: the pool gauges agree with PoolStats, tell a held view
// from a released one, and dg_pool_bytes shows up with the cleaner's next
// pass rather than being computed by the scrape.
func TestPoolGauges(t *testing.T) {
	gm, err := historygraph.BuildFrom(testEvents(), historygraph.Options{LeafEventlistSize: 128, CleanerInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gm.Close() })
	svc, client := newTestServer(t, gm, Config{})
	pool := func() map[string]float64 {
		t.Helper()
		rec := httptest.NewRecorder()
		svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		samples, err := metrics.Parse(rec.Body.String())
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]float64{}
		for _, s := range samples {
			if strings.HasPrefix(s.Name, "dg_pool_") {
				out[s.Name+s.Labels["kind"]+s.Labels["state"]] = s.Value
			}
		}
		return out
	}
	// Before any read the pool holds the current graph and the index's
	// pending nodes, a bit each.
	base := gm.PoolStats()
	if base.ActiveGraphs < 2 || base.Bits != base.ActiveGraphs+1 {
		t.Fatalf("before any read the pool holds %d graphs on %d bits", base.ActiveGraphs, base.Bits)
	}
	if _, err := client.Snapshot(gm.LastTime()/2, "", false); err != nil { // the view cache now holds one view
		t.Fatal(err)
	}
	h, err := gm.GetHistGraph(gm.LastTime()/3, "")
	if err != nil {
		t.Fatal(err)
	}
	gm.Release(h) // and this one waits for the cleaner
	st, got := gm.PoolStats(), pool()
	want := map[string]float64{
		"dg_pool_elementsnode": float64(st.PoolNodes), "dg_pool_elementsedge": float64(st.PoolEdges),
		"dg_pool_graphsactive": float64(base.ActiveGraphs + 1), "dg_pool_graphspinned": 1, "dg_pool_graphsreleased": 1,
		"dg_pool_bits": float64(base.Bits + 2), "dg_pool_bytes": 0, // one bit each view's
	}
	if !reflect.DeepEqual(got, want) || st.PoolNodes == 0 || st.PoolEdges == 0 {
		t.Errorf("pool gauges = %v\nwant %v", got, want)
	}
	cleaner := graphpool.NewCleaner(gm.Pool(), time.Millisecond) // the manager's own ticks hourly

	cleaner.Start()
	defer cleaner.Stop()
	for deadline := time.Now().Add(5 * time.Second); pool()["dg_pool_graphsreleased"] != 0 || pool()["dg_pool_bytes"] == 0; {
		if time.Now().After(deadline) {
			t.Fatalf("the cleaner ran, the gauges did not follow: %v", pool())
		}
		time.Sleep(time.Millisecond)
	}
	if got, est := pool()["dg_pool_bytes"], float64(gm.Pool().ApproxBytes()); got != est {
		t.Errorf("dg_pool_bytes = %v, ApproxBytes = %v with the pool at rest", got, est)
	}
}

// TestIndexGauges scrapes a worker over a file-backed index: the index
// gauges lint, agree with IndexStats and /stats, and follow a checkpoint:
// the disk gauge grows to the file's size, in stored bytes.
func TestIndexGauges(t *testing.T) {
	path := filepath.Join(t.TempDir(), "index")
	gm, err := historygraph.BuildFrom(testEvents(), historygraph.Options{
		LeafEventlistSize: 128, CleanerInterval: time.Hour, StorePath: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gm.Close() })
	svc, client := newTestServer(t, gm, Config{})
	gauges := func() map[string]float64 { return scrapeMetrics(t, svc) }
	st := gm.IndexStats()
	before := gauges()
	for name, want := range map[string]int64{
		"dg_index_disk_bytes":       st.DiskBytes,
		"dg_index_checkpoint_bytes": 0, "dg_index_leaves": int64(st.Leaves),
	} {
		if got, ok := before[name]; !ok || got != float64(want) {
			t.Errorf("%s = %v (present %v), want %d", name, got, ok, want)
		}
	}
	if st.DiskBytes <= 0 || st.Leaves <= 0 || st.RecentEvents <= 0 {
		t.Fatalf("index stats look empty: %+v", st)
	}
	if err := gm.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after := gauges()
	ckpt := after["dg_index_checkpoint_bytes"]
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if disk := after["dg_index_disk_bytes"]; ckpt <= 0 || disk <= before["dg_index_disk_bytes"] || disk != float64(info.Size()) {
		t.Errorf("after a checkpoint: checkpoint %v B, disk %v -> %v B, file %d B", ckpt, before["dg_index_disk_bytes"], disk, info.Size())
	}
	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if float64(stats.Index.CheckpointBytes) != ckpt {
		t.Errorf("/stats index = %+v, /metrics checkpoint %v", stats.Index, ckpt)
	}
}

// TestDuplicateAddServed is ROADMAP direction 1's live repro through the
// front door: a second AddNode of a live node is acknowledged and changes no
// answer, past or present.
func TestDuplicateAddServed(t *testing.T) {
	gm, err := historygraph.Open(historygraph.Options{LeafEventlistSize: 2, CleanerInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gm.Close() })
	_, client := newTestServer(t, gm, Config{})
	res, err := client.Append(historygraph.EventList{
		{Type: historygraph.AddNode, At: 1, Node: 1},
		{Type: historygraph.AddNode, At: 2, Node: 2},
		{Type: historygraph.AddNode, At: 3, Node: 3},
		{Type: historygraph.AddNode, At: 4, Node: 1}, // node 1 is live
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Appended != 4 || res.LastTime != 4 {
		t.Errorf("append result %+v, want 4 events acknowledged and the clock at 4", res)
	}
	for q, want := range map[historygraph.Time]int{1: 1, 2: 2, 3: 3, 4: 3} {
		snap, err := client.Snapshot(q, "", false)
		if err != nil {
			t.Fatal(err)
		}
		if snap.NumNodes != want {
			t.Errorf("snapshot@%d has %d nodes, want %d", q, snap.NumNodes, want)
		}
	}
}

// TestLeafCutMetrics follows the builder's stall on /metrics and /stats:
// every leaf cut is observed, and reads, at the head or in the past, leave
// the index as they found it.
func TestLeafCutMetrics(t *testing.T) {
	gm, err := historygraph.Open(historygraph.Options{LeafEventlistSize: 64, CleanerInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gm.Close() })
	svc, client := newTestServer(t, gm, Config{})
	scrape := func() map[string]float64 { return scrapeMetrics(t, svc) }
	events := testEvents()
	if _, err := client.Append(events); err != nil {
		t.Fatal(err)
	}
	before := scrape()
	cuts := before["dg_index_leaf_cut_seconds_count"]
	if cuts < 10 || cuts != before["dg_index_leaves"] {
		t.Fatalf("%v leaf cuts observed over %v leaves", cuts, before["dg_index_leaves"])
	}
	for i := 1; i <= 4; i++ { // three historical reads and one at the head
		if _, err := client.Snapshot(gm.LastTime()*historygraph.Time(i)/4, "", false); err != nil {
			t.Fatal(err)
		}
	}
	after := scrape()
	for _, name := range []string{"dg_index_disk_bytes", "dg_index_leaves", "dg_index_leaf_cut_seconds_count"} {
		if after[name] != before[name] {
			t.Errorf("reads moved %s: %v -> %v", name, before[name], after[name])
		}
	}
	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if float64(stats.Index.Leaves) != after["dg_index_leaves"] {
		t.Errorf("/stats index %+v against %v leaves on /metrics", stats.Index, after["dg_index_leaves"])
	}
}
