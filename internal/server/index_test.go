package server

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"historygraph"
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

// TestIndexGauges scrapes a worker over a file-backed index: the index
// gauges lint, agree with IndexStats and /stats, and follow a checkpoint.
func TestIndexGauges(t *testing.T) {
	gm, err := historygraph.BuildFrom(testEvents(), historygraph.Options{
		LeafEventlistSize: 128, CleanerInterval: time.Hour,
		StorePath: filepath.Join(t.TempDir(), "index"),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gm.Close() })
	svc, client := newTestServer(t, gm, Config{})
	gauges := func() map[string]float64 {
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
	st := gm.IndexStats()
	before := gauges()
	for name, want := range map[string]int64{
		"dg_index_disk_bytes": st.DiskBytes, "dg_index_spine_bytes": st.SpineBytes,
		"dg_index_checkpoint_bytes": 0, "dg_index_leaves": int64(st.Leaves),
	} {
		if got, ok := before[name]; !ok || got != float64(want) {
			t.Errorf("%s = %v (present %v), want %d", name, got, ok, want)
		}
	}
	if st.DiskBytes <= 0 || st.SpineBytes <= 0 || st.Leaves <= 0 {
		t.Fatalf("index stats look empty: %+v", st)
	}
	if err := gm.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after := gauges()
	ckpt := after["dg_index_checkpoint_bytes"]
	if ckpt <= 0 || after["dg_index_disk_bytes"] < before["dg_index_disk_bytes"]+ckpt {
		t.Errorf("after a checkpoint: checkpoint %v B, disk %v -> %v B", ckpt, before["dg_index_disk_bytes"], after["dg_index_disk_bytes"])
	}
	if after["dg_index_spine_bytes"] != before["dg_index_spine_bytes"] {
		t.Errorf("a checkpoint moved the spine: %v -> %v B", before["dg_index_spine_bytes"], after["dg_index_spine_bytes"])
	}
	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if float64(stats.Index.CheckpointBytes) != ckpt || stats.Index.SpineBytes != st.SpineBytes {
		t.Errorf("/stats index = %+v, /metrics checkpoint %v spine %d", stats.Index, ckpt, st.SpineBytes)
	}
}
