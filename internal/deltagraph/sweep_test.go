package deltagraph

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"historygraph/internal/delta"
	"historygraph/internal/graph"
)

var update = flag.Bool("update", false, "rewrite testdata/paper_sweep.golden from this run")

// TestPaperSweep is the paper's choice of parameters (§5) as a table of exact
// counters, testdata/paper_sweep.golden: the repository benchmark's seed-1
// trace bulk-built into a FileStore at each L, k and differential function
// below. A row holds the index's stored bytes an event, once built and again
// after a checkpoint; its leaves, height and open-leaf events; and, over 32
// singlepoint reads spread evenly over the trace, structure only and with
// every attribute, the store bytes the reads returned, the cost the planner
// gave them summed, and the one over the other. That last is how far
// plan_cost_bytes is from the bytes a read makes the store serve. Regenerate
// the file with go test ./internal/deltagraph -run TestPaperSweep -update.
func TestPaperSweep(t *testing.T) {
	if raceEnabled {
		t.Skip("the rows share no index; the race detector takes their 16 builds from 4 s to 35 s")
	}
	events := benchTrace(1, 1)
	first, last := events.Span()
	ts := make([]graph.Time, 32)
	for i := range ts {
		ts[i] = first + (last-first)*graph.Time(2*i+1)/graph.Time(2*len(ts))
	}
	var out bytes.Buffer
	fmt.Fprintf(&out, "# go test ./internal/deltagraph -run TestPaperSweep: benchTrace(1, 1), %d events, FileStore; reads at %d times\n", len(events), len(ts))
	fmt.Fprintf(&out, "%-6s %-2s %-12s %8s %8s %7s %6s %6s %11s %11s %6s %11s %11s %6s\n",
		"L", "k", "function", "B/event", "ckpt", "leaves", "height", "open",
		"struct_read", "struct_plan", "ratio", "attrs_read", "attrs_plan", "ratio")
	type param struct {
		L, k int
		fn   string
	}
	var params []param
	for _, L := range []int{2048, 4096, 8192, 16384} {
		for _, k := range []int{2, 4} {
			for _, fn := range []string{"intersection", "balanced"} {
				params = append(params, param{L, k, fn})
			}
		}
	}
	rows := make([]string, len(params))
	t.Run("rows", func(t *testing.T) {
		for i, p := range params {
			t.Run(fmt.Sprintf("L=%d,k=%d,%s", p.L, p.k, p.fn), func(t *testing.T) {
				t.Parallel()
				rows[i] = sweepRow(t, events, ts, p.L, p.k, p.fn)
			})
		}
	})
	for _, row := range rows {
		out.WriteString(row)
	}
	const golden = "testdata/paper_sweep.golden"
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("the sweep no longer matches %s; it reads\n%s", golden, got)
	}
}

// sweepRow builds one row of TestPaperSweep.
func sweepRow(t *testing.T, events graph.EventList, ts []graph.Time, L, k int, fn string) string {
	f, err := delta.ByName(fn)
	if err != nil {
		t.Fatal(err)
	}
	fs := openFileStore(t, filepath.Join(t.TempDir(), "index"))
	defer fs.Close()
	cs := &countingStore{Store: fs, gets: make(map[string]int)}
	dg, err := Build(events, Options{LeafSize: L, Arity: k, Function: f, Store: cs})
	if err != nil {
		t.Fatal(err)
	}
	built, st := fs.SizeOnDisk(), dg.Stats()
	var reads [2][2]int64 // bytes read, cost planned: structure only, every attribute
	for i, opts := range []graph.AttrOptions{{}, allAttrs} {
		for _, q := range ts {
			cost, err := dg.PlanCost(q, opts)
			if err != nil {
				t.Fatal(err)
			}
			cs.reset()
			if _, err := dg.GetSnapshot(q, opts); err != nil {
				t.Fatal(err)
			}
			_, _, b := cs.read()
			reads[i][0] += b
			reads[i][1] += cost
		}
	}
	if err := dg.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	row := fmt.Sprintf("%-6d %-2d %-12s %8.4f %8.4f %7d %6d %6d", L, k, fn,
		float64(built)/float64(len(events)), float64(fs.SizeOnDisk())/float64(len(events)), st.Leaves, st.Height, st.RecentEvents)
	for _, r := range reads {
		row += fmt.Sprintf(" %11d %11d %6.3f", r[0], r[1], float64(r[0])/float64(r[1]))
	}
	return row + "\n"
}
