package bench

import (
	"io"
	"strconv"
	"strings"
	"testing"
)

// The harness is exercised at a tiny scale so every experiment's plumbing
// stays correct; shape assertions are in the named tests below.
const tiny Scale = 0.1

func runExp(t *testing.T, id string) *Table {
	t.Helper()
	table, err := Experiments[id](tiny)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if len(table.Rows) == 0 {
		t.Fatalf("%s: empty table", id)
	}
	table.Fprint(io.Discard) // rendering must not panic
	return table
}

func TestAllExperimentsRunAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("harness suite is slow")
	}
	for _, id := range Order {
		id := id
		t.Run(id, func(t *testing.T) { runExp(t, id) })
	}
}

func cell(t *testing.T, table *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(table.Rows[row][col], "x"), 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric", row, col, table.Rows[row][col])
	}
	return v
}

// Shape: the naive Log baseline must be far slower than DeltaGraph.
func TestShapeLogSlowerThanDeltaGraph(t *testing.T) {
	table := runExp(t, "log")
	for i := range table.Rows {
		// The factor is bounded by |E|/|G| at tiny scale (EXPERIMENTS.md
		// note 1); assert the direction with headroom, not the paper's 20x.
		if f := cell(t, table, i, 3); f < 1.3 {
			t.Errorf("%s: log only %.2fx slower; expected clearly > 1x", table.Rows[i][0], f)
		}
	}
}

// Shape: deeper materialization never slows retrieval and always pins more
// memory.
func TestShapeMaterializationMonotone(t *testing.T) {
	table := runExp(t, "fig10")
	for i := 1; i < len(table.Rows); i++ {
		if cell(t, table, i, 2) < cell(t, table, i-1, 2) {
			t.Errorf("memory not monotone at row %d", i)
		}
	}
	// Latency: compare the extremes (noise-tolerant).
	if cell(t, table, 3, 1) > cell(t, table, 0, 1) {
		t.Error("grandchildren materialization slower than none")
	}
}

// Shape: multipoint retrieval reads far less data than repeated
// singlepoint (bytes fetched is noise-free, unlike µs at tiny scale).
func TestShapeMultipointSavings(t *testing.T) {
	table := runExp(t, "fig8c")
	last := len(table.Rows) - 1
	if cell(t, table, last, 4) >= cell(t, table, last, 3) {
		t.Error("multipoint did not read less than singlepoints at n=6")
	}
	// The saving must grow with the number of points.
	if cell(t, table, last, 5) <= cell(t, table, 0, 5) {
		t.Error("read saving should grow with the number of query points")
	}
}

// Shape: structure-only queries read far less data than queries that also
// fetch attributes (bytes read is noise-free at tiny scale; wall-clock is
// reported alongside).
func TestShapeColumnarSpeedup(t *testing.T) {
	table := runExp(t, "fig8d")
	sumAll, sumStruct := 0.0, 0.0
	for i := range table.Rows {
		sumAll += cell(t, table, i, 3)
		sumStruct += cell(t, table, i, 4)
	}
	if sumStruct*2 >= sumAll {
		t.Errorf("structure-only reads (%v KB) not well below +attrs reads (%v KB)", sumStruct, sumAll)
	}
}

// Shape: arity sweep — space grows from k=2 to k=8.
func TestShapeAritySpace(t *testing.T) {
	table := runExp(t, "fig9")
	if cell(t, table, 3, 2) <= cell(t, table, 0, 2) {
		t.Error("arity=8 should use more disk than arity=2")
	}
	// L sweep: larger L uses less disk (rows 4..7).
	if cell(t, table, 7, 2) >= cell(t, table, 4, 2) {
		t.Error("larger L should use less disk")
	}
}

// Shape: Mixed r controls the latency skew direction. The absolute costs
// of the oldest timepoints ride the cheap empty-anchor path under every
// configuration, so the discriminating comparison is across configurations
// at the recent end of history: high r must be cheaper there than low r.
func TestShapeMixedSkew(t *testing.T) {
	table := runExp(t, "fig11b")
	last := len(table.Rows) - 1
	if cell(t, table, last, 3) >= cell(t, table, last, 1) {
		t.Error("r=0.9 should beat r=0.1 on the most recent snapshot")
	}
	// And low r must win somewhere in the older half.
	better := false
	for i := 0; i <= last/2; i++ {
		if cell(t, table, i, 1) <= cell(t, table, i, 3) {
			better = true
			break
		}
	}
	if !better {
		t.Error("r=0.1 never beats r=0.9 in the older half")
	}
}

// Shape: GraphPool memory stays far below disjoint storage.
func TestShapePoolMemoryBelowDisjoint(t *testing.T) {
	table := runExp(t, "fig8a")
	last := len(table.Rows) - 1
	if cell(t, table, last, 2) >= cell(t, table, last, 3) {
		t.Error("pool memory should be below the disjoint estimate")
	}
}

func TestWithLatency(t *testing.T) {
	p := WithLatency(2, 0, 0)
	if p.NumPartitions() != 2 {
		t.Fatal("partition count")
	}
	key := make([]byte, 11)
	if err := p.Put(key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	got, err := p.Get(key)
	if err != nil || string(got) != "v" {
		t.Fatal("latency store broken")
	}
}
