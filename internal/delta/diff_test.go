package delta

import (
	"math/rand"
	"testing"

	"historygraph/internal/graph"
)

func snapWithNodes(ids ...graph.NodeID) *graph.Snapshot {
	s := graph.NewSnapshot()
	for _, id := range ids {
		s.Nodes[id] = struct{}{}
	}
	return s
}

func TestIntersection(t *testing.T) {
	a := snapWithNodes(1, 2, 3)
	a.NodeAttrs[1] = map[string]string{"x": "1", "y": "same"}
	b := snapWithNodes(2, 3, 4)
	b.NodeAttrs[1] = map[string]string{"x": "2", "y": "same"} // node 1 absent from b, attrs dangling on purpose
	p := combine(Intersection{}, []*graph.Snapshot{a, b})
	if _, ok := p.Nodes[1]; ok {
		t.Error("node 1 should not survive intersection")
	}
	if _, ok := p.Nodes[2]; !ok {
		t.Error("node 2 should survive")
	}
	if _, ok := p.Nodes[4]; ok {
		t.Error("node 4 should not survive")
	}
	if len(p.NodeAttrs) != 0 {
		t.Error("attrs of dropped node must be dropped")
	}
}

func TestIntersectionAttrValues(t *testing.T) {
	a := snapWithNodes(1)
	a.NodeAttrs[1] = map[string]string{"x": "1", "y": "same"}
	b := snapWithNodes(1)
	b.NodeAttrs[1] = map[string]string{"x": "2", "y": "same"}
	p := combine(Intersection{}, []*graph.Snapshot{a, b})
	if _, ok := p.NodeAttrs[1]["x"]; ok {
		t.Error("attr with differing values must not survive")
	}
	if p.NodeAttrs[1]["y"] != "same" {
		t.Error("attr with equal values must survive")
	}
}

func TestIntersectionGrowingOnlyIsOldest(t *testing.T) {
	// For a growing-only sequence, the intersection is the oldest child
	// (the paper: for strictly growing graphs the root is exactly G0).
	a := snapWithNodes(1, 2)
	b := snapWithNodes(1, 2, 3)
	c := snapWithNodes(1, 2, 3, 4)
	p := combine(Intersection{}, []*graph.Snapshot{a, b, c})
	if !p.Equal(a) {
		t.Error("intersection of growing chain should equal oldest")
	}
}

func TestUnion(t *testing.T) {
	a := snapWithNodes(1, 2)
	a.NodeAttrs[1] = map[string]string{"x": "old"}
	b := snapWithNodes(2, 3)
	b.Nodes[1] = struct{}{}
	b.NodeAttrs[1] = map[string]string{"x": "new"}
	p := combine(Union{}, []*graph.Snapshot{a, b})
	for _, n := range []graph.NodeID{1, 2, 3} {
		if _, ok := p.Nodes[n]; !ok {
			t.Errorf("node %d missing from union", n)
		}
	}
	if p.NodeAttrs[1]["x"] != "new" {
		t.Error("union must take the newest attribute value")
	}
}

func TestEmpty(t *testing.T) {
	p := combine(Empty{}, []*graph.Snapshot{snapWithNodes(1, 2, 3)})
	if p.Size() != 0 {
		t.Error("Empty must yield the null graph")
	}
}

func TestSkewedExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randomSnapshot(rng)
	b := randomSnapshot(rng)
	// r = 0 reproduces the oldest child.
	p0 := combine(Skewed(0), []*graph.Snapshot{a, b})
	if !p0.Equal(a) {
		t.Error("Skewed(0) != oldest child")
	}
	// r = 1 reproduces the newest child (structurally; attribute values
	// follow because sampling includes every change).
	p1 := combine(Skewed(1), []*graph.Snapshot{a, b})
	if !p1.Equal(b) {
		t.Error("Skewed(1) != newest child")
	}
}

func TestBalancedDeltaSizesRoughlyEqual(t *testing.T) {
	// Build two children differing in many elements; the Balanced parent
	// should sit roughly midway: |∆(p,a)| ≈ |∆(p,b)|.
	a := graph.NewSnapshot()
	b := graph.NewSnapshot()
	for n := graph.NodeID(1); n <= 2000; n++ {
		if n <= 1500 {
			a.Nodes[n] = struct{}{}
		}
		if n > 500 {
			b.Nodes[n] = struct{}{}
		}
	}
	p := combine(Balanced(), []*graph.Snapshot{a, b})
	da := Compute(a, p).Len()
	db := Compute(b, p).Len()
	if da == 0 || db == 0 {
		t.Fatalf("unexpected zero delta: %d %d", da, db)
	}
	ratio := float64(da) / float64(db)
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("balanced deltas not balanced: |∆(p,a)|=%d |∆(p,b)|=%d", da, db)
	}
}

func TestMixedSkewDirection(t *testing.T) {
	a := graph.NewSnapshot()
	b := graph.NewSnapshot()
	for n := graph.NodeID(1); n <= 2000; n++ {
		if n <= 1200 {
			a.Nodes[n] = struct{}{}
		}
		if n > 800 {
			b.Nodes[n] = struct{}{}
		}
	}
	// High r1, r2 → parent close to b → small ∆(b,p), large ∆(a,p).
	pHi := combine(Mixed{R1: 0.9, R2: 0.9}, []*graph.Snapshot{a, b})
	if Compute(b, pHi).Len() >= Compute(a, pHi).Len() {
		t.Error("Mixed(0.9,0.9) should favor the newer child")
	}
	pLo := combine(Mixed{R1: 0.1, R2: 0.1}, []*graph.Snapshot{a, b})
	if Compute(a, pLo).Len() >= Compute(b, pLo).Len() {
		t.Error("Mixed(0.1,0.1) should favor the older child")
	}
}

func TestMixedWellFormed(t *testing.T) {
	// The same-hash rule must never leave attributes on removed elements
	// or add attributes to absent elements.
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 20; i++ {
		children := []*graph.Snapshot{randomSnapshot(rng), randomSnapshot(rng), randomSnapshot(rng)}
		p := combine(Mixed{R1: 0.7, R2: 0.3}, children)
		for n := range p.NodeAttrs {
			if _, ok := p.Nodes[n]; !ok {
				t.Fatalf("attrs on absent node %d", n)
			}
		}
		for e := range p.EdgeAttrs {
			if _, ok := p.Edges[e]; !ok {
				t.Fatalf("attrs on absent edge %d", e)
			}
		}
	}
}

func TestRightLeftSkewed(t *testing.T) {
	a := snapWithNodes(1, 2, 3, 4, 5)
	b := snapWithNodes(4, 5, 6, 7, 8)
	r0 := combine(RightSkewed{R: 0}, []*graph.Snapshot{a, b})
	want := combine(Intersection{}, []*graph.Snapshot{a, b})
	if !r0.Equal(want) {
		t.Error("RightSkewed(0) != intersection")
	}
	r1 := combine(RightSkewed{R: 1}, []*graph.Snapshot{a, b})
	if !r1.Equal(b) {
		t.Error("RightSkewed(1) != newest child")
	}
	l1 := combine(LeftSkewed{R: 1}, []*graph.Snapshot{a, b})
	if !l1.Equal(a) {
		t.Error("LeftSkewed(1) != oldest child")
	}
}

func TestCombineEmptyChildren(t *testing.T) {
	for _, f := range []Differential{Intersection{}, Union{}, Empty{}, Balanced(), RightSkewed{R: 0.5}, LeftSkewed{R: 0.5}} {
		if got := combine(f, nil); got == nil || got.Size() != 0 {
			t.Errorf("%s.Combine(nil) should be empty snapshot", f.Name())
		}
	}
}

func TestCombineDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := randomSnapshot(rng)
	b := randomSnapshot(rng)
	for _, f := range []Differential{Intersection{}, Union{}, Balanced(), Mixed{R1: 0.3, R2: 0.6}} {
		p1 := combine(f, []*graph.Snapshot{a, b})
		p2 := combine(f, []*graph.Snapshot{a, b})
		if !p1.Equal(p2) {
			t.Errorf("%s not deterministic", f.Name())
		}
	}
}

func TestCombineDoesNotMutateChildren(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	a := randomSnapshot(rng)
	b := randomSnapshot(rng)
	ac, bc := a.Clone(), b.Clone()
	for _, f := range []Differential{Intersection{}, Union{}, Balanced(), RightSkewed{R: 0.5}, LeftSkewed{R: 0.5}} {
		combine(f, []*graph.Snapshot{a, b})
		if !a.Equal(ac) || !b.Equal(bc) {
			t.Fatalf("%s mutated its children", f.Name())
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"intersection", "union", "empty", "balanced", "skewed:0.3", "mixed:0.4:0.2", "rightskewed:0.7", "leftskewed:0.1"} {
		f, err := ByName(name)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		if f == nil {
			t.Errorf("ByName(%q) = nil", name)
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Error("bogus name accepted")
	}
	if f, _ := ByName("mixed:0.4:0.2"); f.(Mixed).R1 != 0.4 || f.(Mixed).R2 != 0.2 {
		t.Error("mixed params not parsed")
	}
}

func TestDifferentialNames(t *testing.T) {
	cases := map[string]Differential{
		"intersection":     Intersection{},
		"union":            Union{},
		"empty":            Empty{},
		"balanced":         Balanced(),
		"skewed(0.3)":      Skewed(0.3),
		"mixed(0.1,0.9)":   Mixed{R1: 0.1, R2: 0.9},
		"rightskewed(0.5)": RightSkewed{R: 0.5},
		"leftskewed(0.5)":  LeftSkewed{R: 0.5},
	}
	for want, f := range cases {
		if got := f.Name(); got != want {
			t.Errorf("Name = %q, want %q", got, want)
		}
	}
}

// TestByNameReadsBackName: a checkpoint records Function.Name(), and Open
// resolves it with ByName.
func TestByNameReadsBackName(t *testing.T) {
	for _, name := range []string{"intersection", "union", "empty", "balanced", "skewed:0.3", "mixed:0.25:0.75", "rightskewed:0.5", "leftskewed:0.5"} {
		f, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ByName(f.Name())
		if err != nil {
			t.Fatalf("%s is named %q, which ByName does not read: %v", name, f.Name(), err)
		}
		if back.Name() != f.Name() {
			t.Errorf("%s came back as %s", f.Name(), back.Name())
		}
	}
}

// restrictTo cuts s down to the given nodes and edges, attributes included.
func restrictTo(s *graph.Snapshot, nodes map[graph.NodeID]bool, edges map[graph.EdgeID]bool) *graph.Snapshot {
	out := graph.NewSnapshot()
	for n := range nodes {
		if _, ok := s.Nodes[n]; ok {
			out.Nodes[n] = struct{}{}
		}
		if attrs, ok := s.NodeAttrs[n]; ok {
			out.NodeAttrs[n] = attrs
		}
	}
	for e := range edges {
		if info, ok := s.Edges[e]; ok {
			out.Edges[e] = info
		}
		if attrs, ok := s.EdgeAttrs[e]; ok {
			out.EdgeAttrs[e] = attrs
		}
	}
	return out
}

// TestElementwise checks what Elementwise promises and the index builder
// relies on: combining children cut down to some elements gives the parent
// cut down to those elements, and elements all children agree on pass into
// the parent unchanged.
func TestElementwise(t *testing.T) {
	fns := []Differential{Intersection{}, Union{}, Balanced(), Skewed(0.3), Mixed{R1: 0.7, R2: 0.2}, RightSkewed{R: 0.5}, LeftSkewed{R: 0.5}}
	for _, fn := range fns {
		if !fn.Elementwise() {
			t.Fatalf("%s does not claim to be element-wise", fn.Name())
		}
		rng := rand.New(rand.NewSource(17))
		for trial := 0; trial < 20; trial++ {
			children := []*graph.Snapshot{randomSnapshot(rng), randomSnapshot(rng), randomSnapshot(rng)}
			whole := combine(fn, children)
			nodes, edges := map[graph.NodeID]bool{}, map[graph.EdgeID]bool{}
			for _, c := range children {
				for n := range c.Nodes {
					if rng.Intn(2) == 0 {
						nodes[n] = true
					}
				}
				for e := range c.Edges {
					if rng.Intn(2) == 0 {
						edges[e] = true
					}
				}
			}
			cut := make([]*graph.Snapshot, len(children))
			for i, c := range children {
				cut[i] = restrictTo(c, nodes, edges)
			}
			if got, want := combine(fn, cut), restrictTo(whole, nodes, edges); !got.Equal(want) {
				t.Fatalf("%s: combining restricted children is not the restricted parent", fn.Name())
			}
			same := []*graph.Snapshot{children[0], children[0].Clone(), children[0].Clone()}
			if !combine(fn, same).Equal(children[0]) {
				t.Fatalf("%s changes what all its children agree on", fn.Name())
			}
		}
	}
	if (Empty{}).Elementwise() {
		t.Error("Empty's parent differs from children that agree: it must not claim to be element-wise")
	}
}
