package deltagraph

import (
	"errors"
	"slices"
	"strconv"
	"testing"

	"historygraph/internal/delta"
	"historygraph/internal/graph"
	"historygraph/internal/graphpool"
)

// degreeAux is a toy auxiliary index: it maintains the degree of every node
// as string key-value pairs ("deg:<id>" -> degree). It exercises the whole
// extensibility pipeline: aux events per plain event, aux eventlists, aux
// deltas on hierarchy edges, and point retrieval.
type degreeAux struct{}

func (degreeAux) Name() string { return "degree" }

func (degreeAux) CreateAuxEvents(ev graph.Event, _ *graphpool.View, aux AuxSnapshot) []AuxEvent {
	bump := func(n graph.NodeID, delta int) AuxEvent {
		key := "deg:" + strconv.FormatInt(int64(n), 10)
		cur, _ := strconv.Atoi(aux[key])
		next := cur + delta
		if next == 0 {
			return AuxEvent{At: ev.At, Op: AuxDel, Key: key}
		}
		return AuxEvent{At: ev.At, Op: AuxSet, Key: key, Val: strconv.Itoa(next)}
	}
	switch ev.Type {
	case graph.AddEdge:
		if ev.Node == ev.Node2 {
			return []AuxEvent{bump(ev.Node, 2)}
		}
		out := []AuxEvent{bump(ev.Node, 1)}
		// Apply the first bump to a copy so the second sees it (keys
		// differ here, but keep the pattern correct).
		tmp := aux.clone()
		tmp.apply(out[0])
		key2 := "deg:" + strconv.FormatInt(int64(ev.Node2), 10)
		cur, _ := strconv.Atoi(tmp[key2])
		out = append(out, AuxEvent{At: ev.At, Op: AuxSet, Key: key2, Val: strconv.Itoa(cur + 1)})
		return out
	case graph.DelEdge:
		if ev.Node == ev.Node2 {
			return []AuxEvent{bump(ev.Node, -2)}
		}
		out := []AuxEvent{bump(ev.Node, -1)}
		tmp := aux.clone()
		tmp.apply(out[0])
		key2 := "deg:" + strconv.FormatInt(int64(ev.Node2), 10)
		cur, _ := strconv.Atoi(tmp[key2])
		if cur-1 == 0 {
			out = append(out, AuxEvent{At: ev.At, Op: AuxDel, Key: key2})
		} else {
			out = append(out, AuxEvent{At: ev.At, Op: AuxSet, Key: key2, Val: strconv.Itoa(cur - 1)})
		}
		return out
	}
	return nil
}

// AuxDF keeps entries present in all children with equal values
// (intersection semantics, like the paper's path index).
func (degreeAux) AuxDF(children []AuxSnapshot) AuxSnapshot {
	if len(children) == 0 {
		return AuxSnapshot{}
	}
	out := children[0].clone()
	for _, c := range children[1:] {
		for k, v := range out {
			if cv, ok := c[k]; !ok || cv != v {
				delete(out, k)
			}
		}
	}
	return out
}

// refAux replays the trace through the aux index to get the reference aux
// snapshot at time t.
func refAux(events graph.EventList, t graph.Time) AuxSnapshot {
	aux := AuxSnapshot{}
	idx := degreeAux{}
	for _, ev := range events {
		if ev.At > t {
			break
		}
		for _, ae := range idx.CreateAuxEvents(ev, nil, aux) {
			aux.apply(ae)
		}
	}
	return aux
}

func auxEqual(a, b AuxSnapshot) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func TestAuxIndexRetrieval(t *testing.T) {
	events := makeTrace(20, 2500)
	dg, err := Build(events, Options{LeafSize: 150, Arity: 3, AuxIndexes: []AuxIndex{degreeAux{}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := dg.AuxIndexNames(); len(got) != 1 || got[0] != "degree" {
		t.Fatalf("AuxIndexNames = %v", got)
	}
	_, last := events.Span()
	for i := 0; i <= 10; i++ {
		q := last * graph.Time(i) / 10
		got, err := dg.GetAuxSnapshot("degree", q)
		if err != nil {
			t.Fatalf("GetAuxSnapshot(%d): %v", q, err)
		}
		want := refAux(events, q)
		if !auxEqual(got, want) {
			t.Fatalf("aux snapshot at %d differs: got %d entries, want %d", q, len(got), len(want))
		}
	}
	// Beyond the last event: equals the current aux state.
	got, err := dg.GetAuxSnapshot("degree", last+50)
	if err != nil {
		t.Fatal(err)
	}
	if !auxEqual(got, refAux(events, last)) {
		t.Error("aux tail query differs")
	}
	if _, err := dg.GetAuxSnapshot("nope", 1); err == nil {
		t.Error("unknown aux index accepted")
	}
}

func TestAuxIndexSurvivesCheckpoint(t *testing.T) {
	events := makeTrace(21, 1200)
	dg, err := Build(events, Options{LeafSize: 100, Arity: 2, AuxIndexes: []AuxIndex{degreeAux{}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := dg.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Options{Store: dg.Store(), AuxIndexes: []AuxIndex{degreeAux{}}})
	if err != nil {
		t.Fatal(err)
	}
	_, last := events.Span()
	got, err := re.GetAuxSnapshot("degree", last/2)
	if err != nil {
		t.Fatal(err)
	}
	if !auxEqual(got, refAux(events, last/2)) {
		t.Error("aux snapshot differs after reopen")
	}
	// Mismatched aux registration must be rejected.
	if _, err := Open(Options{Store: dg.Store()}); err == nil {
		t.Error("Open without aux indexes accepted")
	}
}

func TestAuxCodecRoundTrip(t *testing.T) {
	d := auxDelta{
		set:  []kvPair{{"a", "1"}, {"b\x00c", "v\xff"}},
		dels: []string{"x", "y"},
	}
	got, err := decodeAuxDelta(encodeAuxDelta(d))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.set, d.set) || !slices.Equal(got.dels, d.dels) {
		t.Errorf("aux delta round trip: %+v", got)
	}
	evs := []AuxEvent{
		{At: 5, Op: AuxSet, Key: "k", Val: "v"},
		{At: 9, Op: AuxDel, Key: "k"},
		{At: 9, Op: AuxSet, Key: "k", Val: "v"},
		{At: -3, Op: 77, Key: "", Val: "k"},
	}
	buf := encodeAuxEvents(evs)
	gotEvs, err := decodeAuxEvents(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(gotEvs, evs) {
		t.Errorf("aux events round trip: %+v", gotEvs)
	}
	// Tag and count; 6 bytes for the first event (op, At, "k" and "v" spelled
	// out); 4 for each that repeats its strings (op, At gap, two numbers); and
	// a time that goes back costs the ten bytes of a gap modulo 2^64.
	if want := 2 + 6 + 4 + 4 + 13; len(buf) != want {
		t.Errorf("aux eventlist is %d bytes, want %d", len(buf), want)
	}
	for name, b := range map[string][]byte{
		"bad tag":         {0x99},
		"empty":           nil,
		"truncated":       buf[:len(buf)-1],
		"trailing byte":   append(buf[:len(buf):len(buf)], 0),
		"count too large": {delta.TagAuxEvents, 0xff, 0xff, 0xff, 0xff, 0x0f},
	} {
		if _, err := decodeAuxEvents(b); !errors.Is(err, delta.ErrCorrupt) {
			t.Errorf("aux eventlist, %s: %v", name, err)
		}
	}
	if _, err := decodeAuxDelta([]byte{0x99}); !errors.Is(err, delta.ErrCorrupt) {
		t.Errorf("aux delta with a bad tag: %v", err)
	}
	if _, err := decodeAuxDelta([]byte{delta.TagAuxDelta, 0xff, 0xff, 0xff, 0xff, 0x0f}); !errors.Is(err, delta.ErrCorrupt) {
		t.Errorf("aux delta with a count too large: %v", err)
	}
	// What format 2 wrote under these two kinds is refused by name.
	if _, err := decodeAuxDelta([]byte{0x11, 0, 0}); !errors.Is(err, delta.ErrOldFormat) {
		t.Errorf("format-2 aux delta: %v", err)
	}
	if _, err := decodeAuxEvents([]byte{0x12, 0}); !errors.Is(err, delta.ErrOldFormat) {
		t.Errorf("format-2 aux eventlist: %v", err)
	}
}

func TestComputeAuxDelta(t *testing.T) {
	src := AuxSnapshot{"a": "1", "b": "2", "c": "3"}
	tgt := AuxSnapshot{"a": "1", "b": "9", "d": "4"}
	d := computeAuxDelta(tgt, src)
	got := src.clone()
	d.apply(got)
	if !auxEqual(got, tgt) {
		t.Errorf("aux delta apply: %v", got)
	}
	if !computeAuxDelta(tgt, tgt).empty() {
		t.Error("self delta not empty")
	}
}
