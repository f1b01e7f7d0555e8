package wire

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

func TestBinaryRoundTripPRPrepare(t *testing.T) {
	for i, v := range []PRPrepare{
		{},
		{Job: "j1", T: 42, Attrs: "+node:all", Parts: 4, Self: 2, Damping: 0.85},
		{Job: "j2", T: -7, Parts: 1, Damping: math.SmallestNonzeroFloat64},
	} {
		var got PRPrepare
		roundTrip(t, &v, &got)
		if !reflect.DeepEqual(got, v) {
			t.Errorf("prepare %d: mismatch\n got: %#v\nwant: %#v", i, got, v)
		}
	}
}

func TestBinaryRoundTripPRPrepared(t *testing.T) {
	for i, v := range []PRPrepared{
		{},
		{Job: "j", Nodes: 12, Pairs: []int64{1, 5, 1, 9, 4, 7}},
		{Job: "j", Pairs: []int64{}},
		{Job: "j", Nodes: 1, Pairs: []int64{-9, -3, -3, 100}},
	} {
		var got PRPrepared
		roundTrip(t, &v, &got)
		// The empty-but-present pair list is a legal encoding of "no pairs".
		if len(v.Pairs) == 0 && len(got.Pairs) == 0 {
			got.Pairs, v.Pairs = nil, nil
		}
		if !reflect.DeepEqual(got, v) {
			t.Errorf("prepared %d: mismatch\n got: %#v\nwant: %#v", i, got, v)
		}
	}
}

func TestBinaryRoundTripPRStart(t *testing.T) {
	for i, v := range []PRStart{
		{},
		{Job: "j", N: 1 << 40, Ghosts: []int64{2, 3, 2, 8, 5, 6}},
	} {
		var got PRStart
		roundTrip(t, &v, &got)
		if len(v.Ghosts) == 0 && len(got.Ghosts) == 0 {
			got.Ghosts, v.Ghosts = nil, nil
		}
		if !reflect.DeepEqual(got, v) {
			t.Errorf("start %d: mismatch\n got: %#v\nwant: %#v", i, got, v)
		}
	}
}

func TestBinaryRoundTripPRStep(t *testing.T) {
	for i, v := range []PRStepRequest{
		{},
		{Job: "j", Finalize: true, Compute: true, Inbox: []PRMessage{
			{Node: -4, Share: 1 << 60}, {Node: 3, Share: 1}, {Node: 900, Share: math.MaxInt64}, {Node: 901, Share: math.MinInt64},
		}},
		{Job: "j", Finalize: true, TopK: 20},
	} {
		var got PRStepRequest
		roundTrip(t, &v, &got)
		if len(v.Inbox) == 0 && len(got.Inbox) == 0 {
			got.Inbox, v.Inbox = nil, nil
		}
		if !reflect.DeepEqual(got, v) {
			t.Errorf("step %d: mismatch\n got: %#v\nwant: %#v", i, got, v)
		}
	}
}

func TestBinaryRoundTripPRStepResult(t *testing.T) {
	for i, v := range []PRStepResult{
		{},
		{Out: []PRMessage{{Node: 1, Share: 1 << 61}, {Node: 7, Share: 1 << 59}}},
		{NumNodes: 99, Top: []RankEntry{{Node: 5, Score: 0.3}, {Node: -1, Score: 0.01}}},
	} {
		var got PRStepResult
		roundTrip(t, &v, &got)
		if len(v.Out) == 0 && len(got.Out) == 0 {
			got.Out, v.Out = nil, nil
		}
		if len(v.Top) == 0 && len(got.Top) == 0 {
			got.Top, v.Top = nil, nil
		}
		if !reflect.DeepEqual(got, v) {
			t.Errorf("step result %d: mismatch\n got: %#v\nwant: %#v", i, got, v)
		}
	}
}

// TestRetiredStepKindsRefused: the step bodies of the float-share format
// (kinds 0x0c and 0x0d, a share an 8-byte float) are refused at the kind
// byte, not read as fixed-point shares; and the fixed-point bodies carry
// kinds that a float-share build, which expects 0x0c and 0x0d, refuses.
func TestRetiredStepKindsRefused(t *testing.T) {
	const oldStep, oldStepResult = 0x0c, 0x0d
	if kindPRStep == oldStep || kindPRStep == oldStepResult || kindPRStepResult == oldStep || kindPRStepResult == oldStepResult {
		t.Fatalf("step kinds 0x%02x/0x%02x reuse a retired kind", kindPRStep, kindPRStepResult)
	}
	// A float-share step body: job, finalize, compute, topk, then one
	// share to node 3 of 0.25 as IEEE 754 bits.
	e := NewEncoder()
	e.header(oldStep)
	e.String("j")
	e.Bool(true)
	e.Bool(true)
	e.Varint(0)
	encodeList(e, 1, false, func(int) { e.Varint(3); encodeFloat(e, 0.25) })
	var req PRStepRequest
	if err := (Binary{}).Decode(e.Bytes(), &req); err == nil {
		t.Fatalf("a float-share step body decoded as %+v", req)
	}
	e = NewEncoder()
	e.header(oldStepResult)
	encodeList(e, 1, false, func(int) { e.Varint(3); encodeFloat(e, 0.25) })
	e.Varint(0)
	encodeList(e, 0, true, func(int) {})
	var res PRStepResult
	if err := (Binary{}).Decode(e.Bytes(), &res); err == nil {
		t.Fatalf("a float-share step result decoded as %+v", res)
	}
	// What a float-share build checks before reading a step body.
	for _, v := range []any{&PRStepRequest{Job: "j"}, &PRStepResult{}} {
		data, err := Binary{}.Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		if k := data[2]; k == oldStep || k == oldStepResult {
			t.Errorf("%T encodes under retired kind 0x%02x", v, k)
		}
	}
}

// TestBinaryAnalyticsPartsUnsupported pins the JSON-fallback contract:
// the merged/part analytics shapes are JSON-only, so the binary codec
// must refuse them (WriteWire and the client then fall back to JSON)
// rather than silently encoding something undecodable.
func TestBinaryAnalyticsPartsUnsupported(t *testing.T) {
	for _, v := range []any{
		&DegreePart{At: 1}, &ComponentsPart{At: 1}, &EvolutionPart{T1: 1},
		&DegreeDist{At: 1}, &Components{At: 1}, &Evolution{T1: 1},
		&PageRankResult{At: 1}, &JobStatus{ID: "x"},
	} {
		if _, err := (Binary{}).Encode(v); !errors.Is(err, ErrUnsupported) {
			t.Errorf("%T: err = %v, want ErrUnsupported", v, err)
		}
	}
}
