package deltagraph

import (
	"slices"
	"testing"

	"historygraph/internal/delta"
	"historygraph/internal/graph"
)

// FuzzPayloadCodec is internal/delta's test of the same name for the two
// payload kinds this package lays out: the input as an aux delta and an aux
// eventlist, which must decode or be refused without a panic (the reader's
// bounds, and the allocation they keep in proportion, are the delta
// package's and are measured there); and the input as the recipe for one of
// each, which must come back as it went in.
func FuzzPayloadCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeAuxDelta(auxDelta{set: []kvPair{{"a", "1"}, {"b", "1"}}, dels: []string{"x"}})[1:])
	f.Add(encodeAuxEvents([]AuxEvent{{At: 5, Op: AuxSet, Key: "k", Val: "v"}, {At: 9, Op: AuxDel, Key: "k"}})[1:])
	f.Fuzz(func(t *testing.T, data []byte) {
		if d, err := decodeAuxDelta(append([]byte{delta.TagAuxDelta}, data...)); err == nil && len(d.set)+len(d.dels) > len(data) {
			t.Errorf("%d bytes decoded to %d records", len(data), len(d.set)+len(d.dels))
		}
		if evs, err := decodeAuxEvents(append([]byte{delta.TagAuxEvents}, data...)); err == nil && len(evs) > len(data) {
			t.Errorf("%d bytes decoded to %d events", len(data), len(evs))
		}

		// Strings come from a pool of six, so that they repeat, or from the
		// input itself.
		rest := data
		next := func() byte {
			if len(rest) == 0 {
				return 0
			}
			b := rest[0]
			rest = rest[1:]
			return b
		}
		str := func() string {
			n := next()
			if n < 128 {
				return []string{"", "k", "deg:17", "1", "2", "a key long enough to need two length bytes, which takes sixty-four of them"}[n%6]
			}
			n = min(n-128, byte(len(rest)))
			s := string(rest[:n])
			rest = rest[n:]
			return s
		}
		var (
			d   auxDelta
			evs []AuxEvent
			at  graph.Time
		)
		for len(rest) > 0 {
			switch op := next(); op % 4 {
			case 0:
				d.set = append(d.set, kvPair{str(), str()})
			case 1:
				d.dels = append(d.dels, str())
			case 2:
				at += graph.Time(next())
				evs = append(evs, AuxEvent{At: at, Op: AuxOp(op >> 2), Key: str(), Val: str()})
			case 3:
				at = graph.Time(int64(next())<<56) - at // far away, and back in time
				evs = append(evs, AuxEvent{At: at, Op: AuxOp(op >> 2), Key: str(), Val: str()})
			}
		}
		gotD, err := decodeAuxDelta(encodeAuxDelta(d))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(gotD.set, d.set) || !slices.Equal(gotD.dels, d.dels) {
			t.Errorf("aux delta came back as %+v, went in as %+v", gotD, d)
		}
		gotEvs, err := decodeAuxEvents(encodeAuxEvents(evs))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(gotEvs, evs) {
			t.Errorf("aux events came back as %+v, went in as %+v", gotEvs, evs)
		}
	})
}

// FuzzRetrieval drives checkRetrievals: the bytes choose the index, how it is
// built, whether it is checkpointed and reopened before the rest of the trace,
// and the times asked for, and every answer must be the replay's.
func FuzzRetrieval(f *testing.F) {
	f.Add([]byte{})
	for _, reopen := range []byte{0, 1} {
		f.Add([]byte{1, 40, 10, 0, 0, 2, 3, 0, reopen, 7, 0, 9, 1, 3, 2, 128, 3, 0, 4, 5, 5, 0, 6, 77})  // appended, children pinned at 3/4, one of each kind of time
		f.Add([]byte{2, 90, 100, 2, 1, 4, 1, 1, reopen, 3, 1, 0, 1, 1, 2, 255})                          // Union, leaves pinned half way, leaf times and the tail
		f.Add([]byte{3, 0, 250, 1, 2, 1, 0, 0, reopen, 7, 6, 10, 6, 200, 5, 0, 3, 0, 4, 0, 0, 0, 6, 50}) // Empty, leaves wider than the trace is long at 1/4
		f.Add([]byte{4, 0, 255, 0, 0, 1, 1, 1, reopen, 2, 1, 0, 2, 90, 6, 200})                          // the default leaf size: half the trace, reopened or not, then one leaf cut at it
	}
	f.Fuzz(checkRetrievals)
}
