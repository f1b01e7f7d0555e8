package replica

import (
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"historygraph"
)

// fuzzSource turns fuzz input into records: sequence numbers and ids near
// each other and at the ends of the range, every event type, attribute
// names that repeat (so the encoder's intern table is exercised) and ones
// that do not, and every combination of old/new value present and absent.
type fuzzSource struct{ b []byte }

func (s *fuzzSource) byte() byte {
	if len(s.b) == 0 {
		return 0
	}
	x := s.b[0]
	s.b = s.b[1:]
	return x
}

func (s *fuzzSource) num() int64 {
	x := int64(s.byte())
	switch s.byte() % 5 {
	case 0:
		return -x
	case 1:
		return 1<<40 + x
	case 2:
		return 1<<63 - 1 - x
	case 3:
		return -1<<63 + x
	}
	return x
}

func (s *fuzzSource) str() string {
	switch n := s.byte(); {
	case n < 128:
		return []string{"", "NN", "UNA", "name", "b1", "a longer value, of the kind that repeats"}[n%6]
	default:
		n = min(n-128, byte(len(s.b)))
		str := string(s.b[:n])
		s.b = s.b[n:]
		return str
	}
}

func (s *fuzzSource) records() []Record {
	recs := []Record{}
	seq := uint64(s.byte())
	for len(s.b) > 0 {
		flags := s.byte()
		seq += uint64(flags % 3)
		rec := Record{Seq: seq, Batch: s.str(), Event: historygraph.Event{
			Type: historygraph.AddNode + historygraph.EventType(s.byte()%8), At: historygraph.Time(s.num()),
			Node: historygraph.NodeID(s.num()), Directed: flags&8 != 0, Attr: s.str(),
		}}
		if flags&16 != 0 {
			rec.Seq = uint64(s.num())
			rec.Event.Node2, rec.Event.Edge = historygraph.NodeID(s.num()), historygraph.EdgeID(s.num())
		}
		if flags&32 != 0 {
			rec.Event.Old, rec.Event.HadOld = s.str(), true
		}
		if flags&64 != 0 {
			rec.Event.New, rec.Event.HasNew = s.str(), true
		}
		recs = append(recs, rec)
	}
	return recs
}

// allocatedWithin runs decode and fails the test if it allocated more than
// a small multiple of the bytes it was given: 48 bytes an input byte (a
// decoded Record is 112 bytes and takes at least minRecordBytes) plus a
// constant. A compressed WAL payload counts the bytes it declares it
// inflates to as well, as far as decodeRun's cap allows. The counter is
// the whole process's and a fuzz worker has goroutines of its own, so an
// excess has to show three times in a row.
func allocatedWithin(t *testing.T, input []byte, decode func()) {
	t.Helper()
	n := len(input)
	if len(input) > 0 && input[0] == walLZWMarker {
		if declared, w := binary.Uvarint(input[1:]); w > 0 {
			n += int(min(declared, maxRunInflation*uint64(len(input))))
		}
	}
	limit := uint64(48*n + 4096)
	var got uint64
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		decode()
		runtime.ReadMemStats(&after)
		if got = after.TotalAlloc - before.TotalAlloc; got <= limit {
			return
		}
	}
	t.Errorf("decoding %d bytes allocated %d, more than %d", len(input), got, limit)
}

// lzwCase is a compressed WAL payload and whether decodeRun must read it.
type lzwCase struct {
	name    string
	payload []byte
	ok      bool
}

// lzwCases are a well-formed compressed WAL payload of goldenEvents and
// what decodeRun must refuse: that payload's stream cut short, followed by
// a byte, or declaring one byte more or one byte less than it inflates to,
// and the well-formed compressed form of repeatedRun, whose true length is
// past the cap.
func lzwCases() []lzwCase {
	raw := rawRun(goldenEvents, "b1")
	good := compressRun(raw[1:])
	n := uint64(len(raw) - 1)
	stream := good[1+len(binary.AppendUvarint(nil, n)):]
	declaring := func(n uint64) []byte {
		return append(binary.AppendUvarint([]byte{walLZWMarker}, n), stream...)
	}
	return []lzwCase{
		{"well-formed", good, true},
		{"truncated", good[:len(good)-4], false},
		{"followed by a byte", append(good[:len(good):len(good)], 0), false},
		{"declared a byte over", declaring(n + 1), false},
		{"declared a byte under", declaring(n - 1), false},
		{"declared past the cap", compressRun(rawRun(repeatedRun(), "")[1:]), false},
	}
}

// repeatedRun is one attribute set 1 024 times: LZW shrinks its run about
// 20 times, past maxRunInflation.
func repeatedRun() historygraph.EventList {
	events := make(historygraph.EventList, 1024)
	for i := range events {
		events[i] = historygraph.Event{Type: historygraph.SetNodeAttr, At: 5, Node: 7, Attr: "name", New: "x", HasNew: true}
	}
	return events
}

// FuzzReplicaCodec checks the two byte formats this package reads from
// outside the process: the binary /replicate body (both kinds) a follower
// or a migration puller fetches from a peer, and the WAL record payload
// read back from disk. The input is used twice: as the bytes themselves —
// behind each /replicate header, and as a payload — which must decode or be
// refused without a panic and without allocating out of proportion; and as
// the recipe for a run of records, which must come back from both codecs
// exactly as they went in.
func FuzzReplicaCodec(f *testing.F) {
	f.Add([]byte{})
	recs := []Record{
		{Seq: 1, Event: historygraph.Event{Type: historygraph.AddNode, At: 1, Node: 7}},
		{Seq: 2, Event: historygraph.Event{Type: historygraph.SetNodeAttr, At: 3, Node: 7, Attr: "name", Old: "x", HadOld: true, New: "x", HasNew: true}, Batch: "b1"},
	}
	f.Add(encodeReplicate(replicateResponse{Records: recs, LastSeq: 9}, false)[3:])
	f.Add(encodeReplicate(replicateResponse{Records: recs, LastSeq: 9, NextFrom: 3, LastTime: 3}, true)[3:])
	for _, old := range goldenWALEvents[8:] { // one event a payload, as builds before runs wrote it
		payload, _ := hex.DecodeString(old)
		f.Add(payload)
	}
	f.Add(encodeRun(historygraph.EventList{recs[0].Event, recs[1].Event}, "b1"))
	f.Add(append(encodeRun(nil, "b1")[:5], 0xff, 0xff, 0xff, 0x7f)) // a run that declares 2^28 events and carries none
	for _, c := range lzwCases() {
		f.Add(c.payload)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		header := encodeReplicate(replicateResponse{}, false)[:2] // magic, version
		for _, kind := range []byte{kindReplicate, kindReplicateSlots} {
			body := append(append([]byte{}, header...), append([]byte{kind}, data...)...)
			allocatedWithin(t, body, func() { _, _ = decodeReplicate(body) })
		}
		allocatedWithin(t, data, func() { _, _, _ = decodeRun(data) })

		want := replicateResponse{Records: (&fuzzSource{b: data}).records(), LastSeq: uint64(len(data))}
		for _, filtered := range []bool{false, true} {
			if filtered {
				want.NextFrom, want.LastTime = want.LastSeq+1, -int64(len(data))
			}
			got, err := decodeReplicate(encodeReplicate(want, filtered))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("filtered=%v: response came back as\n%+v, went in as\n%+v", filtered, got, want)
			}
		}
		// Runs as the WAL cuts them: stretches of records sharing a batch ID,
		// each in the form encodeRun picks and in both forms it picks from.
		// A compressed form past the cap must be refused.
		for recs := want.Records; len(recs) > 0; {
			n := 1
			for n < len(recs) && recs[n].Batch == recs[0].Batch {
				n++
			}
			events := make(historygraph.EventList, n)
			for i := range events {
				events[i] = recs[i].Event
			}
			raw := rawRun(events, recs[0].Batch)
			packed := compressRun(raw[1:])
			for _, p := range [][]byte{encodeRun(events, recs[0].Batch), raw, packed} {
				back, batch, err := decodeRun(p)
				if p[0] == walLZWMarker && len(raw)-1 > maxRunInflation*len(p) {
					if err == nil {
						t.Errorf("a run inflating %d times its %d bytes read back", (len(raw)-1)/len(p), len(p))
					}
					continue
				}
				if err != nil {
					t.Fatalf("payload 0x%02x: %v", p[0], err)
				}
				if batch != recs[0].Batch || !reflect.DeepEqual(back, events) {
					t.Errorf("payload 0x%02x came back as %+v %q, went in as %+v %q", p[0], back, batch, events, recs[0].Batch)
				}
			}
			recs = recs[n:]
		}
	})
}

// TestCompressedRunRefusals: decodeRun reads a compressed run and refuses
// one whose stream is cut short or whose declared length is past the cap
// or is not what the stream inflates to; encodeRun stores a run that would
// inflate past the cap as it is.
func TestCompressedRunRefusals(t *testing.T) {
	for _, c := range lzwCases() {
		events, batch, err := decodeRun(c.payload)
		if c.ok && (err != nil || batch != "b1" || !reflect.DeepEqual(events, goldenEvents)) {
			t.Errorf("%s: read back as %+v %q (%v)", c.name, events, batch, err)
		} else if !c.ok && (err == nil || !strings.Contains(err.Error(), "compressed WAL payload")) {
			t.Errorf("%s: read back as %d events (%v), want the stream refused", c.name, len(events), err)
		}
	}
	repeated := repeatedRun()
	p := encodeRun(repeated, "")
	if events, _, err := decodeRun(p); p[0] != walRunMarker || err != nil || !reflect.DeepEqual(events, repeated) {
		t.Errorf("a run past the cap was stored behind 0x%02x and read back as %d events (%v)", p[0], len(events), err)
	}
}
