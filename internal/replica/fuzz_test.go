package replica

import (
	"encoding/hex"
	"reflect"
	"runtime"
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
// constant. The counter is the whole process's and a fuzz worker has
// goroutines of its own, so an excess has to show three times in a row.
func allocatedWithin(t *testing.T, input []byte, decode func()) {
	t.Helper()
	limit := uint64(48*len(input) + 4096)
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
		// Runs as the WAL cuts them: stretches of records sharing a batch ID.
		for recs := want.Records; len(recs) > 0; {
			n := 1
			for n < len(recs) && recs[n].Batch == recs[0].Batch {
				n++
			}
			events := make(historygraph.EventList, n)
			for i := range events {
				events[i] = recs[i].Event
			}
			back, batch, err := decodeRun(encodeRun(events, recs[0].Batch))
			if err != nil {
				t.Fatal(err)
			}
			if batch != recs[0].Batch || !reflect.DeepEqual(back, events) {
				t.Errorf("run came back as %+v %q, went in as %+v %q", back, batch, events, recs[0].Batch)
			}
			recs = recs[n:]
		}
	})
}
