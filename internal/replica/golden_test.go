package replica

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"historygraph"
	"historygraph/internal/datagen"
	"historygraph/internal/kvstore"
	"historygraph/internal/wire"
)

// goldenEvents is one event of every type plus the cases a translation
// layer gets wrong: a removal (no new value), a set to the empty string,
// node 0, and values JSON has to escape.
var goldenEvents = historygraph.EventList{
	{Type: historygraph.AddNode, At: 1, Node: 7},
	{Type: historygraph.DelNode, At: 2, Node: 7},
	{Type: historygraph.AddEdge, At: 3, Edge: 3, Node: 7, Node2: 9, Directed: true},
	{Type: historygraph.DelEdge, At: 4, Edge: 3, Node: 7, Node2: 9, Directed: true},
	{Type: historygraph.SetNodeAttr, At: 5, Node: 7, Attr: "name", Old: "x", HadOld: true, New: "y<&>\u2028", HasNew: true},
	{Type: historygraph.SetEdgeAttr, At: 6, Edge: 3, Node: 7, Node2: 9, Attr: "w", New: "1", HasNew: true},
	{Type: historygraph.TransientEdge, At: 7, Edge: 5, Node: 1, Node2: 2},
	{Type: historygraph.TransientNode, At: 8, Node: 0},
	{Type: historygraph.SetNodeAttr, At: 9, Node: 7, Attr: "name", Old: "y", HadOld: true},
	{Type: historygraph.SetNodeAttr, At: 10, Node: 7, Attr: "name", Old: "y", HadOld: true, HasNew: true},
}

// The bytes below were produced by the commit before graph.Event became
// the only in-memory event, from the same events held as wire.Event.
const (
	goldenJSON          = `[{"type":"NN","at":1,"node":7},{"type":"DN","at":2,"node":7},{"type":"NE","at":3,"node":7,"node2":9,"edge":3,"directed":true},{"type":"DE","at":4,"node":7,"node2":9,"edge":3,"directed":true},{"type":"UNA","at":5,"node":7,"attr":"name","old":"x","new":"y\u003c\u0026\u003e\u2028"},{"type":"UEA","at":6,"node":7,"node2":9,"edge":3,"attr":"w","new":"1"},{"type":"TE","at":7,"node":1,"node2":2,"edge":5},{"type":"TN","at":8},{"type":"UNA","at":9,"node":7,"attr":"name","old":"y"},{"type":"UNA","at":10,"node":7,"attr":"name","old":"y","new":""}]` + "\n"
	goldenBinary        = "440106010a00024e4e020e00000000000002444e040e0000000200024e45060e1206010200024445080e120601020003554e410a0e00000600046e616d65017807793c263ee280a800035545410c0e1206040001770131000254450e02040a00020002544e10000000000206120e00000207017906140e00000607017900"
	goldenStream        = "44010e4901037461670500024e4e020e00000000000002444e040e0000000200024e45060e1206010200024445080e120601020003554e410a0e00000600046e616d65017807793c263ee280a83901000500035545410c0e1206040001770131000254450e02040a00020002544e10000000000206120e00000207017906140e00000607017900020f02" // frames "tag" (events 0-4) and "" (5-9), then the end frame
	goldenReplicate     = "4401210a0a010000024e4e020e0000000000020262310002444e040e00000002030000024e45060e120601020402623100024445080e1206010205000003554e410a0e00000600046e616d65017807793c263ee280a80602623100035545410c0e12060400017701310700000254450e02040a0002080262310002544e100000000002090006120e0000020701790a02623106140e00000607017900"
	goldenReplicateSlot = "4401220a0b140a010000024e4e020e0000000000020262310002444e040e00000002030000024e45060e120601020402623100024445080e1206010205000003554e410a0e00000600046e616d65017807793c263ee280a80602623100035545410c0e12060400017701310700000254450e02040a0002080262310002544e100000000002090006120e0000020701790a02623106140e00000607017900"
	goldenReplicateJSON = `{"records":[{"seq":1,"event":{"type":"NN","at":1,"node":7}},{"seq":2,"event":{"type":"DN","at":2,"node":7},"batch":"b1"},{"seq":3,"event":{"type":"NE","at":3,"node":7,"node2":9,"edge":3,"directed":true}},{"seq":4,"event":{"type":"DE","at":4,"node":7,"node2":9,"edge":3,"directed":true},"batch":"b1"},{"seq":5,"event":{"type":"UNA","at":5,"node":7,"attr":"name","old":"x","new":"y\u003c\u0026\u003e\u2028"}},{"seq":6,"event":{"type":"UEA","at":6,"node":7,"node2":9,"edge":3,"attr":"w","new":"1"},"batch":"b1"},{"seq":7,"event":{"type":"TE","at":7,"node":1,"node2":2,"edge":5}},{"seq":8,"event":{"type":"TN","at":8},"batch":"b1"},{"seq":9,"event":{"type":"UNA","at":9,"node":7,"attr":"name","old":"y"}},{"seq":10,"event":{"type":"UNA","at":10,"node":7,"attr":"name","old":"y","new":""},"batch":"b1"}],"last_seq":10,"next_from":11,"last_time":10}`
	goldenIntervalJSON  = `{"start":1,"end":9,"num_nodes":0,"num_edges":0,"transients":[{"type":"TE","at":7,"node":1,"node2":2,"edge":5},{"type":"TN","at":8}]}` + "\n"
	goldenIntervalBin   = "4401040212000000000102000254450e02040a0000000002544e10000000000200"
)

// goldenWALEvents is each event's WAL payload as every build before PR 25
// wrote it — one event behind the 0x00 marker; odd ones carry the batch ID
// "b1". Nothing writes these any more; they must keep reading back.
var goldenWALEvents = []string{
	"000000024e4e020e0000000000",
	"000262310002444e040e0000000000",
	"000000024e45060e1206010000",
	"0002623100024445080e1206010000",
	"00000003554e410a0e00000600046e616d65017807793c263ee280a8",
	"0002623100035545410c0e1206040001770131",
	"0000000254450e02040a000000",
	"000262310002544e10000000000000",
	"00000003554e41120e00000200046e616d650179",
	"000262310003554e41140e00000600046e616d65017900",
}

// goldenWAL is the WAL payload written now: the events as one run, untagged
// and under the batch ID "b1". In stored format 4 even a run this short
// shrinks under LZW (72 B where it is 74 as it is), so it is written behind
// the 0x02 marker.
var goldenWAL = map[string]string{
	"":   "024900011059a040010102090a28082060028532460e2028512680c58b181d00d8b87141008d06361e3c2800819b306dca08b86351001e01791638c8c3c3840f7180500988012020",
	"b1": "024b00058889416481020504082428a02080800914ca183980a044990018336a7400a063c70501381ae89830a100046ec2b42923e00e46017804e459e0200f0f133ec401422520068080",
}

// goldenWALFormat3 is the same run as builds before stored format 4 wrote
// it: behind the 0x01 marker, its events in format 3. Nothing writes these
// any more; they must keep reading back.
var goldenWALFormat3 = map[string]string{
	"":   "0100340a01010e02010013010006041401000004650100086e616d6502780e793c263ee280a846010000040277023107010b040208010125010e010279650100010b00",
	"b1": "01026231340a01010e02010013010006041401000004650100086e616d6502780e793c263ee280a846010000040277023107010b040208010125010e010279650100010b00",
}

// TestEventBytesUnchanged: every byte form an event takes outside the
// process — JSON body, binary body, append-stream frame, WAL payload,
// /replicate page in both codecs, /interval transients — is what it was
// when a separate wire struct and a converter stood between the event and
// the codec, and reads back as the event that went in. The one exception
// is the WAL payload, changed on purpose twice: a batch became one packed
// run (the per-event payloads of earlier builds are read, not written), and
// stored format 4 changed how the run's events are laid out (format 3's
// runs are read, not written).
func TestEventBytesUnchanged(t *testing.T) {
	same := func(what string, got []byte, want string) {
		t.Helper()
		if string(got) != want {
			t.Errorf("%s changed:\n got %q\nwant %q", what, got, want)
		}
	}
	unhex := func(s string) string {
		b, err := hex.DecodeString(s)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	js, err := wire.JSON{}.Encode(goldenEvents)
	if err != nil {
		t.Fatal(err)
	}
	same("JSON body", js, goldenJSON)
	bin, err := wire.Binary{}.Encode(goldenEvents)
	if err != nil {
		t.Fatal(err)
	}
	same("binary body", bin, unhex(goldenBinary))
	for name, c := range map[string]struct {
		codec wire.Codec
		body  []byte
	}{"JSON": {wire.JSON{}, js}, "binary": {wire.Binary{}, bin}} {
		var back historygraph.EventList
		if err := c.codec.Decode(c.body, &back); err != nil || !reflect.DeepEqual(back, goldenEvents) {
			t.Errorf("%s body read back as %+v (%v)", name, back, err)
		}
	}

	var stream bytes.Buffer
	enc := wire.NewAppendStreamEncoder(&stream)
	if err := enc.Events("tag", goldenEvents[:5]); err != nil {
		t.Fatal(err)
	}
	if err := enc.Events("", goldenEvents[5:]); err != nil {
		t.Fatal(err)
	}
	if err := enc.End(); err != nil {
		t.Fatal(err)
	}
	same("append stream", stream.Bytes(), unhex(goldenStream))

	recs := make([]Record, len(goldenEvents))
	for i, ev := range goldenEvents {
		recs[i] = Record{Seq: uint64(i + 1), Event: ev}
		if i%2 == 1 {
			recs[i].Batch = "b1"
		}
		if back, batch, err := decodeRun([]byte(unhex(goldenWALEvents[i]))); err != nil || len(back) != 1 || back[0] != ev || batch != recs[i].Batch {
			t.Errorf("pre-run WAL payload %d read back as %+v %q (%v)", i, back, batch, err)
		}
	}
	for batch, want := range goldenWAL {
		payload := encodeRun(goldenEvents, batch)
		same("WAL payload", payload, unhex(want))
		if back, got, err := decodeRun(payload); err != nil || !reflect.DeepEqual(back, goldenEvents) || got != batch {
			t.Errorf("WAL payload under %q read back as %+v %q (%v)", batch, back, got, err)
		}
		if back, got, err := decodeRun([]byte(unhex(goldenWALFormat3[batch]))); err != nil || !reflect.DeepEqual(back, goldenEvents) || got != batch {
			t.Errorf("format-3 WAL payload under %q read back as %+v %q (%v)", batch, back, got, err)
		}
	}
	page := replicateResponse{Records: recs, LastSeq: 10}
	same("/replicate page", encodeReplicate(page, false), unhex(goldenReplicate))
	page.NextFrom, page.LastTime = 11, 10
	same("/replicate slot page", encodeReplicate(page, true), unhex(goldenReplicateSlot))
	pj, err := json.Marshal(page)
	if err != nil {
		t.Fatal(err)
	}
	same("/replicate JSON page", pj, goldenReplicateJSON)
	var pageBack replicateResponse
	if err := json.Unmarshal(pj, &pageBack); err != nil || !reflect.DeepEqual(pageBack, page) {
		t.Errorf("/replicate JSON page read back as %+v (%v)", pageBack, err)
	}

	iv := wire.Interval{Start: 1, End: 9, Transients: goldenEvents[6:8]}
	ij, _ := wire.JSON{}.Encode(&iv)
	same("/interval JSON", ij, goldenIntervalJSON)
	ib, _ := wire.Binary{}.Encode(&iv)
	same("/interval binary", ib, unhex(goldenIntervalBin))
}

// TestGoldenWALBytes pins the WAL's footprint on the repository benchmark's
// trace (coauthChurn(1) in bench_test.go) logged in its 256-event batches,
// the log BenchmarkWALReplay builds: the file as written, the file its runs
// would make stored as they are, and how many runs were stored compressed.
// All three are exact; a change to either codec moves them. The runs of
// the trace's first 59 392 events (what ingest-restart logs) shrink 1.68 to
// 2.11 times, 1.85 in the median; the churn at its end, random deletes,
// about 1.05 times. Every run is stored compressed. In stored format 3 the
// file was 454 222 B, the raw runs 644 542 B, and four runs of the churn
// were stored as they are.
func TestGoldenWALBytes(t *testing.T) {
	base := datagen.Coauthorship(datagen.CoauthorshipConfig{Authors: 4000, Edges: 16000, Years: 20, AttrsPerNode: 10, Seed: 1})
	events := datagen.Churn(base, datagen.ChurnConfig{Adds: 10000, Dels: 10000, Seed: 2})
	dir := t.TempDir()
	wal, err := OpenLog(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	raw, err := kvstore.OpenSeqLog(filepath.Join(dir, "raw"), kvstore.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	runs, compressed, shrink := 0, 0, 0.0
	for lo := 0; lo < len(events); lo += 256 {
		run, batch := events[lo:min(lo+256, len(events))], fmt.Sprintf("batch-%d", lo)
		if _, _, err := wal.StartAppend(run, batch); err != nil {
			t.Fatal(err)
		}
		p := rawRun(run, batch)
		if _, _, err := raw.AppendRun(len(run), p); err != nil {
			t.Fatal(err)
		}
		runs++
		if c := encodeRun(run, batch); c[0] == walLZWMarker {
			compressed++
			shrink = max(shrink, float64(len(p)-1)/float64(len(c)))
		}
	}
	if err := wal.WaitDurable(uint64(len(events))); err != nil {
		t.Fatal(err)
	}
	if err := raw.Sync(); err != nil {
		t.Fatal(err)
	}
	got, want := [3]int64{wal.SizeOnDisk(), raw.SizeOnDisk(), int64(compressed)}, [3]int64{419938, 648182, 313}
	t.Logf("%d events in %d runs, %d compressed (at most %.2f times): %d B (%.3f B/event), %d B stored as they are (%.3f B/event)",
		len(events), runs, compressed, shrink, got[0], float64(got[0])/float64(len(events)), got[1], float64(got[1])/float64(len(events)))
	if got != want {
		t.Errorf("WAL bytes, raw-run bytes and compressed runs are %v, want %v", got, want)
	}
	if shrink > maxRunInflation/4 {
		t.Errorf("a run shrank %.2f times, too near the %d-times cap a real run must never reach", shrink, maxRunInflation)
	}
}

// TestEventTypeNamesOnInput: a type name is accepted in either case and
// refused when unknown, by the codec itself, in every form that carries
// one.
func TestEventTypeNamesOnInput(t *testing.T) {
	want := goldenEvents[:1]
	bin, _ := wire.Binary{}.Encode(want)
	var got historygraph.EventList
	if err := (wire.JSON{}).Decode([]byte(`[{"type":"nn","at":1,"node":7}]`), &got); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("lowercase JSON type: %+v, %v", got, err)
	}
	if err := (wire.Binary{}).Decode(bytes.Replace(bin, []byte("NN"), []byte("nn"), 1), &got); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("lowercase binary type: %+v, %v", got, err)
	}
	if err := (wire.JSON{}).Decode([]byte(`[{"type":"ZZ","at":1,"node":7}]`), &got); err == nil {
		t.Error("unknown JSON type accepted")
	}
	if err := (wire.Binary{}).Decode(bytes.Replace(bin, []byte("NN"), []byte("ZZ"), 1), &got); err == nil {
		t.Error("unknown binary type accepted")
	}
	old, _ := hex.DecodeString(goldenWALEvents[0])
	if _, _, err := decodeRun(old); err != nil {
		t.Errorf("pre-run WAL payload refused: %v", err)
	}
	if _, _, err := decodeRun(bytes.Replace(old, []byte("NN"), []byte("ZZ"), 1)); err == nil {
		t.Error("unknown type in a pre-run WAL payload accepted")
	}
	if _, _, err := decodeRun([]byte(`{"type":"NN","at":1,"node":7}`)); err == nil {
		t.Error("a JSON WAL payload, which this build no longer reads, accepted")
	}
	page := encodeReplicate(replicateResponse{Records: []Record{{Seq: 1, Event: want[0]}}, LastSeq: 1}, false)
	if _, err := decodeReplicate(bytes.Replace(page, []byte("NN"), []byte("ZZ"), 1)); err == nil {
		t.Error("unknown type in a /replicate page accepted")
	}
}
