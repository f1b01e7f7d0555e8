package delta

import (
	"testing"

	"historygraph/internal/datagen"
	"historygraph/internal/graph"
)

// BenchmarkCodec encodes and decodes what the repository benchmark's
// delta.decode_*_ms layer metrics time: the whole graph halfway through its
// seed-1 trace, as a structure and a node-attribute column; and an
// eventlist of the 4 096 events that follow. payload-B is a payload's size
// as encoded, flate-B as FileStore stores it.
func BenchmarkCodec(b *testing.B) {
	base := datagen.Coauthorship(datagen.CoauthorshipConfig{Authors: 4000, Edges: 16000, Years: 20, AttrsPerNode: 10, Seed: 1})
	events := datagen.Churn(base, datagen.ChurnConfig{Adds: 10000, Dels: 10000, Seed: 2})
	s := graph.NewSnapshot()
	s.ApplyAll(events[:len(events)/2])
	whole, list := FromSnapshot(s), events[len(events)/2:][:4096]
	for _, c := range []struct {
		name   string
		encode func() []byte
		decode func([]byte) error
	}{
		{"struct", func() []byte { return EncodeStructCol(whole) }, func(p []byte) error { return DecodeStructCol(p, &Delta{}) }},
		{"nodeattr", func() []byte { return EncodeNodeAttrCol(whole) }, func(p []byte) error { return DecodeNodeAttrCol(p, &Delta{}) }},
		{"eventlist", func() []byte { return EncodeEvents(list) }, func(p []byte) error { _, err := DecodeEvents(nil, p); return err }},
	} {
		payload := c.encode()
		sizes := func(b *testing.B) {
			b.ReportMetric(float64(len(payload)), "payload-B")
			b.ReportMetric(float64(flated(payload)), "flate-B")
		}
		b.Run(c.name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				c.encode()
			}
			sizes(b)
		})
		b.Run(c.name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if err := c.decode(payload); err != nil {
					b.Fatal(err)
				}
			}
			sizes(b)
		})
	}
}
