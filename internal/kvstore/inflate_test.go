package kvstore_test

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"historygraph/internal/datagen"
	"historygraph/internal/deltagraph"
	"historygraph/internal/kvstore"
)

// TestInflateFactor measures what inflateFactor is sized from: how far the
// compressed values of an index bulk-built from the repository benchmark's
// seed-1 trace inflate. At the factor every one of them must fit the first
// buffer with bytes.MinRead to spare, and at one less some must not, so that
// a change to the stored format that moves the ratios moves the factor too.
func TestInflateFactor(t *testing.T) {
	base := datagen.Coauthorship(datagen.CoauthorshipConfig{Authors: 4000, Edges: 16000, Years: 20, AttrsPerNode: 10, Seed: 1})
	events := datagen.Churn(base, datagen.ChurnConfig{Adds: 10000, Dels: 10000, Seed: 2})
	path := filepath.Join(t.TempDir(), "index")
	fs, err := kvstore.OpenFileStore(path, kvstore.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := deltagraph.Build(events, deltagraph.Options{Store: fs}); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Each record: uvarint keyLen | uvarint valLen | flags | key | val | crc.
	var ratios, needs []float64
	for b := data[len("HGKV1\n"):]; len(b) > 0; {
		keyLen, n := binary.Uvarint(b)
		valLen, m := binary.Uvarint(b[n:])
		flags, val := b[n+m], b[n+m+1+int(keyLen):][:valLen]
		b = b[n+m+1+int(keyLen)+int(valLen)+4:]
		if flags&2 == 0 {
			continue
		}
		value, err := io.ReadAll(flate.NewReader(bytes.NewReader(val)))
		if err != nil {
			t.Fatal(err)
		}
		ratios = append(ratios, float64(len(value))/float64(len(val)))
		needs = append(needs, float64(len(value)+bytes.MinRead)/float64(len(val)))
	}
	slices.Sort(ratios)
	n := len(ratios)
	t.Logf("%d compressed values inflate by %.2f to %.2f: %.2f at the median, %.2f at nine in ten", n, ratios[0], ratios[n-1], ratios[n/2], ratios[n*9/10])
	if worst := slices.Max(needs); worst > kvstore.InflateFactor || worst <= kvstore.InflateFactor-1 {
		t.Errorf("the first buffer must be %.2f times the stored length; the least whole factor past that is not inflateFactor (%d)", worst, kvstore.InflateFactor)
	}
}
