// Command dgload bulk-loads an event trace (written by dggen) into a
// persistent DeltaGraph index and checkpoints it for later querying with
// dgquery.
//
// Usage:
//
//	dgload -in trace.bin -store /path/to/index [-L 4096] [-k 4]
//	       [-fn intersection] [-partitions 1]
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"historygraph"
	"historygraph/internal/delta"
)

func main() {
	in := flag.String("in", "", "input trace file (required)")
	store := flag.String("store", "", "index path prefix (required)")
	leafSize := flag.Int("L", 4096, "leaf-eventlist size")
	arity := flag.Int("k", 4, "arity")
	fn := flag.String("fn", "intersection", "differential function")
	partitions := flag.Int("partitions", 1, "horizontal partitions")
	flag.Parse()
	if *in == "" || *store == "" {
		fmt.Fprintln(os.Stderr, "dgload: -in and -store are required")
		os.Exit(2)
	}
	buf, err := os.ReadFile(*in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dgload: %v\n", err)
		os.Exit(1)
	}
	events, err := delta.DecodeEvents(nil, buf)
	if errors.Is(err, delta.ErrOldFormat) {
		fmt.Fprintf(os.Stderr, "dgload: %s was written by an earlier build's dggen, in a trace format this build no longer reads: generate it again with this build's dggen\n", *in)
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dgload: %s is not a dggen trace file: %v\n", *in, err)
		os.Exit(1)
	}
	start := time.Now()
	gm, err := historygraph.BuildFrom(events, historygraph.Options{
		LeafEventlistSize: *leafSize, Arity: *arity,
		DifferentialFunction: *fn, Partitions: *partitions,
		StorePath: *store,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "dgload: %v\n", err)
		os.Exit(1)
	}
	if err := gm.Checkpoint(); err != nil {
		fmt.Fprintf(os.Stderr, "dgload: checkpoint: %v\n", err)
		os.Exit(1)
	}
	st := gm.IndexStats()
	fmt.Printf("loaded %d events in %v: %d leaves, height %d, %.2f MB on disk\n",
		len(events), time.Since(start).Round(time.Millisecond),
		st.Leaves, st.Height, float64(st.DiskBytes)/(1<<20))
	if err := gm.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "dgload: close: %v\n", err)
		os.Exit(1)
	}
}
