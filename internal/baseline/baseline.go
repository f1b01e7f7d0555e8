// Package baseline implements the snapshot-retrieval approaches the paper
// compares DeltaGraph against (Sections 4.1 and 7): an in-memory interval
// tree, the Copy+Log approach, and the naive Log approach. All three agree
// exactly with the reference replay semantics, so the figure benchmarks
// can swap them freely.
package baseline

import (
	"historygraph/internal/graph"
)

// SnapshotStore is the interface every retrieval approach implements.
type SnapshotStore interface {
	// Name identifies the approach in experiment output.
	Name() string
	// Snapshot returns the graph as of time t with the requested
	// attribute information.
	Snapshot(t graph.Time, opts graph.AttrOptions) (*graph.Snapshot, error)
	// DiskBytes is the persistent footprint (0 for purely in-memory).
	DiskBytes() int64
	// MemoryBytes estimates the resident memory the approach needs to
	// answer queries.
	MemoryBytes() int64
}
