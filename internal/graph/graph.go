// Package graph defines the temporal graph data model shared by all other
// packages: node/edge identifiers, timestamped events, eventlists, and
// set-based snapshots.
//
// The model follows Section 3.1 of Khurana & Deshpande, "Efficient Snapshot
// Retrieval over Historical Graph Data" (ICDE 2013): a historical graph is a
// chronological list of atomic events; the snapshot at time t is the graph
// obtained by applying every event with timestamp <= t; events are
// bidirectional, so G(k) = G(k-1) + E and G(k-1) = G(k) - E.
package graph

// NodeID uniquely identifies a node for the lifetime of the database.
// IDs are never reassigned: a deletion followed by a re-insertion yields a
// fresh ID.
type NodeID int64

// EdgeID uniquely identifies an edge for the lifetime of the database.
type EdgeID int64

// Time is a discrete timestamp. The unit is application-defined (the
// generators in internal/datagen use seconds).
type Time int64

// MaxTime is the largest representable timestamp; it is used as the
// "still alive" end of validity intervals.
const MaxTime = Time(1<<63 - 1)

// EdgeInfo records the endpoints and direction of an edge.
type EdgeInfo struct {
	From, To NodeID
	Directed bool
}

// Attr is one attribute value of an element as a (name, value) pair: what
// an ordered walk of a graph hands out (graphpool.Sink) and the binary
// codec writes, in ascending name order, without building a map.
type Attr struct{ Name, Value string }

// Touches reports whether the edge is incident to node n.
func (e EdgeInfo) Touches(n NodeID) bool { return e.From == n || e.To == n }

// Other returns the endpoint of the edge that is not n. If the edge is a
// self-loop, it returns n itself.
func (e EdgeInfo) Other(n NodeID) NodeID {
	if e.From == n {
		return e.To
	}
	return e.From
}
