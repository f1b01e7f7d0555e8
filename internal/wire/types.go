// The shared data-plane structs (package overview in doc.go).
package wire

import (
	"historygraph"
	"historygraph/internal/graph"
)

// Node is one node of a snapshot response.
type Node struct {
	ID    int64             `json:"id"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Edge is one edge of a snapshot response.
type Edge struct {
	ID       int64             `json:"id"`
	From     int64             `json:"from"`
	To       int64             `json:"to"`
	Directed bool              `json:"directed,omitempty"`
	Attrs    map[string]string `json:"attrs,omitempty"`
}

// PartitionError reports one partition's failure inside a scatter-gather
// response assembled by a shard coordinator (internal/shard). Unsharded
// responses never carry these; a sharded response whose Partial list is
// non-empty is missing the named partitions' contributions. Status is the
// partition's HTTP status when it answered with one (an HTTPError), 0 for
// transport-level failures — it lets the coordinator surface a deliberate
// 4xx rejection as a client error instead of a gateway failure.
type PartitionError struct {
	Partition int    `json:"partition"`
	Error     string `json:"error"`
	Status    int    `json:"status,omitempty"`
}

// Snapshot answers snapshot, batch and expression queries. Nodes and
// Edges are populated only when the request asked for full elements.
type Snapshot struct {
	At        int64            `json:"at,omitempty"`
	NumNodes  int              `json:"num_nodes"`
	NumEdges  int              `json:"num_edges"`
	Cached    bool             `json:"cached,omitempty"`
	Coalesced bool             `json:"coalesced,omitempty"`
	Nodes     []Node           `json:"nodes,omitempty"`
	Edges     []Edge           `json:"edges,omitempty"`
	Partial   []PartitionError `json:"partial,omitempty"`
}

// Neighbors answers neighborhood queries.
type Neighbors struct {
	At        int64            `json:"at"`
	Node      int64            `json:"node"`
	Degree    int              `json:"degree"`
	Neighbors []int64          `json:"neighbors"`
	Cached    bool             `json:"cached,omitempty"`
	Partial   []PartitionError `json:"partial,omitempty"`
}

// Interval answers interval queries: the elements added in [Start, End)
// plus the transient events in that window. Events have no wire struct of
// their own: graph.Event is what every message carries, in its own JSON
// form (graph.Event.MarshalJSON) or the binary one (EncodeEventTo).
type Interval struct {
	Start      int64            `json:"start"`
	End        int64            `json:"end"`
	NumNodes   int              `json:"num_nodes"`
	NumEdges   int              `json:"num_edges"`
	Nodes      []Node           `json:"nodes,omitempty"`
	Edges      []Edge           `json:"edges,omitempty"`
	Transients graph.EventList  `json:"transients,omitempty"`
	Partial    []PartitionError `json:"partial,omitempty"`
}

// ExprRequest is the POST /expr body: a Boolean expression over the listed
// timepoints, e.g. {"times":[100,200], "expr":"0 & !1"} for "in the graph
// at t=100 but not at t=200".
type ExprRequest struct {
	Times []int64 `json:"times"`
	Expr  string  `json:"expr"`
	Attrs string  `json:"attrs,omitempty"`
	Full  bool    `json:"full,omitempty"`
}

// AppendResult answers POST /append. Seq is the WAL sequence number of the
// batch's last event when the serving node writes a durable write-ahead
// log (internal/replica); nodes without a WAL leave it zero. Deduped means
// the node recognized the request's idempotency batch ID (?batch=) from
// records it already holds and acked without appending again.
type AppendResult struct {
	Appended    int              `json:"appended"`
	LastTime    int64            `json:"last_time"`
	Invalidated int              `json:"invalidated,omitempty"`
	Seq         uint64           `json:"seq,omitempty"`
	Deduped     bool             `json:"deduped,omitempty"`
	Partial     []PartitionError `json:"partial,omitempty"`
}

// Fold adds b — one frame of a stream, or one partition's share of a
// scattered batch — into the aggregate a. Seq is left alone: a sequence
// number belongs to one node's log and means nothing summed or compared
// across partitions, so only a node folding frames of its own log carries
// it, and does so itself.
func (a *AppendResult) Fold(b AppendResult) {
	a.Appended += b.Appended
	a.Invalidated += b.Invalidated
	a.LastTime = max(a.LastTime, b.LastTime)
	// A retried batch resumes on whichever nodes already logged it;
	// surfacing the flag tells the client its retry was absorbed.
	a.Deduped = a.Deduped || b.Deduped
}

// ServerStats is the serving-layer section of /stats. The Encoded*
// fields describe the worker's encoded-bytes cache (omitted when that
// cache is disabled); Encodes counts snapshot-body encode executions —
// an encoded-bytes hit performs none.
type ServerStats struct {
	Requests        int64 `json:"requests"`
	Retrievals      int64 `json:"retrievals"`
	Coalesced       int64 `json:"coalesced"`
	CacheHits       int64 `json:"cache_hits"`
	CacheMisses     int64 `json:"cache_misses"`
	CacheEvictions  int64 `json:"cache_evictions"`
	CacheSize       int   `json:"cache_size"`
	CacheCapacity   int   `json:"cache_capacity"`
	Encodes         int64 `json:"encodes,omitempty"`
	EncodedHits     int64 `json:"encoded_hits,omitempty"`
	EncodedMisses   int64 `json:"encoded_misses,omitempty"`
	EncodedSize     int   `json:"encoded_size,omitempty"`
	EncodedCapacity int   `json:"encoded_capacity,omitempty"`
}

// Stats answers GET /stats: index shape, pool contents, and serving-layer
// counters. It is JSON-only (the binary codec serves the data plane, not
// introspection).
type Stats struct {
	Index  historygraph.IndexStats `json:"index"`
	Pool   historygraph.PoolStats  `json:"pool"`
	Server ServerStats             `json:"server"`
}

// Error is the uniform error body every endpoint writes on a non-200
// answer; it is always JSON regardless of the negotiated response codec.
type Error struct {
	Error string `json:"error"`
}
