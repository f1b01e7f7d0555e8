package wire

// Analytics-plane wire shapes: the per-partition scan parts the workers
// answer, the merged responses the coordinator (or an unsharded server)
// serves, and the PageRank superstep exchange. The superstep bodies — the
// only analytics shapes on a per-iteration hot path — get binary kinds
// (0x09–0x0b, 0x0f, 0x10); the rest ride the JSON fallback WriteWire
// provides for codec-unsupported types.
//
// Cross-partition adjacency pairs are the merge primitive: events are
// hash-routed by their From endpoint, so a pair of adjacent IDs whose
// endpoints hash to the same partition is visible only there (internal —
// counted locally), while a pair spanning two partitions may be stored at
// either or both (boundary — shipped explicitly and deduplicated by the
// coordinator). Pair lists are flattened [a0,b0,a1,b1,...] with a < b and
// pairs in ascending (a,b) order, which is what makes the delta coding
// below compact.

import (
	"encoding/binary"
	"math"
)

// Analytics message kind bytes (whole-message kinds 0x01–0x07 live in
// binary.go, the snapshot stream is 0x08, the append stream 0x0e). The
// step bodies were 0x0c and 0x0d while a share was a float; those kinds
// are retired, so a build of either format refuses the other's step
// bodies at the kind byte instead of misreading them.
const (
	kindPRPrepare    = 0x09
	kindPRPrepared   = 0x0a
	kindPRStart      = 0x0b
	kindPRStep       = 0x0f
	kindPRStepResult = 0x10
)

// DegreePart is one partition's slice of a degree-distribution scan:
// every node this partition owns with its same-partition distinct
// neighbor count, plus the cross-partition pairs whose +1s the
// coordinator applies after global deduplication. Cached reports that the
// scan's view was a view-cache hit, in ComponentsPart too.
type DegreePart struct {
	At     int64   `json:"at"`
	Nodes  []int64 `json:"nodes"`           // owned node IDs, ascending
	Counts []int64 `json:"counts"`          // parallel: internal distinct-neighbor count
	Pairs  []int64 `json:"pairs,omitempty"` // flattened cross-partition pairs
	Cached bool    `json:"cached,omitempty"`
}

// ComponentsPart is one partition's slice of a connected-components scan:
// a local union-find label per owned node (connectivity through
// same-partition pairs only) plus the cross-partition pairs the
// coordinator's global union-find stitches sets together with.
type ComponentsPart struct {
	At     int64   `json:"at"`
	Nodes  []int64 `json:"nodes"`  // owned node IDs, ascending
	Labels []int64 `json:"labels"` // parallel: local component representative
	Pairs  []int64 `json:"pairs,omitempty"`
	Cached bool    `json:"cached,omitempty"`
}

// EvolutionPart is one partition's evolution counters between two
// timepoints. Element histories are confined to their owner partition, so
// the counters sum exactly across partitions.
type EvolutionPart struct {
	T1           int64 `json:"t1"`
	T2           int64 `json:"t2"`
	NodesT1      int64 `json:"nodes_t1"`
	NodesT2      int64 `json:"nodes_t2"`
	EdgesT1      int64 `json:"edges_t1"`
	EdgesT2      int64 `json:"edges_t2"`
	NodesAdded   int64 `json:"nodes_added"`
	NodesRemoved int64 `json:"nodes_removed"`
	EdgesAdded   int64 `json:"edges_added"`
	EdgesRemoved int64 `json:"edges_removed"`
	Cached       bool  `json:"cached,omitempty"`
}

// DegreeDist answers GET /analytics/degree: the distribution of distinct-
// neighbor degrees over every node of the snapshot (zero-degree nodes
// included). Degrees/Counts is the sparse histogram, ascending by degree.
type DegreeDist struct {
	At        int64            `json:"at"`
	NumNodes  int64            `json:"num_nodes"`
	MaxDegree int64            `json:"max_degree"`
	AvgDegree float64          `json:"avg_degree"`
	Degrees   []int64          `json:"degrees,omitempty"`
	Counts    []int64          `json:"counts,omitempty"`
	Cached    bool             `json:"cached,omitempty"`
	Coalesced bool             `json:"coalesced,omitempty"`
	Partial   []PartitionError `json:"partial,omitempty"`
}

// Components answers GET /analytics/components: component count and the
// size distribution (Sizes/Counts sparse histogram, ascending by size).
// Representatives are union-find-order dependent and deliberately not
// part of the response — the canonical outputs here are what a sharded
// and an unsharded run agree on byte for byte.
type Components struct {
	At            int64            `json:"at"`
	NumNodes      int64            `json:"num_nodes"`
	NumComponents int64            `json:"num_components"`
	Largest       int64            `json:"largest,omitempty"`
	Sizes         []int64          `json:"sizes,omitempty"`
	Counts        []int64          `json:"counts,omitempty"`
	Cached        bool             `json:"cached,omitempty"`
	Coalesced     bool             `json:"coalesced,omitempty"`
	Partial       []PartitionError `json:"partial,omitempty"`
}

// Evolution answers GET /analytics/evolution: set-difference counters
// between the snapshots at t1 and t2.
type Evolution struct {
	T1           int64            `json:"t1"`
	T2           int64            `json:"t2"`
	NodesT1      int64            `json:"nodes_t1"`
	NodesT2      int64            `json:"nodes_t2"`
	EdgesT1      int64            `json:"edges_t1"`
	EdgesT2      int64            `json:"edges_t2"`
	NodesAdded   int64            `json:"nodes_added"`
	NodesRemoved int64            `json:"nodes_removed"`
	EdgesAdded   int64            `json:"edges_added"`
	EdgesRemoved int64            `json:"edges_removed"`
	Cached       bool             `json:"cached,omitempty"`
	Coalesced    bool             `json:"coalesced,omitempty"`
	Partial      []PartitionError `json:"partial,omitempty"`
}

// PageRankRequest is the POST /analytics/pagerank body. Zero Damping,
// Iterations, and TopK pick the defaults (0.85, 20, 20). Wait makes the
// coordinator block until the job finishes and answer with the result
// (an unsharded server always computes synchronously).
type PageRankRequest struct {
	T          int64   `json:"t"`
	Attrs      string  `json:"attrs,omitempty"`
	Damping    float64 `json:"damping,omitempty"`
	Iterations int     `json:"iterations,omitempty"`
	TopK       int     `json:"topk,omitempty"`
	Wait       bool    `json:"wait,omitempty"`
}

// RankEntry is one node's PageRank score.
type RankEntry struct {
	Node  int64   `json:"node"`
	Score float64 `json:"score"`
}

// PageRankResult is a finished PageRank computation: the top-K scores by
// descending score (ties broken by ascending node ID).
type PageRankResult struct {
	At         int64       `json:"at"`
	NumNodes   int64       `json:"num_nodes"`
	Damping    float64     `json:"damping"`
	Iterations int         `json:"iterations"`
	Supersteps int         `json:"supersteps,omitempty"`
	Top        []RankEntry `json:"top,omitempty"`
}

// JobStatus describes one coordinator analytics job (GET
// /analytics/jobs/{id}). State is "running", "done", or "failed"; Result
// is present once done.
type JobStatus struct {
	ID     string          `json:"id"`
	Kind   string          `json:"kind"`
	State  string          `json:"state"`
	Error  string          `json:"error,omitempty"`
	Result *PageRankResult `json:"result,omitempty"`
}

// PRPrepare opens a PageRank job on one partition worker: pin the
// snapshot, report the owned vertex count and the cross-partition pairs.
type PRPrepare struct {
	Job     string  `json:"job"`
	T       int64   `json:"t"`
	Attrs   string  `json:"attrs,omitempty"`
	Parts   int     `json:"parts"`
	Self    int     `json:"self"`
	Damping float64 `json:"damping"`
}

// PRPrepared answers PRPrepare.
type PRPrepared struct {
	Job   string  `json:"job"`
	Nodes int64   `json:"nodes"`
	Pairs []int64 `json:"pairs,omitempty"`
}

// PRStart finishes job setup once the coordinator has gathered every
// partition's pairs: the global vertex count and the ghost pairs (cross-
// partition adjacency discovered on other partitions) this worker folds
// into its vertices' neighbor lists.
type PRStart struct {
	Job    string  `json:"job"`
	N      int64   `json:"n"`
	Ghosts []int64 `json:"ghosts,omitempty"`
}

// PRMessage carries one frontier share: Share, in fixed-point units of
// 2^-62, is added into Node's accumulating next-round rank on the
// partition that owns Node.
type PRMessage struct {
	Node  int64 `json:"node"`
	Share int64 `json:"share"`
}

// PRStepRequest drives one worker superstep. Finalize closes the pending
// round first (fold Inbox into the local accumulator and commit ranks);
// Compute then scatters shares from the committed ranks, returning the
// cross-partition ones. The last step sets Compute false and TopK to
// collect the partition's result and release the job.
type PRStepRequest struct {
	Job      string      `json:"job"`
	Finalize bool        `json:"finalize,omitempty"`
	Compute  bool        `json:"compute,omitempty"`
	TopK     int         `json:"topk,omitempty"`
	Inbox    []PRMessage `json:"inbox,omitempty"`
}

// PRStepResult answers PRStepRequest: outgoing cross-partition shares
// (aggregated per target node, ascending by node) while computing, or the
// partition's top-K and vertex count on the collecting step.
type PRStepResult struct {
	Out      []PRMessage `json:"out,omitempty"`
	NumNodes int64       `json:"num_nodes,omitempty"`
	Top      []RankEntry `json:"top,omitempty"`
}

// --- binary bodies ----------------------------------------------------

// Floats (damping, scores) are fixed 8-byte little-endian IEEE 754: they
// use the whole mantissa, so varint coding would only add length bytes.

func encodeFloat(e *Encoder, f float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
	e.Raw(b[:])
}

func decodeFloat(d *Decoder) float64 {
	var b [8]byte
	for i := range b {
		b[i] = d.Byte()
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
}

// encodePairs writes a flattened ascending pair list: a's delta-coded
// across pairs, b's delta-coded against their own a.
func encodePairs(e *Encoder, pairs []int64) {
	encodeList(e, len(pairs)/2, pairs == nil, func(i int) {
		prev := int64(0)
		if i > 0 {
			prev = pairs[2*(i-1)]
		}
		e.Varint(pairs[2*i] - prev)
		e.Varint(pairs[2*i+1] - pairs[2*i])
	})
}

func decodePairs(d *Decoder) []int64 {
	n, present := decodeList(d)
	if !present {
		return nil
	}
	out := make([]int64, 0, 2*n)
	prev := int64(0)
	for i := 0; i < n && d.Err() == nil; i++ {
		prev += d.Varint()
		out = append(out, prev, prev+d.Varint())
	}
	return out
}

// encodeMsgs writes a share list (ascending by node, so delta-coded; a
// share is a varint).
func encodeMsgs(e *Encoder, msgs []PRMessage) {
	prev := int64(0)
	encodeList(e, len(msgs), msgs == nil, func(i int) {
		e.Varint(msgs[i].Node - prev)
		prev = msgs[i].Node
		e.Varint(msgs[i].Share)
	})
}

func decodeMsgs(d *Decoder) []PRMessage {
	n, present := decodeList(d)
	if !present {
		return nil
	}
	out := make([]PRMessage, 0, n)
	prev := int64(0)
	for i := 0; i < n && d.Err() == nil; i++ {
		prev += d.Varint()
		out = append(out, PRMessage{Node: prev, Share: d.Varint()})
	}
	return out
}

func encodeRanks(e *Encoder, top []RankEntry) {
	encodeList(e, len(top), top == nil, func(i int) {
		e.Varint(top[i].Node)
		encodeFloat(e, top[i].Score)
	})
}

func decodeRanks(d *Decoder) []RankEntry {
	n, present := decodeList(d)
	if !present {
		return nil
	}
	out := make([]RankEntry, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		out = append(out, RankEntry{Node: d.Varint(), Score: decodeFloat(d)})
	}
	return out
}

func encodePRPrepare(e *Encoder, r *PRPrepare) {
	e.String(r.Job)
	e.Varint(r.T)
	e.String(r.Attrs)
	e.Varint(int64(r.Parts))
	e.Varint(int64(r.Self))
	encodeFloat(e, r.Damping)
}

func decodePRPrepare(d *Decoder) PRPrepare {
	return PRPrepare{
		Job: d.String(), T: d.Varint(), Attrs: d.String(),
		Parts: int(d.Varint()), Self: int(d.Varint()), Damping: decodeFloat(d),
	}
}

func encodePRPrepared(e *Encoder, r *PRPrepared) {
	e.String(r.Job)
	e.Varint(r.Nodes)
	encodePairs(e, r.Pairs)
}

func decodePRPrepared(d *Decoder) PRPrepared {
	return PRPrepared{Job: d.String(), Nodes: d.Varint(), Pairs: decodePairs(d)}
}

func encodePRStart(e *Encoder, r *PRStart) {
	e.String(r.Job)
	e.Varint(r.N)
	encodePairs(e, r.Ghosts)
}

func decodePRStart(d *Decoder) PRStart {
	return PRStart{Job: d.String(), N: d.Varint(), Ghosts: decodePairs(d)}
}

func encodePRStep(e *Encoder, r *PRStepRequest) {
	e.String(r.Job)
	e.Bool(r.Finalize)
	e.Bool(r.Compute)
	e.Varint(int64(r.TopK))
	encodeMsgs(e, r.Inbox)
}

func decodePRStep(d *Decoder) PRStepRequest {
	return PRStepRequest{
		Job: d.String(), Finalize: d.Bool(), Compute: d.Bool(),
		TopK: int(d.Varint()), Inbox: decodeMsgs(d),
	}
}

func encodePRStepResult(e *Encoder, r *PRStepResult) {
	encodeMsgs(e, r.Out)
	e.Varint(r.NumNodes)
	encodeRanks(e, r.Top)
}

func decodePRStepResult(d *Decoder) PRStepResult {
	return PRStepResult{Out: decodeMsgs(d), NumNodes: d.Varint(), Top: decodeRanks(d)}
}
