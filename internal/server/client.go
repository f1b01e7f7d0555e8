package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"historygraph"
	"historygraph/internal/wire"
)

// Client is a small Go client for the query service — what cmd/dgquery's
// -remote mode, load drivers, and the shard coordinator's fan-out use. It
// speaks to an unsharded dgserve and to a shard coordinator transparently:
// the wire types are identical, and scatter-gather responses surface any
// failed partitions in their Partial field.
//
// The client defaults to the JSON codec. SetWire("binary") switches the
// data plane to the compact binary encoding: requests advertise it via
// Accept and encode POST bodies with it, and responses are decoded by
// whatever Content-Type the server actually answered with. For reads
// that makes mixed versions safe — a server that does not speak binary
// just answers JSON. POST bodies are different: the server must
// understand the binary Content-Type, so select binary only against
// binary-aware servers (any build containing internal/wire); in a
// rolling upgrade, flip writers to binary after every server upgraded.
type Client struct {
	base   string
	hc     *http.Client
	codec  wire.Codec
	stream bool // advertise the chunked snapshot stream on reads
}

// NewClient returns a client for a dgserve base URL such as
// "http://localhost:8086".
func NewClient(base string) *Client {
	return &Client{
		base:  strings.TrimRight(base, "/"),
		hc:    &http.Client{Timeout: 60 * time.Second},
		codec: wire.JSON{},
	}
}

// NewClientHTTP is NewClient with a caller-supplied http.Client (the shard
// coordinator shares one transport across partitions and bounds each
// request with a context instead of the client-wide timeout).
func NewClientHTTP(base string, hc *http.Client) *Client {
	return &Client{base: strings.TrimRight(base, "/"), hc: hc, codec: wire.JSON{}}
}

// BaseURL returns the server base URL the client talks to.
func (c *Client) BaseURL() string { return c.base }

// SetWire selects the wire codec by name ("json", "binary", or "stream")
// and returns the client for chaining. "stream" is the binary codec plus
// the chunked snapshot stream on reads: full /snapshot responses arrive
// as bounded element runs decoded incrementally off the socket instead
// of one whole-message body. Against a server that does not stream, the
// Accept value degrades to whole-message binary transparently (the
// stream MIME type textually contains the binary one).
func (c *Client) SetWire(name string) (*Client, error) {
	if n := strings.ToLower(strings.TrimSpace(name)); n == wire.NameBinaryStream || n == "binary-stream" {
		c.codec = wire.Binary{}
		c.stream = true
		return c, nil
	}
	codec, err := wire.ByName(name)
	if err != nil {
		return c, err
	}
	c.codec = codec
	c.stream = false
	return c, nil
}

// Wire reports the selected codec name ("stream" when the chunked
// snapshot stream is on).
func (c *Client) Wire() string {
	if c.stream {
		return wire.NameBinaryStream
	}
	return c.codec.Name()
}

// accept returns the Accept header value the selected wire mode
// advertises ("" for plain JSON).
func (c *Client) accept() string {
	if c.stream {
		return wire.ContentTypeBinaryStream
	}
	if c.codec.Name() != wire.NameJSON {
		return c.codec.ContentType()
	}
	return ""
}

func (c *Client) get(ctx context.Context, path string, q url.Values, out any) error {
	u := c.base + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	if a := c.accept(); a != "" {
		req.Header.Set("Accept", a)
	}
	forwardRequestID(ctx, req)
	forwardLeg(ctx, req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	return decodeResponse(resp, out)
}

// forwardRequestID propagates the request ID the middleware threaded
// through ctx onto an outgoing request, so a coordinator's scatter legs
// reach the workers carrying the client-visible ID.
func forwardRequestID(ctx context.Context, req *http.Request) {
	if id := RequestIDFrom(ctx); id != "" {
		req.Header.Set(RequestIDHeader, id)
	}
}

func (c *Client) post(ctx context.Context, path string, body, out any) error {
	codec := wire.Codec(c.codec)
	buf, err := codec.Encode(body)
	if err != nil {
		// The selected codec has no encoding for this body (e.g. a shape
		// the binary format does not cover): fall back to JSON.
		codec = wire.JSON{}
		if buf, err = codec.Encode(body); err != nil {
			return err
		}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(buf))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", codec.ContentType())
	if a := c.accept(); a != "" {
		req.Header.Set("Accept", a)
	}
	forwardRequestID(ctx, req)
	forwardLeg(ctx, req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	return decodeResponse(resp, out)
}

// getAs is get decoding the answer as a T; postAs likewise for post. Every
// typed endpoint method is one of the two.
func getAs[T any](c *Client, ctx context.Context, path string, q url.Values) (*T, error) {
	var out T
	if err := c.get(ctx, path, q, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

func postAs[T any](c *Client, ctx context.Context, path string, body any) (*T, error) {
	var out T
	if err := c.post(ctx, path, body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// HTTPError is a non-200 answer from the server. It preserves the status
// code so callers can tell a deliberate rejection (4xx — the server is
// healthy and said no) from a failure worth retrying or failing over on.
type HTTPError struct {
	Status int
	Msg    string // the server's error body, "" when it sent none
}

func (e *HTTPError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("server: %s (HTTP %d)", e.Msg, e.Status)
	}
	return fmt.Sprintf("server: HTTP %d", e.Status)
}

func decodeResponse(resp *http.Response, out any) error {
	defer resp.Body.Close()
	// 202 is a success: an accepted asynchronous analytics job.
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		// Error bodies are always JSON, regardless of the negotiated codec.
		var ej wire.Error
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		if json.Unmarshal(raw, &ej) == nil && ej.Error != "" {
			return &HTTPError{Status: resp.StatusCode, Msg: ej.Error}
		}
		return &HTTPError{Status: resp.StatusCode, Msg: strings.TrimSpace(string(raw))}
	}
	// Decode with whatever codec the server answered in — the negotiated
	// one for data-plane endpoints, JSON for everything else. A chunked
	// snapshot stream is decoded incrementally off the body (the client
	// never holds the encoded bytes and the assembled struct at once);
	// check for it before the prefix-matched whole-message types, whose
	// binary MIME type the stream type extends.
	ct := resp.Header.Get("Content-Type")
	if wire.IsStreamContentType(ct) {
		snap, ok := out.(*wire.Snapshot)
		if !ok {
			return fmt.Errorf("server answered a snapshot stream for a %T", out)
		}
		got, err := wire.DecodeSnapshotStream(resp.Body)
		if err != nil {
			return err
		}
		*snap = *got
		return nil
	}
	// Sized from the stated length, so that a whole body is read into one
	// allocation; a body of no stated length grows as it comes.
	buf := bytes.NewBuffer(make([]byte, 0, min(max(resp.ContentLength, 0), maxPresized)+bytes.MinRead))
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	return wire.ForContentType(ct).Decode(buf.Bytes(), out)
}

// maxPresized bounds the buffer a response's Content-Length sizes before
// the first byte is read, so that a wrong header cannot force a huge
// allocation; a longer body grows as it is read.
const maxPresized = 64 << 20

func timeQuery(ts []historygraph.Time) string {
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = strconv.FormatInt(int64(t), 10)
	}
	return strings.Join(parts, ",")
}

func snapshotQuery(t string, attrs string, full bool) url.Values {
	q := url.Values{"t": {t}}
	if attrs != "" {
		q.Set("attrs", attrs)
	}
	if full {
		q.Set("full", "1")
	}
	return q
}

// Snapshot retrieves the graph as of time t. full includes the element
// lists, not just counts.
func (c *Client) Snapshot(t historygraph.Time, attrs string, full bool) (*wire.Snapshot, error) {
	return c.SnapshotCtx(context.Background(), t, attrs, full)
}

// SnapshotCtx is Snapshot bounded by a context (the coordinator's
// per-partition timeout).
func (c *Client) SnapshotCtx(ctx context.Context, t historygraph.Time, attrs string, full bool) (*wire.Snapshot, error) {
	return getAs[wire.Snapshot](c, ctx, "/snapshot", snapshotQuery(strconv.FormatInt(int64(t), 10), attrs, full))
}

// SnapshotStream is a live full-snapshot response consumed run by run:
// the caller holds at most one element run at a time, never the whole
// snapshot. When the server answered whole-message instead (an older
// build, or a JSON worker), the decoded snapshot is replayed as one
// synthetic node run, one edge run and the summary, so consumers see one
// shape either way — the memory bound then holds only for genuinely
// streamed responses.
type SnapshotStream struct {
	body io.ReadCloser       // nil for a synthetic (whole-message) stream
	dec  *wire.StreamDecoder // nil for a synthetic stream

	synthetic []*wire.StreamFrame // a synthetic stream's frames still to replay
}

// Next returns the next frame (node run, edge run, or terminating
// summary), io.EOF after the summary, or the underlying failure — a
// truncated stream (the producer died mid-response) is an error, never a
// silent short result.
func (ss *SnapshotStream) Next() (*wire.StreamFrame, error) {
	if ss.dec != nil {
		return ss.dec.Next()
	}
	if len(ss.synthetic) == 0 {
		return nil, io.EOF
	}
	f := ss.synthetic[0]
	ss.synthetic = ss.synthetic[1:]
	return f, nil
}

// Close releases the underlying connection. Always call it — an
// abandoned body would pin the transport's connection.
func (ss *SnapshotStream) Close() error {
	if ss.body != nil {
		return ss.body.Close()
	}
	return nil
}

// SnapshotStreamCtx retrieves the full graph as of time t as a chunked
// element-run stream (the shard coordinator's scatter legs consume these
// run by run so coordinator memory stays proportional to the run size,
// not the snapshot). The request advertises the stream Accept value;
// servers that do not stream degrade to a whole-message answer, which is
// wrapped into a synthetic stream.
func (c *Client) SnapshotStreamCtx(ctx context.Context, t historygraph.Time, attrs string) (*SnapshotStream, error) {
	u := c.base + "/snapshot?" + snapshotQuery(strconv.FormatInt(int64(t), 10), attrs, true).Encode()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", wire.ContentTypeBinaryStream)
	forwardRequestID(ctx, req)
	forwardLeg(ctx, req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	ct := resp.Header.Get("Content-Type")
	if resp.StatusCode == http.StatusOK && wire.IsStreamContentType(ct) {
		dec, err := wire.NewStreamDecoder(resp.Body)
		if err != nil {
			resp.Body.Close()
			return nil, err
		}
		return &SnapshotStream{body: resp.Body, dec: dec}, nil
	}
	// Non-stream answer: reuse the whole-message decode (which also
	// surfaces non-200s as *HTTPError) and replay it synthetically.
	var snap wire.Snapshot
	if err := decodeResponse(resp, &snap); err != nil {
		return nil, err
	}
	var frames []*wire.StreamFrame
	// An empty run is no frame at all, as on the wire.
	if len(snap.Nodes) > 0 {
		frames = append(frames, &wire.StreamFrame{Nodes: snap.Nodes})
	}
	if len(snap.Edges) > 0 {
		frames = append(frames, &wire.StreamFrame{Edges: snap.Edges})
	}
	snap.Nodes, snap.Edges = nil, nil
	return &SnapshotStream{synthetic: append(frames, &wire.StreamFrame{Summary: &snap})}, nil
}

// Snapshots retrieves many timepoints in one request; the server executes
// them as a single multipoint plan.
func (c *Client) Snapshots(ts []historygraph.Time, attrs string, full bool) ([]wire.Snapshot, error) {
	return c.SnapshotsCtx(context.Background(), ts, attrs, full)
}

// SnapshotsCtx is Snapshots bounded by a context.
func (c *Client) SnapshotsCtx(ctx context.Context, ts []historygraph.Time, attrs string, full bool) ([]wire.Snapshot, error) {
	var out []wire.Snapshot
	if err := c.get(ctx, "/batch", snapshotQuery(timeQuery(ts), attrs, full), &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Neighbors retrieves a node's neighborhood as of time t.
func (c *Client) Neighbors(t historygraph.Time, node historygraph.NodeID, attrs string) (*wire.Neighbors, error) {
	return c.NeighborsCtx(context.Background(), t, node, attrs)
}

// NeighborsCtx is Neighbors bounded by a context.
func (c *Client) NeighborsCtx(ctx context.Context, t historygraph.Time, node historygraph.NodeID, attrs string) (*wire.Neighbors, error) {
	q := url.Values{
		"t":    {strconv.FormatInt(int64(t), 10)},
		"node": {strconv.FormatInt(int64(node), 10)},
	}
	if attrs != "" {
		q.Set("attrs", attrs)
	}
	return getAs[wire.Neighbors](c, ctx, "/neighbors", q)
}

// Interval retrieves the elements added during [from, to) and the
// transient events in that window.
func (c *Client) Interval(from, to historygraph.Time, attrs string, full bool) (*wire.Interval, error) {
	return c.IntervalCtx(context.Background(), from, to, attrs, full)
}

// IntervalCtx is Interval bounded by a context.
func (c *Client) IntervalCtx(ctx context.Context, from, to historygraph.Time, attrs string, full bool) (*wire.Interval, error) {
	q := spanQuery("from", "to", from, to, attrs)
	if full {
		q.Set("full", "1")
	}
	return getAs[wire.Interval](c, ctx, "/interval", q)
}

// Expr evaluates a TimeExpression query, e.g. Expr(wire.ExprRequest{Times:
// []int64{100, 200}, Expr: "0 & !1"}) for "present at 100 but gone by 200".
func (c *Client) Expr(req wire.ExprRequest) (*wire.Snapshot, error) {
	return c.ExprCtx(context.Background(), req)
}

// ExprCtx is Expr bounded by a context.
func (c *Client) ExprCtx(ctx context.Context, req wire.ExprRequest) (*wire.Snapshot, error) {
	return postAs[wire.Snapshot](c, ctx, "/expr", req)
}

// Append records a run of events against the live database.
func (c *Client) Append(events historygraph.EventList) (*wire.AppendResult, error) {
	return c.AppendCtx(context.Background(), events)
}

// AppendCtx is Append bounded by a context.
func (c *Client) AppendCtx(ctx context.Context, events historygraph.EventList) (*wire.AppendResult, error) {
	return c.AppendBatchCtx(ctx, events, "")
}

// AppendBatchCtx is AppendCtx carrying an idempotency batch ID. A
// WAL-backed replica node (internal/replica) remembers the IDs of batches
// it has durably logged — including batches mirrored from a former
// primary — so retrying the same batch after a failover or a lost
// response acks without appending twice. Servers without a WAL ignore the
// ID; an empty ID is an ordinary append.
func (c *Client) AppendBatchCtx(ctx context.Context, events historygraph.EventList, batch string) (*wire.AppendResult, error) {
	path := "/append"
	if batch != "" {
		path += "?batch=" + url.QueryEscape(batch)
	}
	if events == nil {
		events = historygraph.EventList{} // an empty append's body is a list ("[]"), not null
	}
	return postAs[wire.AppendResult](c, ctx, path, events)
}

// Stats fetches index, pool, and serving-layer statistics.
func (c *Client) Stats() (*wire.Stats, error) {
	return c.StatsCtx(context.Background())
}

// StatsCtx is Stats bounded by a context.
func (c *Client) StatsCtx(ctx context.Context) (*wire.Stats, error) {
	return getAs[wire.Stats](c, ctx, "/stats", nil)
}

// ReadyCtx checks GET /readyz; nil means the server is ready to take
// traffic (for a replica node: in sync with its primary).
func (c *Client) ReadyCtx(ctx context.Context) error {
	var out map[string]any
	return c.get(ctx, "/readyz", nil, &out)
}

// SlotsCtx fetches the worker's installed slot ownership.
func (c *Client) SlotsCtx(ctx context.Context) (*SlotsJSON, error) {
	return getAs[SlotsJSON](c, ctx, "/admin/slots", nil)
}

// SetSlotsCtx installs a slot ownership state on the worker (the
// coordinator's cutover push).
func (c *Client) SetSlotsCtx(ctx context.Context, cfg SlotsJSON) error {
	var out map[string]any
	return c.post(ctx, "/admin/slots", cfg, &out)
}
