package main

import (
	"errors"
	"fmt"

	"historygraph"
	"historygraph/internal/graph"
	"historygraph/internal/server"
	"historygraph/internal/wire"
)

// Attribute option strings of the two snapshot op classes.
const (
	attrsNone = ""
	attrsAll  = "+node:all+edge:all"
)

// frontDoor is where a workload's one closed-loop client sends its
// operations: the library facade for the embedded workload, an HTTP client
// (binary wire) for the served ones.
type frontDoor interface {
	// snapshot retrieves the full graph as of t.
	snapshot(t graph.Time, attrs string) (reply, error)
	// multipoint retrieves the graphs at all of ts in one request. A
	// served answer carries the element lists only when full is set (the
	// oracle check sets it; the timed /batch reads ask for counts, as
	// dgquery does); the library always returns whole graphs.
	multipoint(ts []graph.Time, full bool) ([]reply, error)
	// neighbors answers a point query on the graph as of t.
	neighbors(t graph.Time, n graph.NodeID) (int, error)
	// appendBatch appends events at the head and returns once they are
	// acked (applied, and on WAL-backed deployments durable).
	appendBatch(events graph.EventList) error
}

// reply is one retrieved graph in whichever form the front door returns.
type reply struct {
	snap *graph.Snapshot
	wire *wire.Snapshot
}

func (r reply) numNodes() int {
	if r.snap != nil {
		return len(r.snap.Nodes)
	}
	return r.wire.NumNodes
}

func (r reply) numEdges() int {
	if r.snap != nil {
		return len(r.snap.Edges)
	}
	return r.wire.NumEdges
}

// embeddedDoor calls the GraphManager in process; in a traced run each
// facade call is a span.
type embeddedDoor struct {
	gm *historygraph.GraphManager
	tr *tracer
}

func (d *embeddedDoor) snapshot(t graph.Time, attrs string) (reply, error) {
	id := d.tr.begin("facade.GetHistSnapshot")
	s, err := d.gm.GetHistSnapshot(t, attrs)
	d.tr.end(id)
	return reply{snap: s}, err
}

func (d *embeddedDoor) multipoint(ts []graph.Time, _ bool) ([]reply, error) {
	id := d.tr.begin("facade.GetHistSnapshots")
	ss, err := d.gm.GetHistSnapshots(ts, attrsNone)
	d.tr.end(id)
	out := make([]reply, len(ss))
	for i, s := range ss {
		out[i] = reply{snap: s}
	}
	return out, err
}

// The embedded workload reads snapshots and nothing else (see matrix in
// spec.go): the library has no neighbour query of its own, and its live
// append path is ingest-restart's business.
var errNotEmbedded = errors.New("not an operation of the embedded workload")

func (d *embeddedDoor) neighbors(graph.Time, graph.NodeID) (int, error) { return 0, errNotEmbedded }

func (d *embeddedDoor) appendBatch(graph.EventList) error { return errNotEmbedded }

// httpDoor talks to a dgserve-shaped process (single server, replica node
// or coordinator) over loopback.
type httpDoor struct {
	c *server.Client
	// appends and invalidated count the batches sent and the cached views
	// the answers said they evicted.
	appends, invalidated int
}

func (d *httpDoor) snapshot(t graph.Time, attrs string) (reply, error) {
	s, err := d.c.Snapshot(t, attrs, true)
	if err != nil {
		return reply{}, err
	}
	if len(s.Partial) > 0 {
		return reply{}, fmt.Errorf("snapshot@%d: partial answer: %+v", t, s.Partial)
	}
	return reply{wire: s}, nil
}

func (d *httpDoor) multipoint(ts []graph.Time, full bool) ([]reply, error) {
	ss, err := d.c.Snapshots(ts, attrsNone, full)
	if err != nil {
		return nil, err
	}
	out := make([]reply, len(ss))
	for i := range ss {
		if len(ss[i].Partial) > 0 {
			return nil, fmt.Errorf("batch@%d: partial answer: %+v", ts[i], ss[i].Partial)
		}
		out[i] = reply{wire: &ss[i]}
	}
	return out, nil
}

func (d *httpDoor) neighbors(t graph.Time, n graph.NodeID) (int, error) {
	nb, err := d.c.Neighbors(t, n, attrsNone)
	if err != nil {
		return 0, err
	}
	if len(nb.Partial) > 0 {
		return 0, fmt.Errorf("neighbors@%d: partial answer: %+v", t, nb.Partial)
	}
	return nb.Degree, nil
}

func (d *httpDoor) appendBatch(events graph.EventList) error {
	res, err := d.c.Append(events)
	if err != nil {
		return err
	}
	if res.Appended != len(events) || len(res.Partial) > 0 {
		return fmt.Errorf("append: %d of %d events landed, partial %+v", res.Appended, len(events), res.Partial)
	}
	d.appends++
	d.invalidated += res.Invalidated
	return nil
}
