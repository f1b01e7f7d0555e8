package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"historygraph"
	"historygraph/internal/graph"
	"historygraph/internal/replica"
	"historygraph/internal/server"
	"historygraph/internal/shard"
)

// A deployment is the program under test in one of its shipped shapes,
// built with the defaults dgserve runs with: leaf size 4096, arity 2,
// intersection, hot-snapshot cache 32, encoded cache 64, cleaner 1 s. The
// one departure is the coordinator's health loop, which is off (a timer,
// not a request path).
type deployment struct {
	door frontDoor
	// built is how long the bulk load of the trace took and builtEvents
	// how many events it indexed.
	built       time.Duration
	builtEvents int

	// indexed is what the first index (partition 0's, in a cluster) holds
	// besides live head batches; the traced ladder builds its own copy.
	indexed graph.EventList
	gm      *historygraph.GraphManager // the embedded workload's index; nil when served
	workers []*worker                  // dgserve processes, partition order
	coord   *shard.Coordinator
	front   *listener    // the coordinator's listener
	hc      *http.Client // the client's transport, closed with the deployment

	// restart (ingest-restart's node only) stops the process without a
	// checkpoint, the way a crash would, reopens it from its WAL alone and
	// waits until it answers ready. It reports the events replayed and the
	// time from opening the files to ready; stopping is not timed.
	restart func() (events int, d time.Duration, err error)
}

// managers lists every index in the deployment.
func (d *deployment) managers() []*historygraph.GraphManager {
	if d.gm != nil {
		return []*historygraph.GraphManager{d.gm}
	}
	out := make([]*historygraph.GraphManager, len(d.workers))
	for i, w := range d.workers {
		out[i] = w.gm
	}
	return out
}

// footprint reports the index bytes (IndexStats.DiskBytes summed over the
// deployment) and the durable bytes: the same after a checkpoint, plus
// every WAL. It checkpoints, so it is called at a quiet point.
func (d *deployment) footprint() (index, durable int64, err error) {
	for _, gm := range d.managers() {
		index += gm.IndexStats().DiskBytes
		if err := gm.Checkpoint(); err != nil {
			return 0, 0, fmt.Errorf("checkpoint: %w", err)
		}
		durable += gm.IndexStats().DiskBytes
	}
	for _, w := range d.workers {
		if w.wal != nil {
			durable += w.wal.SizeOnDisk()
		}
	}
	return index, durable, nil
}

func (d *deployment) close() {
	if d.hc != nil {
		d.hc.CloseIdleConnections()
	}
	if d.front != nil {
		d.front.close()
	}
	if d.coord != nil {
		d.coord.Close()
	}
	for _, w := range d.workers {
		w.stop()
	}
	if d.gm != nil {
		d.gm.Close()
	}
}

// newClient returns a binary-wire client for base on its own transport,
// which records spans into tr when the run is traced.
func newClient(base string, tr *tracer) (*server.Client, *http.Client) {
	var rt http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 4, IdleConnTimeout: time.Minute}
	if tr != nil {
		rt = &tracedTransport{next: rt, t: tr}
	}
	hc := &http.Client{Timeout: 60 * time.Second, Transport: rt}
	c, err := server.NewClientHTTP(base, hc).SetWire("binary")
	if err != nil {
		panic(err) // "binary" is a name the wire package defines
	}
	return c, hc
}

// listener serves a handler on a loopback port.
type listener struct {
	srv  *http.Server
	addr string
}

// listen binds addr ("" picks a free loopback port) and serves h.
func listen(addr string, h http.Handler) (*listener, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	l := &listener{srv: &http.Server{Handler: h}, addr: ln.Addr().String()}
	go l.srv.Serve(ln)
	return l, nil
}

func (l *listener) url() string { return "http://" + l.addr }

func (l *listener) close() { l.srv.Close() }

// worker is one dgserve process: an index on a FileStore, the query
// service over it, a WAL-backed replica node in front when walPath is set,
// and a loopback listener.
type worker struct {
	indexPath, walPath, selfID string

	gm   *historygraph.GraphManager
	svc  *server.Server
	wal  *replica.Log
	node *replica.Node
	l    *listener
}

// start serves an open index; addr "" picks a port.
func (w *worker) start(gm *historygraph.GraphManager, addr string) error {
	w.gm = gm
	w.svc = server.New(gm, server.Config{})
	handler := w.svc.Handler()
	if w.walPath != "" {
		wal, err := replica.OpenLog(w.walPath)
		if err != nil {
			w.stop()
			return err
		}
		w.wal = wal
		node, err := replica.NewNode(w.svc, wal, replica.Config{Role: replica.RolePrimary, SelfID: w.selfID})
		if err != nil {
			w.stop()
			return err
		}
		w.node = node
		handler = node.Handler()
	}
	l, err := listen(addr, handler)
	if err != nil {
		w.stop()
		return err
	}
	w.l = l
	return nil
}

// stop shuts the process down in dgserve's order, without a checkpoint. It
// is safe on a partly started or already stopped worker.
func (w *worker) stop() error {
	var err error
	if w.l != nil {
		w.l.close()
	}
	if w.node != nil {
		w.node.Close()
	}
	if w.svc != nil {
		w.svc.Close()
	}
	if w.wal != nil {
		err = w.wal.Close()
	}
	if w.gm != nil {
		if cerr := w.gm.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	w.l, w.node, w.svc, w.wal, w.gm = nil, nil, nil, nil, nil
	return err
}

// reopen restarts a stopped worker on its old address, trusting only the
// WAL: the index file is removed, the index starts empty and the whole log
// replays into it. It returns the time from opening the files to a 200 from
// /readyz.
func (w *worker) reopen(addr string) (time.Duration, error) {
	if err := os.Remove(w.indexPath); err != nil && !os.IsNotExist(err) {
		return 0, err
	}
	t0 := time.Now()
	gm, err := historygraph.Open(historygraph.Options{StorePath: w.indexPath})
	if err != nil {
		return 0, err
	}
	if err := w.start(gm, addr); err != nil {
		return 0, err
	}
	c, hc := newClient(w.l.url(), nil)
	defer hc.CloseIdleConnections()
	if err := c.ReadyCtx(context.Background()); err != nil {
		return 0, fmt.Errorf("not ready after restart: %w", err)
	}
	return time.Since(t0), nil
}

// bulkBuild is historygraph.BuildFrom onto a FileStore, timed.
func bulkBuild(events graph.EventList, path string) (*historygraph.GraphManager, time.Duration, error) {
	t0 := time.Now()
	gm, err := historygraph.BuildFrom(events, historygraph.Options{StorePath: path})
	return gm, time.Since(t0), err
}

// launchEmbedded is the library in process: BuildFrom over a FileStore.
func launchEmbedded(ds *dataset, dir string, tr *tracer) (*deployment, error) {
	path := filepath.Join(dir, "index")
	gm, built, err := bulkBuild(ds.events, path)
	if err != nil {
		return nil, err
	}
	d := &deployment{door: &embeddedDoor{gm: gm, tr: tr}, built: built, builtEvents: len(ds.events), gm: gm, indexed: ds.events}
	return d, nil
}

// launchServer is one dgserve -store process: a bulk-built FileStore index
// behind server.Server on a loopback port, no WAL.
func launchServer(ds *dataset, dir string, tr *tracer) (*deployment, error) {
	w := &worker{indexPath: filepath.Join(dir, "index")}
	gm, built, err := bulkBuild(ds.events, w.indexPath)
	if err != nil {
		return nil, err
	}
	if err := w.start(gm, ""); err != nil {
		return nil, err
	}
	client, hc := newClient(w.l.url(), tr)
	return &deployment{
		door: &httpDoor{c: client}, built: built, builtEvents: len(ds.events),
		workers: []*worker{w}, hc: hc, indexed: ds.events,
	}, nil
}

// launchCluster is a 2×1 cluster laid out like loadgen.LaunchCluster's:
// each partition a WAL-backed replica.Node primary (dgserve -store
// -wal-dir), a shard.Coordinator with binary scatter legs in front. Each
// partition's slice of the trace is bulk-built, as dgload does for a
// cluster that starts from existing history; live appends then go through
// the coordinator and the WALs.
func launchCluster(ds *dataset, dir string, tr *tracer) (*deployment, error) {
	parts := make([]graph.EventList, clusterPartitions)
	for _, ev := range ds.events {
		p := graph.PartitionOfEvent(ev, clusterPartitions)
		parts[p] = append(parts[p], ev)
	}
	d := &deployment{builtEvents: len(ds.events), indexed: parts[0]}
	sets := make([][]string, clusterPartitions)
	for p := range parts {
		w := &worker{
			indexPath: filepath.Join(dir, fmt.Sprintf("p%d.index", p)),
			walPath:   filepath.Join(dir, fmt.Sprintf("p%d.wal", p)),
			selfID:    fmt.Sprintf("p%d-m0", p),
		}
		gm, built, err := bulkBuild(parts[p], w.indexPath)
		if err != nil {
			d.close()
			return nil, err
		}
		d.built += built
		if err := w.start(gm, ""); err != nil {
			d.close()
			return nil, err
		}
		d.workers = append(d.workers, w)
		sets[p] = []string{w.l.url()}
	}
	co, err := shard.NewReplicated(sets, shard.Config{Wire: "binary"})
	if err != nil {
		d.close()
		return nil, err
	}
	d.coord = co
	if d.front, err = listen("", co.Handler()); err != nil {
		d.close()
		return nil, err
	}
	client, hc := newClient(d.front.url(), tr)
	d.door, d.hc = &httpDoor{c: client}, hc
	return d, nil
}

// launchNode is one empty dgserve -store -wal-dir primary: everything it
// will hold arrives through POST /append and is logged before it is acked.
func launchNode(dir string, tr *tracer) (*deployment, error) {
	w := &worker{
		indexPath: filepath.Join(dir, "live.index"),
		walPath:   filepath.Join(dir, "live.wal"),
		selfID:    "ingest-m0",
	}
	gm, err := historygraph.Open(historygraph.Options{StorePath: w.indexPath})
	if err != nil {
		return nil, err
	}
	if err := w.start(gm, ""); err != nil {
		return nil, err
	}
	client, hc := newClient(w.l.url(), tr)
	d := &deployment{door: &httpDoor{c: client}, workers: []*worker{w}, hc: hc}
	d.restart = func() (int, time.Duration, error) {
		addr := w.l.addr
		events := int(w.wal.LastSeq())
		if err := w.stop(); err != nil {
			return 0, 0, err
		}
		dur, err := w.reopen(addr)
		return events, dur, err
	}
	return d, nil
}
