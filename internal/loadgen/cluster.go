package loadgen

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"historygraph"
	"historygraph/internal/datagen"
	"historygraph/internal/replica"
	"historygraph/internal/server"
	"historygraph/internal/shard"
)

// ClusterConfig sizes the in-process cluster cmd/dgtraffic launches
// when not attaching to an external deployment. Zero values take the
// documented defaults.
//
// The rest of the shape is fixed: with Replicas > 1 each primary acks an
// append once one follower durably logged it, the WALs live in a temp dir
// removed on Close, and the coordinator health-checks its replicas every
// clusterHealthInterval.
type ClusterConfig struct {
	// Partitions × Replicas is the cluster shape (default 2×2).
	Partitions int
	Replicas   int
	// PreloadAuthors sizes the datagen.Coauthorship trace appended through
	// the coordinator before the run (default 500, with three times as
	// many edges over 5 years); Seed drives it. The preload teaches the
	// harness the TimeMax/NodeMax read domains.
	PreloadAuthors int
	Seed           int64
}

// clusterHealthInterval is the coordinator's replica health-check period:
// fast enough that a killed replica is routed around within the chaos
// grace window.
const clusterHealthInterval = 250 * time.Millisecond

// clusterWorker is one replica-set member plus its chaos controls.
type clusterWorker struct {
	gm      *historygraph.GraphManager
	svc     *server.Server
	wal     *replica.Log
	node    *replica.Node
	httpSrv *http.Server
	gate    *slowGate
	url     string

	mu    sync.Mutex
	alive bool
}

// slowGate injects a per-partition response delay — the
// "slow_partition" chaos action. It wraps the worker's whole handler so
// scatter legs, replication tails and health checks all feel the delay,
// like a saturated disk or an overloaded peer would.
type slowGate struct {
	inner http.Handler
	delay atomic.Int64 // nanoseconds
}

func (g *slowGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if d := g.delay.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	g.inner.ServeHTTP(w, r)
}

// Cluster is a harness-launched P×R cluster: WAL-backed worker replica
// sets under a shard coordinator, all in-process on localhost. It
// implements Chaos.
type Cluster struct {
	cfg     ClusterConfig
	co      *shard.Coordinator
	front   *http.Server
	url     string
	workers [][]*clusterWorker // [partition][member]; member 0 = initial primary
	dir     string             // temp dir holding the worker WALs, removed on Close
	timers  []*time.Timer
	timeMax int64
	nodeMax int64

	mu     sync.Mutex
	closed bool
}

func (cfg *ClusterConfig) normalize() {
	if cfg.Partitions <= 0 {
		cfg.Partitions = 2
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}
	if cfg.PreloadAuthors == 0 {
		cfg.PreloadAuthors = 500
	}
}

// LaunchCluster boots the cluster and preloads it. Callers must Close.
func LaunchCluster(cfg ClusterConfig) (*Cluster, error) {
	cfg.normalize()
	dir, err := os.MkdirTemp("", "dgtraffic")
	if err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg, dir: dir}
	fail := func(err error) (*Cluster, error) {
		c.Close()
		return nil, err
	}

	sets := make([][]string, cfg.Partitions)
	c.workers = make([][]*clusterWorker, cfg.Partitions)
	for p := 0; p < cfg.Partitions; p++ {
		set, err := c.startSet(p)
		if err != nil {
			return fail(err)
		}
		c.workers[p], sets[p] = set, urls(set)
	}

	co, err := shard.NewReplicated(sets, shard.Config{
		PartitionTimeout: 5 * time.Second,
		HealthInterval:   clusterHealthInterval,
	})
	if err != nil {
		return fail(err)
	}
	c.co = co

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	c.front = &http.Server{Handler: co.Handler()}
	c.url = "http://" + ln.Addr().String()
	go c.front.Serve(ln)

	// Preload through the coordinator so every event lands on its hash
	// partition and is durably logged + replicated, exactly like
	// production ingest.
	events := datagen.Coauthorship(datagen.CoauthorshipConfig{
		Authors: cfg.PreloadAuthors, Edges: 3 * cfg.PreloadAuthors,
		Years: 5, AttrsPerNode: 2, Seed: cfg.Seed,
	})
	res, err := server.NewClient(c.url).Append(events)
	if err != nil {
		return fail(fmt.Errorf("preload: %w", err))
	}
	if len(res.Partial) > 0 {
		return fail(fmt.Errorf("preload landed partially: %+v", res.Partial))
	}
	c.timeMax = res.LastTime
	c.nodeMax = int64(cfg.PreloadAuthors)
	return c, nil
}

// startSet starts partition p's replica set in provisioning order: member
// 0 the primary, acking once one follower logged a batch when there are
// followers, the rest tailing it. On failure it stops what it started.
func (c *Cluster) startSet(p int) ([]*clusterWorker, error) {
	var set []*clusterWorker
	for m := 0; m < c.cfg.Replicas; m++ {
		rcfg := replica.Config{SelfID: fmt.Sprintf("p%d-m%d", p, m)}
		if m == 0 {
			rcfg.Role = replica.RolePrimary
			if c.cfg.Replicas > 1 {
				rcfg.SyncFollowers = 1
			}
		} else {
			rcfg.Role = replica.RoleFollower
			rcfg.PrimaryURL = set[0].url
		}
		w, err := startClusterWorker(filepath.Join(c.dir, fmt.Sprintf("p%d-m%d.wal", p, m)), rcfg)
		if err != nil {
			for _, w := range set {
				w.stop()
			}
			return nil, err
		}
		set = append(set, w)
	}
	return set, nil
}

// urls lists a set's base URLs, member 0 first.
func urls(set []*clusterWorker) []string {
	out := make([]string, len(set))
	for i, w := range set {
		out[i] = w.url
	}
	return out
}

func startClusterWorker(walPath string, rcfg replica.Config) (*clusterWorker, error) {
	gm, err := historygraph.Open(historygraph.Options{LeafEventlistSize: 512})
	if err != nil {
		return nil, err
	}
	svc := server.New(gm, server.Config{})
	wal, err := replica.OpenLog(walPath)
	if err != nil {
		svc.Close()
		gm.Close()
		return nil, err
	}
	node, err := replica.NewNode(svc, wal, rcfg)
	if err != nil {
		wal.Close()
		svc.Close()
		gm.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		node.Close()
		wal.Close()
		svc.Close()
		gm.Close()
		return nil, err
	}
	gate := &slowGate{inner: node.Handler()}
	w := &clusterWorker{
		gm: gm, svc: svc, wal: wal, node: node,
		gate:    gate,
		httpSrv: &http.Server{Handler: gate},
		url:     "http://" + ln.Addr().String(),
		alive:   true,
	}
	go w.httpSrv.Serve(ln)
	return w, nil
}

func (w *clusterWorker) stop() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.alive {
		return
	}
	w.alive = false
	w.httpSrv.Close()
	w.node.Close()
	w.svc.Close()
	w.wal.Close()
	w.gm.Close()
}

// URL is the coordinator's base URL.
func (c *Cluster) URL() string { return c.url }

// TimeMax is the last preloaded event time (the read-timepoint domain).
func (c *Cluster) TimeMax() int64 { return c.timeMax }

// NodeMax is the largest preloaded node ID (the /neighbors domain).
func (c *Cluster) NodeMax() int64 { return c.nodeMax }

// Coordinator exposes the underlying coordinator (failover counters,
// member listings) for reporting.
func (c *Cluster) Coordinator() *shard.Coordinator { return c.co }

// set returns launch-order worker set p under the lock (nil when out of
// range). A reshard appends sets, so indices refer to provisioning
// order, not the coordinator's live partition numbering (a merge
// renumbers the survivors).
func (c *Cluster) set(p int) ([]*clusterWorker, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p < 0 || p >= len(c.workers) {
		return nil, len(c.workers)
	}
	return c.workers[p], len(c.workers)
}

// KillReplica implements Chaos: stop partition p's member m for good.
func (c *Cluster) KillReplica(p, m int) error {
	set, n := c.set(p)
	if set == nil || m < 0 || m >= len(set) {
		return fmt.Errorf("no replica p%d m%d in a %dx%d cluster", p, m, n, c.cfg.Replicas)
	}
	set[m].stop()
	return nil
}

// SlowPartition implements Chaos: inject delay before every response
// from partition p's members for dur (0 = until Close).
func (c *Cluster) SlowPartition(p int, delay, dur time.Duration) error {
	set, n := c.set(p)
	if set == nil {
		return fmt.Errorf("no partition %d in a %d-partition cluster", p, n)
	}
	for _, w := range set {
		w.gate.delay.Store(int64(delay))
	}
	if dur > 0 {
		c.mu.Lock()
		if !c.closed {
			c.timers = append(c.timers, time.AfterFunc(dur, func() {
				for _, w := range set {
					w.gate.delay.Store(0)
				}
			}))
		}
		c.mu.Unlock()
	}
	return nil
}

// reshardBound caps one chaos-driven reshard end to end (provisioning,
// bulk copy, cutover). Generous against the scenario clock on purpose:
// a reshard that overruns surfaces as a chaos-desc error, not a hang.
const reshardBound = 2 * time.Minute

// Reshard implements Chaos: provision a fresh replica set sized like the
// launch sets and run one live split or merge through the coordinator —
// exactly what an operator driving POST /admin/reshard does, except the
// target capacity comes from the harness instead of a fleet. The new
// set is owned by the cluster (Close tears it down); after a merge the
// retired sets keep running fenced, like real decommissioning would
// leave them until reclaimed.
func (c *Cluster) Reshard(mode string, merge []int) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("cluster closed")
	}
	p := len(c.workers)
	c.mu.Unlock()

	set, err := c.startSet(p)
	if err != nil {
		return err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		for _, w := range set {
			w.stop()
		}
		return fmt.Errorf("cluster closed")
	}
	c.workers = append(c.workers, set)
	c.mu.Unlock()

	req := shard.ReshardRequest{Target: urls(set)}
	if mode == "merge" {
		req.Merge = merge
	}
	ctx, cancel := context.WithTimeout(context.Background(), reshardBound)
	defer cancel()
	_, _, err = c.co.Reshard(ctx, req)
	return err
}

// WorkerCheck is one launched worker's own /metrics after a run, which
// the coordinator's scrape cannot show: Caches has ServerCheck.Caches'
// shape, and Analytics holds dg_analytics_duration_seconds by kind, then
// "count" and "sum_us" (its sum in microseconds).
type WorkerCheck struct {
	Worker    string                      `json:"worker"` // "p<partition>-m<member>", launch order
	Caches    map[string]map[string]int64 `json:"caches,omitempty"`
	Analytics map[string]map[string]int64 `json:"analytics,omitempty"`
	Note      string                      `json:"note,omitempty"`
}

// ScrapeWorkers reads every launched worker's /metrics, for
// Result.Workers after a run (warmup included). A killed worker keeps
// only a note.
func (c *Cluster) ScrapeWorkers(ctx context.Context) []WorkerCheck {
	c.mu.Lock()
	sets := c.workers
	c.mu.Unlock()
	var out []WorkerCheck
	for p, set := range sets {
		for m, w := range set {
			wc := WorkerCheck{Worker: fmt.Sprintf("p%d-m%d", p, m),
				Caches: map[string]map[string]int64{}, Analytics: map[string]map[string]int64{}}
			samples, err := scrape(ctx, http.DefaultClient, w.url)
			if err != nil {
				wc.Note = err.Error()
			}
			for _, s := range samples {
				if family, ok := strings.CutPrefix(s.Name, "dg_cache_"); ok {
					addSample(wc.Caches, s.Labels["cache"], strings.TrimSuffix(family, "_total"), int64(s.Value))
				}
				switch s.Name {
				case "dg_analytics_duration_seconds_count":
					addSample(wc.Analytics, s.Labels["kind"], "count", int64(s.Value))
				case "dg_analytics_duration_seconds_sum":
					addSample(wc.Analytics, s.Labels["kind"], "sum_us", int64(s.Value*1e6))
				}
			}
			out = append(out, wc)
		}
	}
	return out
}

// Close tears the whole cluster down and removes a temp WAL dir.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	timers := c.timers
	c.mu.Unlock()
	for _, t := range timers {
		t.Stop()
	}
	if c.front != nil {
		c.front.Close()
	}
	if c.co != nil {
		c.co.Close()
	}
	for _, set := range c.workers {
		for _, w := range set {
			w.stop()
		}
	}
	os.RemoveAll(c.dir)
}
