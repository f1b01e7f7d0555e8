// Command dgserve runs the concurrent snapshot query service: a long-lived
// Historical Graph Index process that many analysts hit over HTTP/JSON,
// with request coalescing and a hot-snapshot cache in front of the
// DeltaGraph.
//
// Serve an index previously built with dgload (read-mostly, plus live
// appends):
//
//	dgserve -addr :8086 -store /path/to/index
//
// Or start empty and ingest over the wire via POST /append:
//
//	dgserve -addr :8086 -L 4096 -k 3
//
// With -wal-dir every append is written to a durable, CRC-checked
// write-ahead log and synced before it is acked; on restart the WAL
// replays and the process resumes exactly where its log ends:
//
//	dgserve -addr :8086 -wal-dir /var/lib/dg/wal
//
// One binary also runs either role of a horizontally sharded cluster
// (internal/shard): partition workers are ordinary servers, each owning
// one hash slice of the node space, and a coordinator scatter-gathers
// across them over binary legs. With -wal-dir a worker is a replica-set
// member (internal/replica): the first URL of each "|"-separated peer group is
// the partition's initial primary, the rest are followers started with
// -primary, tailing the primary's WAL and applying events in order.
// -sync-followers 1 on the primary delays append acks until a follower
// has durably logged the batch, so promoting a follower after a primary
// failure loses no acked event — the coordinator health-checks members,
// spreads reads over in-sync replicas, and promotes the most-caught-up
// follower when a primary goes dark:
//
//	dgserve -shard worker -addr :8186 -wal-dir /d/p0a -sync-followers 1
//	dgserve -shard worker -addr :8286 -wal-dir /d/p0b -primary http://h1:8186
//	dgserve -shard worker -addr :8187 -wal-dir /d/p1a -sync-followers 1
//	dgserve -shard worker -addr :8287 -wal-dir /d/p1b -primary http://h1:8187
//	dgserve -shard coordinator -addr :8086 -replicas 2 \
//	        -peers "http://h1:8186|http://h2:8286,http://h1:8187|http://h2:8287"
//
// The order of -peers defines partition IDs: partition i must hold the
// events graph.PartitionOfEvent routes to i (appending through the
// coordinator maintains this automatically).
//
// Every flag is described in docs/OPERATIONS.md ("dgserve flag
// reference"). Bounds that no deployment sets differently are constants,
// not flags: the stream run size (wire.DefaultRunSize), the merged-stream
// delivery bound (20x -peer-timeout), the in-sync read threshold
// (shard.MaxLag) and the append pipeline's queue depth and stream window
// (replica.AppendQueue, replica.StreamWindow).
//
// Endpoints: /snapshot, /neighbors, /batch, /interval, /expr, /append,
// /stats, /healthz, /readyz, /metrics — see internal/server for
// parameters — plus, on WAL-backed workers, /replicate, /replstatus and
// /role (internal/replica). /metrics serves Prometheus text exposition on
// every role; /healthz is pure liveness while /readyz reflects readiness
// (replica catch-up state on WAL-backed nodes, member reachability on a
// coordinator).
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"historygraph"
	"historygraph/internal/replica"
	"historygraph/internal/server"
	"historygraph/internal/shard"
)

func main() {
	addr := flag.String("addr", ":8086", "listen address")
	store := flag.String("store", "", "index path prefix; loads an existing checkpoint if present, else creates")
	cacheSize := flag.Int("cache", server.DefaultCacheSize, "hot-snapshot cache capacity (0 disables); in coordinator role, the merged-response cache capacity (a body is admitted on its key's second request)")
	leafSize := flag.Int("L", 0, "leaf eventlist size (new index only)")
	arity := flag.Int("k", 0, "DeltaGraph arity (new index only)")
	partitions := flag.Int("partitions", 0, "storage partitions (new index only); in -shard coordinator mode, expected number of peer groups")
	checkpoint := flag.Bool("checkpoint", true, "checkpoint the index on shutdown when -store is set")
	role := flag.String("shard", "", `cluster role: "" or "worker" serve an index; "coordinator" scatter-gathers across -peers`)
	peers := flag.String("peers", "", `comma-separated partition peer groups (coordinator role only; order defines partition IDs, "|" separates a group's replicas, first replica is the initial primary)`)
	peerTimeout := flag.Duration("peer-timeout", shard.DefaultPartitionTimeout, "per-partition fan-out timeout (coordinator role only)")
	replicas := flag.Int("replicas", 0, "expected replicas per partition (coordinator role only; validates -peers)")
	healthInterval := flag.Duration("health-interval", 2*time.Second, "replica health-check period (coordinator role only; 0 disables)")
	cacheTTL := flag.Duration("cache-ttl", 0, "max age of a merged-response cache entry (coordinator role only; 0 keeps entries until an append through this coordinator invalidates them — set when writers can reach partition primaries directly)")
	encCache := flag.Int("enc-cache", server.DefaultEncodedCacheSize, "encoded-bytes cache capacity: fully encoded /snapshot bodies, admitted on a key's second request, served with zero re-encode on a hit (0 disables; worker/single role only; stays empty behind a coordinator with -cache > 0, whose /snapshot legs ask no-store)")
	csrCache := flag.Int("csr-cache", server.DefaultCSRCacheSize, "materialized CSR snapshot cache capacity for the /analytics scan path (0 disables; worker/single role only)")
	walDir := flag.String("wal-dir", "", "directory for the durable write-ahead event log; enables WAL durability and the replication endpoints")
	primary := flag.String("primary", "", "base URL of this replica's primary; makes the node a follower tailing that WAL (requires -wal-dir)")
	syncFollowers := flag.Int("sync-followers", 0, "followers that must durably log a batch before the primary acks the append (requires -wal-dir)")
	slowQuery := flag.Duration("slow-query", 0, "log any request slower than this with its X-Request-ID and annotations (0 disables the slow-query log)")
	readyMaxLag := flag.Uint64("ready-max-lag", 0, "WAL records a follower may trail its primary and still answer GET /readyz with 200 (requires -wal-dir; 0 requires full catch-up)")
	flag.Parse()

	switch *role {
	case "coordinator", "coord":
		runCoordinator(*addr, *peers, *partitions, *replicas, *peerTimeout, *healthInterval, *cacheSize, *cacheTTL, *slowQuery)
		return
	case "", "worker", "single":
		// An index-serving process; a worker is just a server whose
		// GraphManager holds one partition's slice of the trace.
	default:
		fmt.Fprintf(os.Stderr, "dgserve: unknown -shard role %q (want worker or coordinator)\n", *role)
		os.Exit(2)
	}
	if *walDir == "" && (*primary != "" || *syncFollowers > 0) {
		fmt.Fprintln(os.Stderr, "dgserve: -primary and -sync-followers require -wal-dir")
		os.Exit(2)
	}

	opts := historygraph.Options{
		LeafEventlistSize: *leafSize,
		Arity:             *arity,
		Partitions:        *partitions,
		StorePath:         *store,
	}
	gm, loaded, err := open(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dgserve: %v\n", err)
		os.Exit(1)
	}
	defer gm.Close()
	if loaded {
		fmt.Printf("dgserve: loaded index from %s (%d leaves, last event t=%d)\n",
			*store, gm.IndexStats().Leaves, gm.LastTime())
	} else {
		fmt.Println("dgserve: starting with an empty index (ingest via POST /append)")
	}

	svc := server.New(gm, server.Config{
		CacheSize: capacity(*cacheSize), EncodedCacheSize: capacity(*encCache), CSRCacheSize: capacity(*csrCache),
		SlowQueryThreshold: *slowQuery,
	})
	defer svc.Close()

	handler := svc.Handler()
	var node *replica.Node
	var wal *replica.Log
	if *walDir != "" {
		if err := os.MkdirAll(*walDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "dgserve: %v\n", err)
			os.Exit(1)
		}
		wal, err = replica.OpenLog(filepath.Join(*walDir, "wal.log"))
		if err != nil {
			fmt.Fprintf(os.Stderr, "dgserve: %v\n", err)
			os.Exit(1)
		}
		defer wal.Close()
		// The ack identity must be unique per node across the whole
		// replica set; a bare listen address like ":8086" repeats on
		// every host, which would collapse distinct followers into one
		// ack-table entry and starve -sync-followers waits.
		selfID := *addr
		if hn, herr := os.Hostname(); herr == nil {
			selfID = hn + selfID
		}
		cfg := replica.Config{
			SyncFollowers: *syncFollowers, SelfID: selfID, ReadyMaxLag: *readyMaxLag,
			// The manager factory enables automated truncate-and-resync: a
			// follower whose WAL diverged from its primary re-seeds itself
			// instead of waiting for an operator to wipe the WAL directory.
			NewManager: func() (*historygraph.GraphManager, error) {
				return historygraph.Open(opts)
			},
		}
		if *primary != "" {
			cfg.Role = replica.RoleFollower
			cfg.PrimaryURL = *primary
		}
		node, err = replica.NewNode(svc, wal, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dgserve: %v\n", err)
			os.Exit(1)
		}
		defer node.Close()
		handler = node.Handler()
		fmt.Printf("dgserve: WAL at %s (%d events logged, role %s)\n",
			*walDir, wal.LastSeq(), node.Role())
	}

	httpSrv := &http.Server{Addr: *addr, Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Printf("dgserve: serving on %s (cache=%d)\n", *addr, *cacheSize)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "dgserve: %v\n", err)
		os.Exit(1)
	case sig := <-sigc:
		fmt.Printf("dgserve: %v, shutting down\n", sig)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	httpSrv.Shutdown(ctx)
	if node != nil {
		node.Close()
	}
	svc.Close()
	if *store != "" && *checkpoint {
		if err := gm.Checkpoint(); err != nil {
			fmt.Fprintf(os.Stderr, "dgserve: checkpoint: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("dgserve: checkpointed to %s\n", *store)
	}
}

// capacity maps a cache-size flag onto its Config field: a flag spells
// "disabled" as 0, a Config as negative (its 0 picks the default).
func capacity(flagValue int) int {
	if flagValue <= 0 {
		return -1
	}
	return flagValue
}

// runCoordinator serves the scatter-gather front of a sharded cluster: no
// local index, every query fans out across the -peers partition replica
// sets and merges.
func runCoordinator(addr, peers string, expected, replicas int, timeout, healthInterval time.Duration, cacheSize int, cacheTTL time.Duration, slowQuery time.Duration) {
	// shard.New owns the peer-spec grammar ("," between partitions, "|"
	// between a partition's replicas); this just splits the flag.
	var specs []string
	for _, group := range strings.Split(peers, ",") {
		if group = strings.TrimSpace(group); group != "" {
			specs = append(specs, group)
		}
	}
	if len(specs) == 0 {
		fmt.Fprintln(os.Stderr, `dgserve: -shard coordinator requires -peers "url1|url1b,url2|url2b,..."`)
		os.Exit(2)
	}
	if expected > 0 && expected != len(specs) {
		fmt.Fprintf(os.Stderr, "dgserve: -partitions %d but %d peer groups listed\n", expected, len(specs))
		os.Exit(2)
	}
	co, err := shard.New(specs, shard.Config{
		PartitionTimeout:   timeout,
		HealthInterval:     healthInterval,
		CacheSize:          capacity(cacheSize),
		CacheTTL:           cacheTTL,
		SlowQueryThreshold: slowQuery,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "dgserve: %v\n", err)
		os.Exit(1)
	}
	defer co.Close()
	for p := 0; p < co.NumPartitions(); p++ {
		if set := co.Members(p); replicas > 0 && replicas != len(set) {
			fmt.Fprintf(os.Stderr, "dgserve: -replicas %d but partition %d lists %d members\n", replicas, p, len(set))
			os.Exit(2)
		}
	}
	httpSrv := &http.Server{Addr: addr, Handler: co.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Printf("dgserve: coordinating %d partitions on %s (peer timeout %v, health interval %v)\n",
		co.NumPartitions(), addr, timeout, healthInterval)
	for p := 0; p < co.NumPartitions(); p++ {
		set := co.Members(p)
		if len(set) == 1 {
			fmt.Printf("dgserve:   partition %d -> %s\n", p, set[0])
		} else {
			fmt.Printf("dgserve:   partition %d -> primary %s, replicas %s\n", p, set[0], strings.Join(set[1:], " "))
		}
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "dgserve: %v\n", err)
		os.Exit(1)
	case sig := <-sigc:
		fmt.Printf("dgserve: %v, shutting down\n", sig)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	httpSrv.Shutdown(ctx)
	co.Close()
}

// open loads an existing checkpoint when the store file is present,
// otherwise creates a fresh (possibly persistent) index.
func open(opts historygraph.Options) (gm *historygraph.GraphManager, loaded bool, err error) {
	if opts.StorePath != "" {
		if _, statErr := os.Stat(opts.StorePath); statErr == nil {
			gm, err = historygraph.Load(opts)
			return gm, err == nil, err
		}
		if _, statErr := os.Stat(opts.StorePath + ".p0"); statErr == nil {
			gm, err = historygraph.Load(opts)
			return gm, err == nil, err
		}
	}
	gm, err = historygraph.Open(opts)
	return gm, false, err
}
