// Command dgquery retrieves historical snapshots and prints summary
// statistics (or the full element list with -v). It works against a local
// index built by dgload, or — with -remote — against a running dgserve
// instance over HTTP.
//
// Usage:
//
//	dgquery -store /path/to/index -t 12345 [-attrs "+node:all"] [-v]
//	dgquery -store /path/to/index -t 100,200,300        # multipoint
//	dgquery -store /path/to/index -interval 100:900     # interval query
//	dgquery -remote http://localhost:8086 -t 12345 [-v] # query a dgserve
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"historygraph"
	"historygraph/internal/server"
	"historygraph/internal/wire"
)

func main() {
	store := flag.String("store", "", "index path prefix (local mode)")
	remote := flag.String("remote", "", "dgserve base URL, e.g. http://localhost:8086 (remote mode)")
	ts := flag.String("t", "", "query timepoint(s), comma separated")
	interval := flag.String("interval", "", "interval query ts:te")
	attrs := flag.String("attrs", "", "attr_options string (Table 1 syntax)")
	verbose := flag.Bool("v", false, "print elements, not just counts")
	wireName := flag.String("wire", "json", `wire codec for -remote requests: "json", "binary", or "stream" (binary with chunked full-snapshot responses decoded incrementally)`)
	flag.Parse()
	if (*store == "") == (*remote == "") || (*ts == "" && *interval == "") {
		fmt.Fprintln(os.Stderr, "dgquery: exactly one of -store/-remote plus one of -t/-interval are required")
		os.Exit(2)
	}

	if *remote != "" {
		if err := runRemote(*remote, *ts, *interval, *attrs, *verbose, *wireName); err != nil {
			fmt.Fprintf(os.Stderr, "dgquery: %v\n", err)
			os.Exit(1)
		}
		return
	}

	gm, err := historygraph.Load(historygraph.Options{StorePath: *store})
	if err != nil {
		fmt.Fprintf(os.Stderr, "dgquery: %v\n", err)
		os.Exit(1)
	}
	defer gm.Close()

	if *interval != "" {
		tsv, tev, err := parseInterval(*interval)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dgquery: %v\n", err)
			os.Exit(2)
		}
		res, err := gm.GetHistGraphInterval(tsv, tev, *attrs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dgquery: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("interval [%d, %d): %d nodes, %d edges added; %d transient events\n",
			tsv, tev, res.Graph.NumNodes(), res.Graph.NumEdges(), len(res.Transients))
		gm.Release(res.Graph)
		return
	}

	times, err := parseTimes(*ts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dgquery: %v\n", err)
		os.Exit(2)
	}
	graphs, err := gm.GetHistGraphs(times, *attrs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dgquery: %v\n", err)
		os.Exit(1)
	}
	for i, h := range graphs {
		fmt.Printf("t=%d: %d nodes, %d edges\n", times[i], h.NumNodes(), h.NumEdges())
		if *verbose {
			nodes := h.Nodes()
			sort.Slice(nodes, func(a, b int) bool { return nodes[a] < nodes[b] })
			for _, n := range nodes {
				fmt.Printf("  node %d attrs=%v neighbors=%v\n", n, h.NodeAttrs(n), h.Neighbors(n))
			}
		}
	}
}

// runRemote answers the same queries through a dgserve instance.
func runRemote(base, ts, interval, attrs string, verbose bool, wireName string) error {
	c, err := server.NewClient(base).SetWire(wireName)
	if err != nil {
		return err
	}

	if interval != "" {
		tsv, tev, err := parseInterval(interval)
		if err != nil {
			return err
		}
		res, err := c.Interval(tsv, tev, attrs, false)
		if err != nil {
			return err
		}
		fmt.Printf("interval [%d, %d): %d nodes, %d edges added; %d transient events\n",
			res.Start, res.End, res.NumNodes, res.NumEdges, len(res.Transients))
		return nil
	}

	times, err := parseTimes(ts)
	if err != nil {
		return err
	}
	var snaps []wire.Snapshot
	if len(times) == 1 {
		snap, err := c.Snapshot(times[0], attrs, verbose)
		if err != nil {
			return err
		}
		snaps = []wire.Snapshot{*snap}
	} else {
		if snaps, err = c.Snapshots(times, attrs, verbose); err != nil {
			return err
		}
	}
	for _, snap := range snaps {
		extra := ""
		if snap.Cached {
			extra = " (cached)"
		}
		fmt.Printf("t=%d: %d nodes, %d edges%s\n", snap.At, snap.NumNodes, snap.NumEdges, extra)
		if verbose {
			adj := make(map[int64][]int64)
			for _, e := range snap.Edges {
				adj[e.From] = append(adj[e.From], e.To)
				if e.To != e.From {
					adj[e.To] = append(adj[e.To], e.From)
				}
			}
			for _, n := range snap.Nodes {
				fmt.Printf("  node %d attrs=%v neighbors=%v\n", n.ID, n.Attrs, adj[n.ID])
			}
		}
	}
	return nil
}

func parseTimes(s string) ([]historygraph.Time, error) {
	var times []historygraph.Time
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad timepoint %q", part)
		}
		times = append(times, historygraph.Time(v))
	}
	return times, nil
}

func parseInterval(s string) (historygraph.Time, historygraph.Time, error) {
	lo, hi, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("-interval wants ts:te")
	}
	tsv, err1 := strconv.ParseInt(lo, 10, 64)
	tev, err2 := strconv.ParseInt(hi, 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("bad interval bounds %q", s)
	}
	return historygraph.Time(tsv), historygraph.Time(tev), nil
}
