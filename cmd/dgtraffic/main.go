// Command dgtraffic is the closed-loop cluster load harness: it drives
// a scenario-declared request mix (internal/loadgen) against a running
// coordinator — or a cluster it launches itself — and reports
// per-endpoint latency quantiles, achieved-vs-target throughput, and
// error accounting cross-checked against the cluster's own /metrics.
//
// Launch a 2-partition × 2-replica cluster in-process, preload it, and
// run the smoke scenario (what CI's loadtest job does):
//
//	dgtraffic -launch 2x2 -scenario examples/loadtest/smoke.json \
//	    -out load-result.json
//
// Attach to an already-running coordinator instead (the scenario must
// then pin time_max/node_max, and chaos events are rejected — there is
// no process handle to kill):
//
//	dgtraffic -target http://localhost:8086 -scenario mix.json
//
// The -out artifact is the full loadgen.Result JSON: throughput,
// per-endpoint latency quantiles, error samples and the server
// cross-check.
//
// Validate scenario files without running anything (CI lints every
// committed scenario this way):
//
//	dgtraffic -validate examples/loadtest/*.json
//
// Exit status: 0 on a clean run, 1 when the gate trips (any non-chaos
// error, an endpoint left with an empty histogram, or a failed
// client-vs-server consistency check), 2 on usage errors.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/signal"
	"slices"
	"sort"
	"strings"
	"syscall"

	"historygraph/internal/loadgen"
)

func main() {
	scenarioPath := flag.String("scenario", "", "scenario JSON file (required)")
	target := flag.String("target", "", "attach to a running coordinator/server at this base URL")
	launch := flag.String("launch", "", `launch an in-process cluster shaped "PxR" (e.g. "2x2") instead of attaching`)
	preload := flag.Int("preload", 0, "launch mode: authors in the preloaded trace (0 picks the default, 500; edges scale 3x)")
	wire := flag.String("wire", "", "override the scenario's wire selection (json, binary, stream)")
	out := flag.String("out", "", "write the full result JSON here")
	gate := flag.Bool("gate", true, "exit 1 on non-chaos errors, empty histograms, or a failed server cross-check")
	validate := flag.Bool("validate", false, "parse and validate the scenario files given as arguments, then exit")
	flag.Parse()

	if *validate {
		if flag.NArg() == 0 {
			fmt.Fprintln(os.Stderr, "dgtraffic: -validate wants scenario files as arguments")
			os.Exit(2)
		}
		bad := false
		for _, path := range flag.Args() {
			sc, err := loadgen.LoadScenario(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dgtraffic: %v\n", err)
				bad = true
				continue
			}
			fmt.Printf("%s: ok — %s\n", path, sc)
		}
		if bad {
			os.Exit(1)
		}
		return
	}

	if *scenarioPath == "" {
		fmt.Fprintln(os.Stderr, "dgtraffic: -scenario is required")
		flag.Usage()
		os.Exit(2)
	}
	if (*target == "") == (*launch == "") {
		fmt.Fprintln(os.Stderr, "dgtraffic: exactly one of -target or -launch is required")
		os.Exit(2)
	}
	sc, err := loadgen.LoadScenario(*scenarioPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dgtraffic: %v\n", err)
		os.Exit(2)
	}
	if *wire != "" {
		sc.Wire = *wire
		if err := sc.Normalize(); err != nil {
			fmt.Fprintf(os.Stderr, "dgtraffic: %v\n", err)
			os.Exit(2)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := loadgen.Options{
		Target: *target,
		Logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	}
	if *launch != "" {
		p, r, err := parseShape(*launch)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dgtraffic: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("dgtraffic: launching a %dx%d cluster...\n", p, r)
		cluster, err := loadgen.LaunchCluster(loadgen.ClusterConfig{
			Partitions: p, Replicas: r,
			PreloadAuthors: *preload,
			Seed:           sc.Seed,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "dgtraffic: launch: %v\n", err)
			os.Exit(1)
		}
		defer cluster.Close()
		opts.Target = cluster.URL()
		opts.Chaos = cluster
		opts.TimeMax = cluster.TimeMax()
		opts.NodeMax = cluster.NodeMax()
		fmt.Printf("dgtraffic: cluster on %s, preloaded history to t=%d\n", cluster.URL(), cluster.TimeMax())
		defer func() {
			if n := cluster.Coordinator().Failovers(); n > 0 {
				fmt.Printf("dgtraffic: coordinator ran %d failover(s) during the run\n", n)
			}
		}()
	}

	res, err := loadgen.Run(ctx, sc, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dgtraffic: %v\n", err)
		os.Exit(1)
	}
	printSummary(res)

	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			fmt.Fprintf(os.Stderr, "dgtraffic: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("dgtraffic: wrote result to %s\n", *out)
	}

	if *gate {
		if err := res.GateErrors(); err != nil {
			fmt.Fprintf(os.Stderr, "dgtraffic: GATE FAILED: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("dgtraffic: gate ok (no non-chaos errors, every endpoint measured)")
	}
}

func parseShape(s string) (p, r int, err error) {
	if _, err := fmt.Sscanf(strings.ToLower(s), "%dx%d", &p, &r); err != nil {
		return 0, 0, fmt.Errorf(`-launch wants "PxR" (e.g. "2x2"), got %q`, s)
	}
	if p < 1 || r < 1 {
		return 0, 0, fmt.Errorf("-launch %q: partitions and replicas must be positive", s)
	}
	return p, r, nil
}

func printSummary(res *loadgen.Result) {
	fmt.Printf("\n%s against %s (%s, wire %s, %d clients)\n",
		res.Scenario, res.Target, res.Mode, res.Wire, res.Clients)
	if res.TargetRPS > 0 {
		fmt.Printf("throughput: %.1f rps achieved of %.1f targeted (%.1f%%) over %.1fs\n",
			res.AchievedRPS, res.TargetRPS, 100*res.AchievedRPS/res.TargetRPS, res.MeasureSeconds)
	} else {
		fmt.Printf("throughput: %.1f rps over %.1fs (unpaced)\n", res.AchievedRPS, res.MeasureSeconds)
	}
	fmt.Printf("requests: %d ok, %d errors, %d chaos-window errors, %d partial answers\n",
		res.Requests-res.Errors-res.ChaosErrors, res.Errors, res.ChaosErrors, res.Partials)
	if res.ScheduleLag > 0 {
		fmt.Printf("open-loop schedule slipped %d slots (server slower than the offered rate)\n", res.ScheduleLag)
	}
	names := make([]string, 0, len(res.Endpoints))
	for name := range res.Endpoints {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-10s %9s %8s %8s %8s %8s %8s %8s\n",
		"endpoint", "count", "mean", "p50", "p90", "p99", "p999", "max")
	for _, name := range names {
		ep := res.Endpoints[name]
		fmt.Printf("%-10s %9d %7.2fm %7.2fm %7.2fm %7.2fm %7.2fm %7.2fm\n",
			name, ep.Count, ep.MeanMs, ep.P50Ms, ep.P90Ms, ep.P99Ms, ep.P999Ms, ep.MaxMs)
	}
	for _, name := range names {
		for _, sample := range res.Endpoints[name].ErrorSamples {
			fmt.Printf("error sample (%s): %s\n", name, sample)
		}
	}
	for _, desc := range res.ChaosApplied {
		fmt.Printf("chaos applied: %s\n", desc)
	}
	if sc := res.Server; sc != nil {
		if sc.Scraped {
			state := "consistent"
			if !sc.Consistent {
				state = "INCONSISTENT"
			}
			fmt.Printf("server /metrics: %d 2xx requests vs %d client-measured (%s); server-side p50 %.2fms p99 %.2fms\n",
				sc.Requests2xx, sc.ClientMeasured, state, sc.P50Ms, sc.P99Ms)
			for _, level := range slices.Sorted(maps.Keys(sc.Caches)) {
				fmt.Printf("cache %-7s", level)
				for _, family := range slices.Sorted(maps.Keys(sc.Caches[level])) {
					fmt.Printf(" %s %d", family, sc.Caches[level][family])
				}
				fmt.Println()
			}
		} else {
			fmt.Printf("server /metrics: not scraped (%s)\n", sc.Note)
		}
	}
	fmt.Println()
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
