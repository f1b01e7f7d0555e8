// Command benchmark is the repository's benchmark: four seeded, fixed-work
// workloads run against the code as shipped, every metric printed by name
// and unit, every answer checked against a naive replay of the event log.
// See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// run.sh starts the benchmark in its own directory. Indexes and WALs go
// under the checkout's .bench_build (the driver forbids writing outside the
// checkout, so not /dev/shm), the traced run's spans to out/ here.
const (
	dataDir = "../.bench_build/data"
	outDir  = "out"
)

func main() {
	cfg := config{dataDir: dataDir, outDir: outDir}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (default: all four, one after the other)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the trace and of every op list")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "scales the number of timed rounds; the default gives the 7 the sizes are set for")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
	flag.BoolVar(&cfg.smoke, "smoke", false, "1/20 dataset, one set-up, one round: checks that everything still runs; its timings mean nothing")
	repeat := flag.Int("repeat", 0, "run the whole suite N times and print the noise table")
	spec := flag.Bool("spec", false, "print BENCHMARK.json as the driver's own tables define it, and exit")
	flag.Parse()
	cfg.trace = trace != 0
	if *spec {
		os.Stdout.Write(specJSON())
		return
	}
	if err := mainErr(cfg, *repeat); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr(cfg config, repeat int) error {
	if err := os.MkdirAll(cfg.dataDir, 0o755); err != nil {
		return err
	}
	if repeat > 0 {
		return repeatSuite(cfg, repeat)
	}
	names := []string{cfg.workload}
	if cfg.workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	ok := true
	for _, name := range names {
		c := cfg
		c.workload = name
		res, err := run(c)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		printResult(res, cfg.trace)
		ok = ok && res.correct()
	}
	if !ok {
		return fmt.Errorf("operations failed; see above")
	}
	return nil
}

// printResult writes the human-readable block — the gated metrics, then the
// workload's row of ISSUE 12's matrix, then (traced) the layers — and, as
// the last line, the one JSON object the driver reads: the gated metrics of
// an untraced run, the per-layer block of a traced one.
func printResult(res *result, traced bool) {
	data, _ := filepath.Abs(res.dataDir)
	fmt.Printf("# %s: %d rounds of fixed work, one closed-loop client, GOMAXPROCS %d, data in %s, %d ops attempted, %d failed\n",
		res.workload, res.rounds, res.gomaxprocs, data, res.attempted, res.failed)
	for _, e := range res.errs {
		fmt.Printf("#   failed: %s\n", e)
	}
	if res.leaks > 0 {
		fmt.Printf("# known defect, not counted as a failure: %d structure-only read(s) near the head came back with node attributes\n", res.leaks)
	}
	line := func(name string, v float64, note string) {
		fmt.Printf("%-30s %14.4f %-5s %s\n", name, v, unitOf(name), note)
	}
	fmt.Println("# end to end, gated:")
	for _, m := range endToEnd {
		line(m.Name, res.e2e[m.Name], fmt.Sprintf("bound %.2f", m.Bound))
	}
	fmt.Printf("# end to end, not gated (median over the rounds of each round's statistic; host yardstick %.2f ms):\n", res.hostRefMS)
	for _, name := range matrix[res.workload] {
		note := fmt.Sprintf("%d samples", res.samples[name])
		if sp, ok := res.roundSpread[name]; ok {
			note += fmt.Sprintf(", spread over rounds %.3f", sp)
		}
		line(name, res.timings[name], note)
	}
	metrics := res.e2e
	if traced {
		metrics = res.layer
		fmt.Println("# per layer:")
		names := make([]string, 0, len(layerOnly))
		for _, m := range layerOnly {
			names = append(names, m.Name)
		}
		sort.Strings(names)
		for _, name := range names {
			line(name, res.layer[name], "")
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]value, len(metrics))
	for name, v := range metrics {
		out[name] = value{v, unitOf(name)}
	}
	last, _ := json.Marshal(map[string]any{
		"correct": res.correct(), "attempted": res.attempted, "failed": res.failed, "metrics": out,
	})
	fmt.Println(string(last))
}
