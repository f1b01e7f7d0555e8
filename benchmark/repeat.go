package main

import (
	"fmt"
	"math"
	"os"
)

// exactMetrics must read the same, to the last digit, on every run of one
// seed: they are counts of bytes and requests at a fixed point of the run,
// not timings. -repeat fails if any of them moves.
var exactMetrics = []string{
	"index_bytes_per_event", "durable_bytes_per_event",
	"deltagraph.plan_cost_bytes", "kvstore.gets_per_snapshot", "replica.wal_bytes_per_event",
}

// repeatSuite runs every workload n times untraced (alternating the order
// of the workloads from one repetition to the next, so none always runs
// on a warm or a cold machine) and twice traced, then prints the noise
// table: per workload and metric — the gated ones, then the workload's row
// of the matrix — the median, the quartiles and the spread (inter-quartile
// range over median, the driver's measure). A gated metric whose spread is
// above half its bound is flagged: it does not belong among the gated
// metrics. The ungated timings are held to the 0.10 they would be gated at,
// which is the record of why they are not.
func repeatSuite(cfg config, n int) error {
	type key struct{ workload, metric string }
	values := map[key][]float64{}
	exact := map[key][]float64{}
	failed := 0
	record := func(c config) error {
		res, err := run(c)
		if err != nil {
			return fmt.Errorf("%s: %w", c.workload, err)
		}
		failed += res.failed
		for _, metrics := range []map[string]float64{res.e2e, res.timings, res.layer} {
			for name, v := range metrics {
				if !c.trace {
					values[key{c.workload, name}] = append(values[key{c.workload, name}], v)
				}
			}
			for _, name := range exactMetrics {
				if v, ok := metrics[name]; ok {
					exact[key{c.workload, name}] = append(exact[key{c.workload, name}], v)
				}
			}
		}
		fmt.Fprintf(os.Stderr, "benchmark: %s done (trace %v), %d ops, %d failed\n", c.workload, c.trace, res.attempted, res.failed)
		return nil
	}
	for i := 0; i < n; i++ {
		for j := range workloads {
			w := workloads[j]
			if i%2 == 1 {
				w = workloads[len(workloads)-1-j]
			}
			c := cfg
			c.workload, c.trace = w.name, false
			if err := record(c); err != nil {
				return err
			}
			if i == 0 || i == n-1 {
				c.trace = true
				if err := record(c); err != nil {
					return err
				}
			}
		}
	}

	fmt.Printf("| workload | metric | unit | median | q1 | q3 | spread | bound |\n|---|---|---|---:|---:|---:|---:|---:|\n")
	noisy := 0
	row := func(w, name string, bound float64, gated bool) {
		xs := values[key{w, name}]
		q1, q3 := quartiles(xs)
		sp := spread(xs)
		flag, limit := "", fmt.Sprintf("%.2f", bound)
		if !gated {
			limit = "(" + limit + ")"
		}
		if name != "setup_s" && sp > bound/2 {
			flag = " **noisy**"
			if gated {
				noisy++
			}
		}
		fmt.Printf("| %s | %s | %s | %.4g | %.4g | %.4g | %.3f%s | %s |\n", w, name, unitOf(name), median(xs), q1, q3, sp, flag, limit)
	}
	for _, w := range workloads {
		for _, m := range endToEnd {
			row(w.name, m.Name, m.Bound, true)
		}
		for _, name := range matrix[w.name] {
			row(w.name, name, timingBound, false)
		}
	}
	moved := 0
	for k, xs := range exact {
		for _, x := range xs[1:] {
			if x != xs[0] || math.IsNaN(x) {
				fmt.Printf("NOT EXACT: %s %s read %v\n", k.workload, k.metric, xs)
				moved++
				break
			}
		}
	}
	fmt.Printf("\n%d repetitions, seed %d: %d gated metrics spread beyond half their bound, %d exact metrics moved, %d ops failed\n", n, cfg.seed, noisy, moved, failed)
	if moved > 0 || failed > 0 {
		return fmt.Errorf("%d exact metrics moved between runs of one seed, %d ops failed", moved, failed)
	}
	return nil
}
