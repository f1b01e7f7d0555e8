// Command benchdiff turns `go test -bench` output into a JSON benchmark
// record, and merges records into one.
//
// Parse a bench run into JSON (ns/op per benchmark, GOMAXPROCS suffix
// stripped so records compare across machines):
//
//	go test -run xxx -bench 'BenchmarkServer|BenchmarkShard' -benchtime 3x . \
//	    | benchdiff parse -o BENCH_2.json
//
// Merge several records into one (CI folds the load-harness record from
// cmd/dgtraffic into the same BENCH_N.json artifact the bench job
// produces; later files win on duplicate names):
//
//	benchdiff merge -o BENCH_7.json bench-part.json load-record.json
//
// Records may tag entries with units. Unitless entries are ns/op; the
// load harness tags its throughput ("rps") and latency ("ms") entries.
//
// No command compares records: ns/op from a shared runner measures the
// runner as much as the code. BENCHMARK.json's end-to-end metrics are the
// regression check.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
)

// Record is the JSON shape of one benchmark run.
type Record struct {
	// Note describes where the record came from (informational).
	Note string `json:"note,omitempty"`
	// Benchmarks maps benchmark name (without -GOMAXPROCS suffix) to
	// its value. Duplicate names keep the fastest run.
	Benchmarks map[string]float64 `json:"benchmarks"`
	// Units maps benchmark name to its unit; absent names are "ns/op".
	Units map[string]string `json:"units,omitempty"`
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "parse":
		cmdParse(os.Args[2:])
	case "merge":
		cmdMerge(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: benchdiff parse [-o out.json] [-note text] < bench-output")
	fmt.Fprintln(os.Stderr, "       benchdiff merge -o out.json [-note text] a.json b.json ...")
	os.Exit(2)
}

// cmdMerge unions several records; later files win on duplicate names.
func cmdMerge(args []string) {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	out := fs.String("o", "", "output path (default stdout)")
	note := fs.String("note", "", "note for the merged record (default: first input's note)")
	fs.Parse(args)
	if fs.NArg() == 0 {
		usage()
	}
	merged := Record{Benchmarks: map[string]float64{}, Units: map[string]string{}}
	for _, path := range fs.Args() {
		rec := load(path)
		if merged.Note == "" {
			merged.Note = rec.Note
		}
		for name, v := range rec.Benchmarks {
			merged.Benchmarks[name] = v
			if u, ok := rec.Units[name]; ok {
				merged.Units[name] = u
			} else {
				delete(merged.Units, name)
			}
		}
	}
	if *note != "" {
		merged.Note = *note
	}
	if len(merged.Units) == 0 {
		merged.Units = nil
	}
	buf, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("benchdiff: merged %d records into %s (%d benchmarks)\n", fs.NArg(), *out, len(merged.Benchmarks))
}

// benchLine matches one `go test -bench` result line, e.g.
// "BenchmarkShardSnapshot/cached-64   3   294842 ns/op  1234 B/op".
var benchLine = regexp.MustCompile(`^(Benchmark\S*?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

func cmdParse(args []string) {
	fs := flag.NewFlagSet("parse", flag.ExitOnError)
	out := fs.String("o", "", "output path (default stdout)")
	note := fs.String("note", "", "provenance note stored in the record")
	fs.Parse(args)

	rec := Record{Note: *note, Benchmarks: map[string]float64{}}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		if prev, ok := rec.Benchmarks[m[1]]; !ok || ns < prev {
			rec.Benchmarks[m[1]] = ns
		}
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	if len(rec.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines found on stdin"))
	}
	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("benchdiff: wrote %d benchmarks to %s\n", len(rec.Benchmarks), *out)
}

func load(path string) Record {
	buf, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var rec Record
	if err := json.Unmarshal(buf, &rec); err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	if len(rec.Benchmarks) == 0 {
		fatal(fmt.Errorf("%s: no benchmarks in record", path))
	}
	return rec
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
