// Command amnesiaperf is the repository's serving benchmark: four
// workloads, each run as one fresh process that stands the HTTP server
// up in-process over a seeded data set and drives it over loopback from
// two keep-alive connections. An untraced run reports the end-to-end
// metrics; a traced run (-trace 1) reports the per-layer ones, measured
// purely from outside by timing calls into each layer's public
// functions. See ../README.md.
//
//	amnesiaperf -workload scan_stream -seed 1 -seconds 20 -trace 0
//	amnesiaperf -calibrate 10 -runs benchmarks/baseline/setA
//	amnesiaperf -compare benchmarks/baseline/setA /tmp/candidate
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metricDef declares one metric of BENCHMARK.json.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEndMetrics are what a user of the system sees; every workload
// reports every one of them. The six timings are at reference speed
// (see probe.go).
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},           // median of the run's full set-ups
	{"ops_per_s", "1/s", "higher"},      // completed requests per second, median of six windows
	{"op_p50_ms", "ms", "lower"},        // the workload's primary statement class
	{"op_p95_ms", "ms", "lower"},        // the same class
	{"agg_p50_ms", "ms", "lower"},       // single-row aggregates; every workload carries some
	{"cpu_ms_per_op", "ms", "lower"},    // process user+sys per completed request
	{"heap_live_mb", "MB", "lower"},     // HeapAlloc after two GCs once the timed phase and the coda are over
	{"precision_pf", "ratio", "higher"}, // mean PF(Q) over the fixed /precision probes
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: scan_stream, hot_small, ingest_forget, mixed_amnesia")
		seed      = flag.Uint64("seed", 1, "seed every input is derived from")
		seconds   = flag.Float64("seconds", defaultSeconds, "length of the timed phase")
		trace     = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics instead of the end-to-end ones")
		smoke     = flag.Bool("smoke", false, "shrink the data so a pass takes about two seconds")
		tmp       = flag.String("tmp", ".bench_build/tmp", "directory durable workloads put their data under")
		out       = flag.String("out", "benchmarks/out", "directory traces are written to")
		record    = flag.String("record", "", "also write the full run record (JSON) to this file")
		calibrate = flag.Int("calibrate", 0, "run the whole suite this many times, derive each metric's bound from the spread and write it into BENCHMARK.json")
		runs      = flag.String("runs", "benchmarks/baseline/setA", "directory -calibrate writes its run records to; further comma-separated directories of earlier sets count towards the bounds")
		compare   = flag.Bool("compare", false, "compare two directories of run records: -compare A B")
	)
	flag.Parse()
	// The reference shape: two processors for server and load generator
	// together, whatever the host has.
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(2)
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two directories of run records"))
		}
		worse, err := compareDirs(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
	case *calibrate > 0:
		if err := calibrateSuite(*calibrate, *seed, *seconds, strings.Split(*runs, ","), *tmp); err != nil {
			fatal(err)
		}
	default:
		w := findWorkload(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q (want one of: %s)", *name, workloadNames()))
		}
		//lint:ignore ctxflow amnesiaperf is a binary; main is where its root context is made.
		ctx := context.Background()
		res, err := run(ctx, runConfig{w: w, seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke,
			tmpRoot: *tmp, outDir: *out, log: os.Stdout})
		if err != nil {
			fatal(err)
		}
		printResult(res)
		if *record != "" {
			if err := writeRecord(*record, res); err != nil {
				fatal(err)
			}
		}
		printDriverLine(res)
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "amnesiaperf:", err)
	os.Exit(2)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// printResult prints every metric by name with its unit and sample
// count, then the operation and verification accounting.
func printResult(res *runResult) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	kind := "end-to-end"
	if res.Trace {
		kind = "per-layer"
	}
	fmt.Printf("%s seed=%d seconds=%g: %s metrics\n", res.Workload, res.Seed, res.Seconds, kind)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("  %-40s %14.4f %-10s n=%d", name, m.Value, m.Unit, m.Samples)
		if raw, ok := res.Raw[name]; ok {
			fmt.Printf("  (the clock read %.4f)", raw)
		}
		fmt.Println()
	}
	verdict := "passed"
	if !res.Correct {
		verdict = "FAILED"
	}
	fmt.Printf("attempted_ops=%d failed_ops=%d verify=%s (%d answers checked)\n", res.Attempted, res.Failed, verdict, res.Checks)
}

// printDriverLine prints the one-line JSON result the acceptance driver
// reads as the last line of standard output.
func printDriverLine(res *runResult) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, max(res.Attempted, 1), res.Failed, make(map[string]value)}
	for name, m := range res.Metrics {
		line.Metrics[name] = value{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(data))
}

func writeRecord(path string, res *runResult) error {
	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
