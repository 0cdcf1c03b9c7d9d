// Command perfbench is the repository's end-to-end benchmark. One run
// measures one workload for a fixed time and prints every metric by name
// with its unit; the last line of standard output is a JSON summary:
//
//	go build -o perfbench . && ./perfbench --workload spreader-kd --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics, with --trace 1 the
// per-layer metrics, measured by timing calls into each layer's public
// functions from outside the library. --workload all runs every workload in
// turn. The process exits non-zero when any correctness check fails. See
// README.md for the workloads, the metrics and how to read the trace.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
)

// metricDef declares one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user sees; every workload reports every one.
// Times are CPU time (see cpuTime); the wall-clock latencies and
// throughputs are printed in the report, not declared.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_heap_mb", "MB"},
	{"ari_vs_exact", "ratio"},
}

// perLayer are the traced run's per-layer metrics. A layer a workload does
// not reach reports 0 for its metrics.
var perLayer = []metricDef{
	{"index.build_s", "s"},
	{"index.query_busy_s", "s"},
	{"index.count_busy_s", "s"},
	{"index.range_queries", "count"},
	{"index.range_counts", "count"},
	{"index.neighbours_per_query", "count"},
	{"index.self_s", "s"},
	{"svdd.fill_s", "s"},
	{"svdd.solve_s", "s"},
	{"svdd.finish_s", "s"},
	{"svdd.trainings", "count"},
	{"svdd.smo_iterations", "count"},
	{"svdd.self_s", "s"},
	{"core.init_s", "s"},
	{"core.expand_s", "s"},
	{"core.verify_s", "s"},
	{"core.seeds", "count"},
	{"core.support_vectors", "count"},
	{"core.merges", "count"},
	{"core.noise_list", "count"},
	{"core.degraded", "count"},
	{"core.theta_per_point", "ratio"},
	{"core.query_ratio", "ratio"},
	{"core.self_s", "s"},
	{"shard.plan_s", "s"},
	{"shard.merge_s", "s"},
	{"shard.slab_busy_s", "s"},
	{"shard.max_slab_s", "s"},
	{"shard.halo_ratio", "ratio"},
	{"shard.boundary_points", "count"},
	{"shard.cross_merges", "count"},
	{"shard.bytes_read", "B"},
	{"shard.source_s", "s"},
	{"shard.self_s", "s"},
	{"model.assign_us_per_point", "us"},
	{"model.snapshots", "count"},
	{"model.support_vectors", "count"},
	{"model.load_ms", "ms"},
	{"server.handler_p50_ms", "ms"},
	{"server.handler_p99_ms", "ms"},
	{"server.overhead_ms", "ms"},
	{"server.shed", "count"},
	{"server.deadline_exceeded", "count"},
	{"server.queue_depth_max", "count"},
	{"server.swap_ms", "ms"},
	{"client.wire_ms", "ms"},
	{"client.gen_late_ms", "ms"},
	{"trace_overhead_ratio", "ratio"},
}

// config is what every workload receives from the command line.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	workers int
}

// outcome is one workload run: the metrics it measured, the operations it
// attempted and failed, every correctness problem it found, and report
// lines that say more than the declared metrics (sample counts, per-step
// serving figures).
type outcome struct {
	metrics   map[string]float64
	attempted int
	failed    int
	problems  []string
	report    []string
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

func (o *outcome) note(format string, args ...any) {
	o.report = append(o.report, fmt.Sprintf(format, args...))
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

type workload struct {
	name string
	run  func(cfg config) (*outcome, error)
}

var workloads = []workload{
	{"spreader-kd", func(cfg config) (*outcome, error) { return runCluster(spreaderKD, cfg) }},
	{"embed-rproj", func(cfg config) (*outcome, error) { return runCluster(embedRProj, cfg) }},
	{"spreader-outofcore", func(cfg config) (*outcome, error) { return runCluster(spreaderOutOfCore, cfg) }},
	{"serve-assign", runServe},
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// summarize picks the declared metrics for the run's mode. A declared
// metric the run did not measure is 0 for per-layer metrics; for an
// end-to-end metric it is a failed run.
func summarize(o *outcome, trace bool) summary {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	s := summary{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok && !trace {
			o.fail("end-to-end metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// NaN when no operation succeeded; +Inf where failures reach
			// a quantile.
			o.fail("metric %s is %v (%d of %d operations failed)", d.name, v, o.failed, o.attempted)
			v = 0
		}
		s.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	s.Correct = len(o.problems) == 0
	return s
}

func printMetrics(name string, s summary, defs []metricDef) {
	for _, d := range defs {
		fmt.Printf("%-20s %-28s %16.6g %s\n", name, d.name, s.Metrics[d.name].Value, d.unit)
	}
}

func main() {
	if len(os.Args) == 2 && os.Args[1] == clientArg {
		if err := clientMain(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: load generator: %v\n", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "workload to run: spreader-kd|embed-rproj|spreader-outofcore|serve-assign|all")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	secs := flag.Float64("seconds", 10, "measured seconds per workload")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run, 0 the end-to-end metrics")
	flag.Parse()
	if *trace != 0 && *trace != 1 || *secs <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1 and --seconds positive")
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *secs, trace: *trace == 1, workers: runtime.NumCPU()}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}

	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}

	total := summary{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, w := range selected {
		o, err := w.run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		s := summarize(o, cfg.trace)
		for _, p := range o.problems {
			fmt.Fprintf(os.Stderr, "perfbench: %s: correctness: %s\n", w.name, p)
		}
		for _, line := range o.report {
			fmt.Printf("%-20s %s\n", w.name, line)
		}
		printMetrics(w.name, s, defs)
		total.Correct = total.Correct && s.Correct
		total.Attempted += s.Attempted
		total.Failed += s.Failed
		for k, m := range s.Metrics {
			if len(selected) > 1 {
				k = w.name + "." + k
			}
			total.Metrics[k] = m
		}
	}
	out, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !total.Correct {
		os.Exit(1)
	}
}

// sortedKeys lists a map's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
