// Command cibench is the served-commit benchmark of the ease.ml/ci
// control plane. It starts the real control plane in-process
// (server.NewMulti behind net/http on a 127.0.0.1 listener, production
// defaults), drives it with seeded workloads from one process over at
// most nproc client connections, checks every answer against a
// reference engine, and prints each metric by name, unit and sample
// count. The last line of standard output is one JSON result object.
//
// Usage:
//
//	cibench --workload ci-5k-mem --seed 1 --seconds 15 --trace 0
//	cibench --seed 1                         # all workloads, one process
//	cibench --workload ci-100k-mem --trace 1 -spans spans.jsonl
//	cibench -compare [-claim ci-5k-mem/commit_p50_ms] parent.jsonl change.jsonl
//	cibench -summarize baseline.json set1.jsonl set2.jsonl traced.jsonl
//
// --trace 0 reports the end-to-end metrics; --trace 1 repeats the run
// with the layer seams timed and reports the per-layer metrics instead.
// -record appends each run to a JSON-lines file that -compare and
// -summarize read. See bench/README.md for the metric glossary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("cibench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measured seconds per workload (open loop, then closed loop)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	spans := fs.String("spans", "", "with --trace 1, write every span to this JSON-lines file")
	rec := fs.String("record", "", "append each run's result to this JSON-lines file")
	compare := fs.Bool("compare", false, "compare two -record files: cibench -compare parent.jsonl change.jsonl")
	claim := fs.String("claim", "", "with -compare, test the gain rule for workload/metric")
	summarize := fs.String("summarize", "", "write the baseline summary of the -record files given as arguments to this path")
	benchPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the metric bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		return compareMode(*benchPath, fs.Args(), *claim)
	case *summarize != "":
		return summarizeMode(*summarize, fs.Args())
	}
	if (*trace != 0 && *trace != 1) || *seconds <= 0 || fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "cibench: --trace must be 0 or 1, --seconds positive, and no positional arguments")
		return 2
	}
	var todo []workload
	if *name == "all" {
		todo = workloads
	} else if w, ok := workloadByName(*name); ok {
		todo = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "cibench: unknown workload %q\n", *name)
		return 2
	}
	rc := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, spans: *spans}
	all := result{Correct: true, Metrics: map[string]metricValue{}}
	var last result
	for _, w := range todo {
		out, err := runWorkload(w, rc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cibench: %s: %v\n", w.name, err)
			return 1
		}
		last = out.report(rc)
		if *rec != "" {
			r := record{Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: rc.trace, Result: last}
			if !rc.trace {
				r.Raw, r.Slowdown = map[string]float64{}, out.speed[:]
				for k, m := range out.metrics {
					r.Raw[k] = m.raw
				}
			}
			if err := appendRecord(*rec, r); err != nil {
				fmt.Fprintln(os.Stderr, "cibench:", err)
				return 1
			}
		}
		all.Correct = all.Correct && last.Correct
		all.Attempted += last.Attempted
		all.Failed += last.Failed
		for k, v := range last.Metrics {
			all.Metrics[w.name+"/"+k] = v
		}
	}
	if len(todo) > 1 {
		last = all
	}
	b, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cibench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !last.Correct || last.Failed > 0 {
		return 1
	}
	return 0
}
