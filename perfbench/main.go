// Command perfbench is the repository's benchmark: it generates a
// workload's inputs from a seed, drives the program through its layer
// entry points (HTTP on serve.Server over loopback, ShardedIndex, Index,
// Engine, store.Store, Hub and the lower/sketch kernels), checks the
// answers against brute-force references, and prints every metric by
// name and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"p50_ms": {"value": 1.2, "unit": "ms"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run repeats its load traced and reports the per-layer ones. Build and
// run it from the repository root with perfbench/run.sh; see README.md
// in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "input generation seed")
	seconds := flag.Int("seconds", 15, "measured seconds per load pass")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	dir := flag.String("dir", ".bench_build/perfbench", "directory for scratch stores and span files")
	fleetRate := flag.Float64("fleet-rate", 0, "fleet-1000x100 phase-2 aggregate points per second (BENCHMARK.json's command sets it)")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) || (*workload == "fleet-1000x100" && *fleetRate <= 0) {
		return fmt.Errorf("bad arguments: -seconds %d -trace %d -fleet-rate %v", *seconds, *trace, *fleetRate)
	}
	scratch := filepath.Join(*dir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return fmt.Errorf("scratch directory: %w", err)
	}
	defer os.RemoveAll(scratch)
	cfg := config{
		workload: *workload, seed: *seed, dur: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, scratch: scratch, fleetRate: *fleetRate,
	}
	o, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	specs, values := endToEndSpecs, o.e2e
	if cfg.trace {
		specs, values = perLayerSpecs, o.layers
		path := filepath.Join(*dir, "spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return fmt.Errorf("span directory: %w", err)
		}
		if err := WriteJSONLines(path, o.spans); err != nil {
			return err
		}
		o.notes = append(o.notes, fmt.Sprintf("%d spans written to %s", len(o.spans), path))
	}
	res, err := report(specs, values)
	if err != nil {
		return err
	}
	res.Correct, res.Attempted, res.Failed = o.wrong == 0, o.attempted, o.failed
	fmt.Printf("workload %s seed %d seconds %d trace %d\n", cfg.workload, cfg.seed, *seconds, *trace)
	for _, n := range o.notes {
		fmt.Println("  " + n)
	}
	for _, e := range o.errs {
		fmt.Println("  failure: " + e)
	}
	for _, s := range specs {
		fmt.Printf("  %-30s %14.6g %s\n", s.Name, values[s.Name], s.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	fmt.Println(string(line))
	return nil
}

// report pairs every catalogued metric with its measured value, and
// refuses a value set that does not match the catalogue exactly.
func report(specs []metricSpec, values map[string]float64) (result, error) {
	res := result{Metrics: make(map[string]metricValue, len(specs))}
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", s.Name, v)
		}
		res.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	if len(values) != len(specs) {
		return res, fmt.Errorf("measured %d metrics, the catalogue has %d: %v", len(values), len(specs), slices.Sorted(maps.Keys(values)))
	}
	return res, nil
}
