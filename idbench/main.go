// Command idbench is the repository benchmark. One invocation runs one
// named workload for a fixed time budget and prints, as the last line of
// standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end numbers a user of the
// solver and the serving plane sees; with -trace 1 a separate traced run
// times calls into each layer's public functions and reports per-layer
// numbers. Every run checks its outputs (Instance.Check, bit-for-bit
// repeatability and the values recorded in golden.json) and counts a
// mismatch as a failed operation. README.md lists the workloads, the
// metrics and which layer metric moves which end-to-end metric.
//
// Run it from the repository root:
//
//	bash idbench/run.sh --workload solve-global --seed 2022 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// defaultSeed is the seed of every historical BENCH_*.json record.
const defaultSeed = 2022

// heldOutSeed is never used while tuning a change; a claimed gain must
// also hold on it.
const heldOutSeed = 7331

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("idbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", defaultSeed, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from the traced run")
	record := fs.Bool("record", false, "print this seed's exact values as a golden.json entry instead of a result")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "idbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "idbench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))

	if *record {
		g, err := recordGolden(w, *seed)
		if err != nil {
			fmt.Fprintf(stderr, "idbench: %v\n", err)
			return 1
		}
		return printJSON(stdout, stderr, map[string]exact{goldenKey(w.name, *seed): g})
	}

	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(w, *seed, stderr)
	} else {
		res, err = runUntraced(w, *seed, budget, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "idbench: %v\n", err)
		return 1
	}
	want := endToEnd
	if *trace == 1 {
		want = perLayer
	}
	if err := res.complete(want); err != nil {
		fmt.Fprintf(stderr, "idbench: %v\n", err)
		return 1
	}
	host := fingerprint()
	info := map[string]any{
		"workload":      w.name,
		"params":        w.params,
		"shards":        w.shards,
		"soak_s":        float64(w.soak),
		"seed":          *seed,
		"held_out_seed": heldOutSeed,
		"trace":         *trace,
		"host":          host,
		"samples":       res.samples,
		"exact":         res.exact,
		"notes":         res.notes,
		"failed_gates":  res.gateErrs,
	}
	if code := printJSON(stdout, stderr, map[string]any{"record": info}); code != 0 {
		return code
	}
	return printJSON(stdout, stderr, res.line())
}

func printJSON(stdout, stderr io.Writer, v any) int {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(stderr, "idbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// metricSpec names one reported metric and its unit; the tables below
// are the ones BENCHMARK.json lists.
type metricSpec struct {
	name, unit string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result accumulates one run's outcome.
type result struct {
	attempted, failed int64
	gateErrs          []string
	metrics           map[string]float64
	// samples keeps every per-repetition timing behind a reported
	// median, for the record line.
	samples map[string][]float64
	exact   *exact
	notes   []string
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, samples: map[string][]float64{}}
}

// fail records a failed gate; the run reports correct=false.
func (r *result) fail(format string, args ...any) {
	r.gateErrs = append(r.gateErrs, fmt.Sprintf(format, args...))
}

func (r *result) set(name string, v float64) { r.metrics[name] = v }

// complete checks that every metric of the table was measured.
func (r *result) complete(table []metricSpec) error {
	var missing []string
	for _, m := range table {
		if _, ok := r.metrics[m.name]; !ok {
			missing = append(missing, m.name)
		}
	}
	if len(missing) > 0 && len(r.gateErrs) == 0 {
		return errors.New("metrics not measured: " + strings.Join(missing, ", "))
	}
	return nil
}

func (r *result) line() map[string]any {
	units := map[string]string{}
	for _, m := range endToEnd {
		units[m.name] = m.unit
	}
	for _, m := range perLayer {
		units[m.name] = m.unit
	}
	out := map[string]metricValue{}
	for name, v := range r.metrics {
		out[name] = metricValue{Value: v, Unit: units[name]}
	}
	return map[string]any{
		"correct":   len(r.gateErrs) == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   out,
	}
}

// hostInfo fingerprints the machine a record was taken on.
type hostInfo struct {
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Load1      float64 `json:"load1"`
}

func fingerprint() hostInfo {
	h := hostInfo{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		Load1:      -1,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, ln := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(ln, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		fmt.Sscanf(string(b), "%g", &h.Load1)
	}
	return h
}
