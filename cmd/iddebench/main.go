// Command iddebench regenerates the paper's evaluation: Table 2 and
// Figures 1 and 3–7. Each figure's data is printed as a markdown table
// and optionally written as CSV series for plotting; each of Figures
// 3–6 is followed by IDDE-G's measured advantages lined up against the
// values the paper quotes, with a shape verdict. The full run (-fig 0)
// also prints Table 2, the paper's Figure 1 and Figure 7 values and the
// §4.5.1 overall-advantage table: it is the report behind EXPERIMENTS.md.
//
// Usage:
//
//	iddebench -list                 # print Table 2
//	iddebench -fig 1                # Figure 1: edge vs cloud latency probe
//	iddebench -fig 3                # regenerate Figure 3 (Set #1)
//	iddebench -fig 0 -reps 10 -seed 2022 -out results > results/report.md
//	iddebench -fig 0 -reps 50       # everything, at the paper's budget
//	iddebench -fig 4 -out results/  # also write CSV files
//
// The IDDE-IP baseline's search evaluates 6,000 candidate strategies per
// instance (the paper caps CPLEX at 100 s; see DESIGN.md §4), so every
// output but Figure 7's times depends on -seed alone. Raise the count
// with -ip-evals for higher-fidelity IP results, or drop IP entirely
// with -no-ip for quick sweeps.
//
// Profiling:
//
//	iddebench -fig 4 -cpuprofile cpu.pb.gz           # pprof any run
//	iddebench -fig 0 -reps 50 -obs 127.0.0.1:6060    # live pprof/expvar//metrics while it runs
//
// Performance is measured by the repository benchmark (idbench/, see
// BENCHMARK.json), not by this command.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"idde/internal/baseline"
	"idde/internal/cloudlat"
	"idde/internal/experiment"
	"idde/internal/obs"
	"idde/internal/paper"
	"idde/internal/rng"
	"idde/internal/viz"
)

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "iddebench:", err)
		os.Exit(1)
	}
}

// realMain isolates the error path from os.Exit so the profiling defers
// always flush, even when a run fails.
func realMain() error {
	var (
		fig     = flag.Int("fig", 0, "figure to regenerate: 1, 3, 4, 5, 6 or 7 (0 = all)")
		reps    = flag.Int("reps", 10, "randomized repetitions per x value (paper: 50)")
		seed    = flag.Uint64("seed", 2022, "master seed")
		ipEvals = flag.Int("ip-evals", baseline.NewIDDEIP().MaxIters, "IDDE-IP candidate evaluations per instance")
		noIP    = flag.Bool("no-ip", false, "skip the IDDE-IP baseline")
		outDir  = flag.String("out", "", "directory for CSV output (optional)")
		list    = flag.Bool("list", false, "print Table 2 and exit")
		plot    = flag.Bool("plot", false, "also render terminal plots of each figure")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
		obsAddr = flag.String("obs", "", "serve live pprof/expvar//metrics on this address for the duration of the run (e.g. 127.0.0.1:6060)")
	)
	flag.Parse()

	var scope *obs.Scope
	if *obsAddr != "" {
		scope = obs.Metrics()
		srv, err := obs.Serve(*obsAddr, scope)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "live telemetry on http://%s (/metrics, /debug/vars, /debug/pprof/)\n", srv.Addr())
	}

	if *list {
		fmt.Println(experiment.Table2Markdown())
		return nil
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	err := run(*fig, *reps, *seed, *ipEvals, *noIP, *outDir, *plot, scope)
	if err == nil && *memProf != "" {
		err = writeHeapProfile(*memProf)
	}
	return err
}

// writeHeapProfile snapshots the heap after a forced GC so the profile
// reflects retained memory, not transient garbage.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.Lookup("heap").WriteTo(f, 0)
}

func run(fig, reps int, seed uint64, ipEvals int, noIP bool, outDir string, plot bool, scope *obs.Scope) error {
	cfg := experiment.Config{Reps: reps, Seed: seed, Obs: scope}
	if noIP {
		cfg.Approaches = baseline.Heuristics()
	} else {
		cfg.Approaches = []baseline.Approach{
			&baseline.IDDEIP{MaxIters: ipEvals}, baseline.NewIDDEG(), baseline.NewSAA(), baseline.NewCDP(), baseline.NewDUPG(),
		}
	}
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
	}

	wantSet := map[int]int{3: 1, 4: 2, 5: 3, 6: 4} // figure → set
	var timing []*experiment.SetResult

	if fig == 0 {
		fmt.Println(experiment.Table2Markdown())
	}
	if fig == 0 || fig == 1 {
		series := cloudlat.Collect(cloudlat.DefaultTargets(), rng.New(seed))
		fmt.Println(experiment.Fig1Markdown(series))
		if fig == 0 {
			fmt.Printf("Paper (approximate bar heights): %s\n\n", fmtMap(paper.Fig1ApproxMeansMs))
		}
		if plot {
			labels := make([]string, len(series))
			means := make([]float64, len(series))
			for i, s := range series {
				labels[i] = s.Target.Name
				means[i] = s.Mean.Millis()
			}
			fmt.Println(viz.BarChart("Figure 1: mean end-to-end latency (ms)", labels, means, 40))
		}
		if outDir != "" {
			if err := writeFile(filepath.Join(outDir, "fig1.csv"), fig1CSV(series)); err != nil {
				return err
			}
		}
	}
	for f := 3; f <= 6; f++ {
		if fig != 0 && fig != f && fig != 7 {
			continue
		}
		set, err := experiment.SetByID(wantSet[f])
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "running Set #%d (%d reps × %d x-values × %d approaches)...\n",
			set.ID, cfg.Reps, len(set.Values), len(cfg.Approaches))
		sr, err := experiment.RunSet(set, cfg)
		if err != nil {
			return err
		}
		timing = append(timing, sr)
		if fig == 0 || fig == f {
			fmt.Printf("Figure %d(a): %s\n", f, sr.MarkdownTable(experiment.RateMetric))
			fmt.Printf("Figure %d(b): %s\n", f, sr.MarkdownTable(experiment.LatencyMetric))
			fmt.Printf("Figure %d paper-vs-measured shape checks:\n\n%s\n", f, paper.Markdown(paper.CompareAdvantages(sr)))
			if plot {
				for _, m := range []experiment.Metric{experiment.RateMetric, experiment.LatencyMetric} {
					xs, labels, ys := sr.SeriesFor(m)
					series := make([]viz.Series, len(labels))
					for li := range labels {
						series[li] = viz.Series{Label: labels[li], Y: ys[li]}
					}
					fmt.Println(viz.LinePlot(
						fmt.Sprintf("Figure %d: %s", f, m), sr.Set.Vary, xs, series, 60, 14))
				}
			}
			if outDir != "" {
				base := fmt.Sprintf("fig%d", f)
				if err := writeFile(filepath.Join(outDir, base+"a_rate.csv"), sr.CSV(experiment.RateMetric)); err != nil {
					return err
				}
				if err := writeFile(filepath.Join(outDir, base+"b_latency.csv"), sr.CSV(experiment.LatencyMetric)); err != nil {
					return err
				}
			}
		}
	}
	if fig == 0 || fig == 7 {
		fmt.Println(experiment.TimingMarkdown(timing))
		if fig == 0 {
			fmt.Printf("Paper means (s): %s\n\n", fmtMap(paper.Fig7MeanSeconds))
			fmt.Printf("Overall advantages (paper §4.5.1 headline):\n\n%s", paper.OverallMarkdown(timing))
		}
		if outDir != "" && len(timing) > 0 {
			var csv string
			for _, sr := range timing {
				csv += fmt.Sprintf("# Set %d\n%s", sr.Set.ID, sr.CSV(experiment.TimeMetric))
			}
			if err := writeFile(filepath.Join(outDir, "fig7_time.csv"), csv); err != nil {
				return err
			}
		}
	}
	return nil
}

func fig1CSV(series []cloudlat.Series) string {
	out := "setting,kind,mean_ms,min_ms,max_ms\n"
	for _, s := range series {
		out += fmt.Sprintf("%s,%s,%.3f,%.3f,%.3f\n",
			s.Target.Name, s.Target.Kind, s.Mean.Millis(), s.Min.Millis(), s.Max.Millis())
	}
	return out
}

// fmtMap prints a paper value table in legend order.
func fmtMap(m map[string]float64) string {
	out := ""
	for _, k := range []string{"IDDE-IP", "IDDE-G", "SAA", "CDP", "DUP-G", "Edge", "Singapore", "London", "Frankfurt"} {
		if v, ok := m[k]; ok {
			out += fmt.Sprintf("%s=%.2f ", k, v)
		}
	}
	return out
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
