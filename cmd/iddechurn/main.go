// Command iddechurn exercises the online extension: it generates (or
// loads) a churn trace — users joining and leaving an edge storage
// system over time — and replays it through the incremental strategy
// maintainer, reporting objective trajectories and per-event work.
//
// Usage:
//
//	iddechurn -n 20 -m 150 -horizon 3600 -arrivals 0.05 -dwell 600
//	iddechurn -gen-only -trace churn.json
//	iddechurn -trace churn.json -replay
package main

import (
	"flag"
	"fmt"
	"os"

	"idde/internal/experiment"
	"idde/internal/online"
	"idde/internal/rng"
	"idde/internal/units"
	"idde/internal/viz"
)

func main() {
	var (
		n        = flag.Int("n", 20, "edge servers")
		m        = flag.Int("m", 150, "user universe size")
		k        = flag.Int("k", 5, "data items")
		density  = flag.Float64("density", 1.0, "links per server")
		seed     = flag.Uint64("seed", 1, "seed")
		horizon  = flag.Float64("horizon", 3600, "trace horizon (s)")
		arrivals = flag.Float64("arrivals", 0.05, "mean joins per second")
		dwell    = flag.Float64("dwell", 600, "mean dwell time (s)")
		tracePth = flag.String("trace", "", "trace file to write (with -gen-only) or read (with -replay)")
		genOnly  = flag.Bool("gen-only", false, "generate the trace and exit")
		replay   = flag.Bool("replay", false, "read the trace from -trace instead of generating")
		every    = flag.Int("sample", 25, "sample objectives every this many events")
	)
	flag.Parse()

	in, err := experiment.BuildInstance(experiment.Params{N: *n, M: *m, K: *k, Density: *density}, *seed)
	if err != nil {
		fatal(err)
	}

	var tr *online.Trace
	if *replay {
		if *tracePth == "" {
			fatal(fmt.Errorf("-replay requires -trace"))
		}
		f, err := os.Open(*tracePth)
		if err != nil {
			fatal(err)
		}
		tr, err = online.LoadTrace(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	} else {
		tr, err = online.GenTrace(*m, online.GenTraceConfig{
			Horizon:            units.Seconds(*horizon),
			MeanArrivalsPerSec: *arrivals,
			MeanDwellSec:       *dwell,
		}, rng.New(*seed).Split("trace"))
		if err != nil {
			fatal(err)
		}
		if *tracePth != "" {
			f, err := os.Create(*tracePth)
			if err != nil {
				fatal(err)
			}
			if err := tr.Save(f); err != nil {
				f.Close()
				fatal(err)
			}
			f.Close()
			fmt.Fprintf(os.Stderr, "trace with %d events written to %s\n", len(tr.Events), *tracePth)
		}
	}
	if *genOnly {
		return
	}

	samples, sys, err := online.Replay(in, tr, *every)
	if err != nil {
		fatal(err)
	}
	st := sys.Stats()
	fmt.Printf("replayed %d events (%d joins, %d leaves): %d allocation moves, %d on-demand placements\n",
		len(tr.Events), st.Joins, st.Leaves, st.Moves, st.Placements)
	fmt.Printf("%-10s %8s %12s %12s\n", "t (s)", "active", "rate (MBps)", "lat (ms)")
	var rates, lats []float64
	for _, s := range samples {
		fmt.Printf("%-10.0f %8d %12.2f %12.3f\n", float64(s.At), s.Active, s.RateMBps, s.LatencyMs)
		rates = append(rates, s.RateMBps)
		lats = append(lats, s.LatencyMs)
	}
	fmt.Printf("\nrate over time     %s\n", viz.Sparkline(rates))
	fmt.Printf("latency over time  %s\n", viz.Sparkline(lats))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "iddechurn:", err)
	os.Exit(1)
}
