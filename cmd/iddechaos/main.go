// Command iddechaos runs seeded chaos campaigns against an IDDE-G
// strategy: correlated multi-server outages, wired-link cuts and
// cloud-ingress brownouts, replayed through incremental repair and
// measured on the discrete-event simulator with lossy transfers,
// retries and failover active.
//
// Usage:
//
//	iddechaos -n 20 -m 150 -campaigns 20 -cluster 3 -loss 0.2
//	iddechaos -campaigns 1 -outage 120 -cuts 2 -brownout 0.5 -v
//	iddechaos -json > sweep.json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"idde/internal/chaos"
	"idde/internal/core"
	"idde/internal/des"
	"idde/internal/experiment"
	"idde/internal/obs"
	"idde/internal/rng"
	"idde/internal/units"
	"idde/internal/viz"
)

func main() {
	var (
		n         = flag.Int("n", 20, "edge servers")
		m         = flag.Int("m", 150, "users")
		k         = flag.Int("k", 5, "data items")
		density   = flag.Float64("density", 1.0, "links per server")
		seed      = flag.Uint64("seed", 1, "seed for the instance, every campaign draw and every fault")
		campaigns = flag.Int("campaigns", 20, "Monte-Carlo campaigns to draw and replay")
		cluster   = flag.Int("cluster", 3, "correlated servers down per campaign")
		outage    = flag.Float64("outage", 120, "outage duration in seconds (0 = permanent)")
		cuts      = flag.Int("cuts", 1, "wired links cut per campaign")
		brownout  = flag.Float64("brownout", 0, "cloud-ingress brownout factor in (0,1); 0 disables")
		brownDur  = flag.Float64("brownout-dur", 0, "brownout duration in seconds (0 = permanent)")
		loss      = flag.Float64("loss", 0.2, "per-hop wired transfer loss probability")
		stall     = flag.Float64("stall", 0.05, "per-hop stall probability")
		stallMs   = flag.Float64("stall-ms", 20, "injected stall length (ms)")
		retries   = flag.Int("retries", 3, "retransmissions per hop before failover")
		backoffMs = flag.Float64("backoff-ms", 2, "base retry backoff (ms), doubled per attempt")
		spread    = flag.Float64("spread", 5, "request arrival window per epoch (s)")
		jsonOut   = flag.Bool("json", false, "emit the full sweep report as JSON on stdout")
		verbose   = flag.Bool("v", false, "print every campaign's per-epoch table")
		obsAddr   = flag.String("obs", "", "serve live pprof/expvar//metrics on this address for the duration of the sweep (e.g. 127.0.0.1:6060)")
	)
	flag.Parse()

	var scope *obs.Scope
	if *obsAddr != "" {
		scope = obs.Metrics()
		srv, err := obs.Serve(*obsAddr, scope)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "live telemetry on http://%s (/metrics, /debug/vars, /debug/pprof/)\n", srv.Addr())
	}

	if *brownout < 0 || *brownout >= 1 {
		if *brownout != 0 {
			fatal(fmt.Errorf("-brownout must be in (0,1), got %g (0 disables)", *brownout))
		}
	}
	if *loss < 0 || *loss >= 1 || *stall < 0 || *stall > 1 {
		fatal(fmt.Errorf("-loss must be in [0,1) and -stall in [0,1]"))
	}

	in, err := experiment.BuildInstance(experiment.Params{N: *n, M: *m, K: *k, Density: *density}, *seed)
	if err != nil {
		fatal(err)
	}
	st := core.Solve(in, core.DefaultOptions()).Strategy
	rate, lat := in.Evaluate(st)
	if !*jsonOut {
		fmt.Printf("instance n=%d m=%d k=%d seed=%d — IDDE-G healthy: %.2f MBps, %.3f ms\n\n",
			*n, *m, *k, *seed, float64(rate), lat.Millis())
	}

	gc := chaos.GenConfig{
		ClusterSize:      *cluster,
		OutageDuration:   units.Seconds(*outage),
		LinkCuts:         *cuts,
		BrownoutFactor:   *brownout,
		BrownoutDuration: units.Seconds(*brownDur),
		Faults: des.Faults{
			LossProb:   *loss,
			StallProb:  *stall,
			StallTime:  units.Seconds(*stallMs / 1e3),
			MaxRetries: *retries,
			Backoff:    units.Seconds(*backoffMs / 1e3),
		},
	}
	gen := func(i int, s *rng.Stream) chaos.Campaign {
		return chaos.Correlated(in, gc, s)
	}
	// Ctrl-C truncates the sweep to the campaigns already replayed
	// instead of discarding the run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	sw, err := chaos.MonteCarlo(ctx, in, st, gen, chaos.SweepConfig{
		Config:    chaos.Config{Seed: *seed, Spread: units.Seconds(*spread), Obs: scope},
		Campaigns: *campaigns,
	})
	if err != nil {
		if !errors.Is(err, context.Canceled) || sw == nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "iddechaos: interrupted — reporting the %d campaigns that completed\n", sw.Campaigns)
	}

	if *jsonOut {
		out, err := sw.JSON()
		if err != nil {
			fatal(err)
		}
		fmt.Println(out)
		return
	}
	if *verbose {
		for _, cr := range sw.Reports {
			fmt.Println(cr.MarkdownTable())
		}
	}
	fmt.Print(sw.MarkdownSummary())
	var stranded, infl []float64
	for _, cr := range sw.Reports {
		stranded = append(stranded, cr.WorstStrandedFrac)
		infl = append(infl, cr.WorstLatencyInflation)
	}
	fmt.Printf("\nstranded by campaign   %s\n", viz.Sparkline(stranded))
	fmt.Printf("inflation by campaign  %s\n", viz.Sparkline(infl))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "iddechaos:", err)
	os.Exit(1)
}
