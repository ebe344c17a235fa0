// Command iddeserve is the resilient serving data plane: it boots an
// IDDE-G strategy as the routing table for a sustained request soak,
// injects chaos-campaign faults while requests are in flight, and
// survives them with per-server circuit breakers, deadline-budgeted
// retries, hedged requests and a supervised background re-planner that
// heals the placement and atomically swaps the routing table.
//
// Usage:
//
//	iddeserve -n 20 -m 150 -rps 500 -duration 60 -outage auto -json
//	iddeserve -cut auto -at 10 -dur 20 -require-recovery -max-streak 6
//	iddeserve -addr 127.0.0.1:8080 -duration 600        # live mode:
//	  curl -X POST 'localhost:8080/inject?kind=link-cut&link=0,1&duration=10'
//	  curl localhost:8080/state ; curl localhost:8080/metrics
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"idde/internal/chaos"
	"idde/internal/core"
	"idde/internal/des"
	"idde/internal/experiment"
	"idde/internal/model"
	"idde/internal/obs"
	"idde/internal/serve"
	"idde/internal/units"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		n       = flag.Int("n", 20, "edge servers")
		m       = flag.Int("m", 150, "users")
		k       = flag.Int("k", 5, "data items")
		density = flag.Float64("density", 1.0, "links per server")
		seed    = flag.Uint64("seed", 1, "seed for the instance and every request/loss/probe draw")
		shards  = flag.Int("shards", 0, "solve the boot plan with the geo-sharded solver on this many tiles (0 = global solver)")

		rps        = flag.Int("rps", 500, "sustained requests per virtual second")
		duration   = flag.Float64("duration", 60, "soak length in virtual seconds")
		tick       = flag.Float64("tick", 1, "round length in virtual seconds")
		deadlineMs = flag.Float64("deadline-ms", 2000, "per-request latency budget (ms)")
		retries    = flag.Int("retries", 2, "retries per source before failover")
		backoffMs  = flag.Float64("backoff-ms", 2, "base retry backoff (ms), doubled per attempt")
		jitter     = flag.Float64("jitter", 0.5, "uniform backoff jitter fraction in [0,1]")
		hedgeMs    = flag.Float64("hedge-ms", 0, "hedge threshold (ms); 0 disables hedged requests")

		loss    = flag.Float64("loss", 0.05, "per-hop wired transfer loss probability")
		stall   = flag.Float64("stall", 0.02, "per-hop stall probability")
		stallMs = flag.Float64("stall-ms", 50, "injected stall length (ms)")

		outage   = flag.String("outage", "", "server outage targets: comma-separated ids, or 'auto' for the most-fetched-from server")
		cut      = flag.String("cut", "", "link-cut target: 'U,V', or 'auto' for the busiest wired link")
		brownout = flag.Float64("brownout", 0, "cloud-ingress brownout factor in (0,1); 0 disables")
		at       = flag.Float64("at", 5, "fault onset time (virtual seconds)")
		dur      = flag.Float64("dur", 10, "fault duration in virtual seconds (0 = permanent)")

		failThreshold = flag.Int("break-after", 5, "consecutive failures that trip a breaker")
		openTimeout   = flag.Float64("open-timeout", 2, "open breaker timeout before half-open (virtual s)")
		replanFrac    = flag.Float64("replan-frac", 0.05, "degraded request fraction that triggers a re-plan")
		replanMin     = flag.Float64("replan-min", 2, "minimum virtual seconds between threshold re-plans")
		waves         = flag.Int("waves", 2, "repair re-equilibration waves per re-plan")

		sloOn        = flag.Bool("slo", true, "run the burn-rate SLO engine (availability + latency)")
		sloAvail     = flag.Float64("slo-avail", 0.999, "availability SLO target in (0,1)")
		sloLatTarget = flag.Float64("slo-lat-target", 0.99, "latency SLO target in (0,1)")
		sloLatMs     = flag.Float64("slo-lat-ms", 0, "latency SLO threshold (ms); 0 = deadline/8")
		flightRate   = flag.Float64("flight-rate", 0.05, "flight-recorder sampling rate in [0,1]; 0 disables")
		flightCap    = flag.Int("flight-cap", 256, "flight-recorder exemplar ring capacity")
		flightDump   = flag.String("flightdump", "", "write triggered flight dumps (SLO burns, breaker spikes, recovery-gate failures) to this JSONL file")

		jsonOut         = flag.Bool("json", false, "emit the full soak report as JSON on stdout")
		requireRecovery = flag.Bool("require-recovery", false, "exit non-zero unless breakers opened, the plan healed within -max-streak rounds, and nothing was dropped")
		maxStreak       = flag.Int("max-streak", 6, "heal budget for -require-recovery, in rounds")
		addr            = flag.String("addr", "", "live mode: serve /state, /inject, /metrics, /debug/pprof on this address and pace rounds to the wall clock")
	)
	flag.Parse()

	in, err := experiment.BuildInstance(experiment.Params{N: *n, M: *m, K: *k, Density: *density}, *seed)
	if err != nil {
		return fatal(err)
	}
	sopt := core.DefaultOptions()
	sopt.Shards = *shards
	sres := core.Solve(in, sopt)
	st := sres.Strategy
	rate, lat := in.Evaluate(st)

	faults := des.Faults{
		LossProb:   *loss,
		StallProb:  *stall,
		StallTime:  units.Seconds(*stallMs / 1e3),
		MaxRetries: *retries,
		Backoff:    units.Seconds(*backoffMs / 1e3),
	}
	camp, desc, err := buildCampaign(in, st, *outage, *cut, *brownout, *at, *dur, faults)
	if err != nil {
		return fatal(err)
	}

	opt := serve.Options{
		Seed:               *seed,
		RPS:                *rps,
		Tick:               units.Seconds(*tick),
		Duration:           units.Seconds(*duration),
		Deadline:           units.Seconds(*deadlineMs / 1e3),
		Jitter:             *jitter,
		Hedge:              units.Seconds(*hedgeMs / 1e3),
		Breaker:            serve.BreakerConfig{FailureThreshold: *failThreshold, OpenTimeout: units.Seconds(*openTimeout)},
		ReplanDegradedFrac: *replanFrac,
		ReplanMinInterval:  units.Seconds(*replanMin),
		Waves:              *waves,
		Faults:             faults,
		Campaign:           camp,
		FlightRate:         *flightRate,
		FlightCap:          *flightCap,
	}
	if *sloOn {
		opt.SLO = serve.SLOOptions{
			Enabled:            true,
			AvailabilityTarget: *sloAvail,
			LatencyTarget:      *sloLatTarget,
			LatencyThreshold:   units.Seconds(*sloLatMs / 1e3),
		}
	}
	var dumpFile *os.File
	if *flightDump != "" {
		f, ferr := os.Create(*flightDump)
		if ferr != nil {
			return fatal(ferr)
		}
		defer f.Close()
		dumpFile = f
		opt.FlightSink = f
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *addr != "" {
		opt.Pace = true
		opt.AsyncReplan = true
		opt.Obs = obs.Metrics()
	}

	eng, err := serve.NewEngine(in, st, opt)
	if err != nil {
		return fatal(err)
	}

	if *addr != "" {
		go func() {
			if err := eng.Serve(*addr); err != nil {
				fmt.Fprintf(os.Stderr, "iddeserve: http: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "serving on http://%s (/state, /inject, /metrics, /debug/pprof/)\n", *addr)
	}

	if !*jsonOut {
		plan := "IDDE-G"
		if sres.Shard != nil {
			plan = fmt.Sprintf("IDDE-G sharded (%d tiles, %d halo users)", sres.Shard.Tiles, sres.Shard.HaloUsers)
		}
		fmt.Printf("booting n=%d m=%d k=%d seed=%d — %s healthy: %.2f MBps, %.3f ms; %s\n",
			*n, *m, *k, *seed, plan, float64(rate), lat.Millis(), desc)
	}

	rep, err := eng.RunSoak(ctx)
	if err != nil && rep == nil {
		return fatal(err)
	}
	if err != nil && !*jsonOut {
		fmt.Fprintf(os.Stderr, "iddeserve: soak interrupted: %v (partial report follows)\n", err)
	}

	if *jsonOut {
		b, jerr := rep.JSON()
		if jerr != nil {
			return fatal(jerr)
		}
		os.Stdout.Write(b)
	} else {
		printSummary(rep)
	}

	if *requireRecovery {
		if msg := checkRecovery(rep, *maxStreak); msg != "" {
			fmt.Fprintf(os.Stderr, "iddeserve: recovery gate FAILED: %s\n", msg)
			if dumpFile != nil {
				// Dump the exemplar ring so the failure ships its own
				// request-level evidence.
				if derr := eng.DumpFlight(dumpFile, "recovery-gate"); derr != nil {
					fmt.Fprintf(os.Stderr, "iddeserve: flight dump: %v\n", derr)
				} else {
					fmt.Fprintf(os.Stderr, "iddeserve: flight recorder dumped to %s\n", *flightDump)
				}
			}
			return 1
		}
		fmt.Fprintln(os.Stderr, "iddeserve: recovery gate passed")
	}
	return 0
}

// buildCampaign assembles the fault timeline from the CLI flags.
func buildCampaign(in *model.Instance, st model.Strategy, outage, cut string, brownout, at, dur float64, faults des.Faults) (*chaos.Campaign, string, error) {
	camp := &chaos.Campaign{Name: "cli", Faults: faults}
	var parts []string
	if outage != "" {
		var servers []int
		if outage == "auto" {
			servers = []int{serve.PopularSource(in, st)}
		} else {
			for _, p := range strings.Split(outage, ",") {
				s, err := strconv.Atoi(strings.TrimSpace(p))
				if err != nil {
					return nil, "", fmt.Errorf("iddeserve: bad -outage %q", outage)
				}
				servers = append(servers, s)
			}
		}
		camp.Events = append(camp.Events, chaos.Event{
			At: units.Seconds(at), Duration: units.Seconds(dur),
			Kind: chaos.ServerOutage, Servers: servers,
		})
		parts = append(parts, fmt.Sprintf("outage %v @%gs+%gs", servers, at, dur))
	}
	if cut != "" {
		var link [2]int
		if cut == "auto" {
			link = serve.PopularLink(in, st)
			if link[0] < 0 {
				return nil, "", fmt.Errorf("iddeserve: -cut auto found no wired link in use")
			}
		} else {
			p := strings.Split(cut, ",")
			if len(p) != 2 {
				return nil, "", fmt.Errorf("iddeserve: -cut wants 'U,V' or 'auto'")
			}
			u, err1 := strconv.Atoi(strings.TrimSpace(p[0]))
			v, err2 := strconv.Atoi(strings.TrimSpace(p[1]))
			if err1 != nil || err2 != nil {
				return nil, "", fmt.Errorf("iddeserve: bad -cut %q", cut)
			}
			link = [2]int{u, v}
		}
		camp.Events = append(camp.Events, chaos.Event{
			At: units.Seconds(at), Duration: units.Seconds(dur),
			Kind: chaos.LinkCut, Link: link,
		})
		parts = append(parts, fmt.Sprintf("link-cut %v @%gs+%gs", link, at, dur))
	}
	if brownout > 0 {
		camp.Events = append(camp.Events, chaos.Event{
			At: units.Seconds(at), Duration: units.Seconds(dur),
			Kind: chaos.CloudBrownout, Factor: brownout,
		})
		parts = append(parts, fmt.Sprintf("brownout %g @%gs+%gs", brownout, at, dur))
	}
	if len(camp.Events) == 0 {
		return nil, "no faults scheduled", nil
	}
	if err := camp.Validate(in); err != nil {
		return nil, "", err
	}
	return camp, strings.Join(parts, ", "), nil
}

// checkRecovery evaluates the CI recovery gate; empty string = pass.
func checkRecovery(rep *serve.SoakReport, maxStreak int) string {
	var fails []string
	if rep.Dropped != 0 {
		fails = append(fails, fmt.Sprintf("%d requests dropped", rep.Dropped))
	}
	if rep.BreakerOpens == 0 {
		fails = append(fails, "no breaker ever opened")
	}
	if rep.Replans == 0 {
		fails = append(fails, "re-planner never ran")
	}
	if rep.MaxDegradedStreak > maxStreak {
		fails = append(fails, fmt.Sprintf("degraded streak %d rounds > budget %d", rep.MaxDegradedStreak, maxStreak))
	}
	if !rep.HealedAtEnd {
		fails = append(fails, "soak ended unhealed")
	}
	if rep.ReplanPanics != 0 {
		fails = append(fails, fmt.Sprintf("%d re-planner panics", rep.ReplanPanics))
	}
	return strings.Join(fails, "; ")
}

func printSummary(rep *serve.SoakReport) {
	fmt.Printf("\nsoak: %d rounds x %d req (%d issued, %d dropped) — %.0f virtual RPS, %.0f wall RPS\n",
		rep.Rounds, rep.PerRound, rep.Issued, rep.Dropped, rep.VirtualRPS, rep.WallRPS)
	fmt.Printf("resilience: %d retries, %d failovers, %d cloud fallbacks, %d hedged, %d degraded (%.1f MB backhaul, %.2fs latency delta)\n",
		rep.Retries, rep.Failovers, rep.CloudFallbacks, rep.Hedged, rep.Degraded, rep.BackhaulMB, rep.LatencyDeltaS)
	fmt.Printf("control: %d re-plans (%d errors, %d panics), final epoch %d, %d breaker opens, heal streak %d rounds, healed=%v\n",
		rep.Replans, rep.ReplanErrors, rep.ReplanPanics, rep.FinalEpoch,
		rep.BreakerOpens, rep.MaxDegradedStreak, rep.HealedAtEnd)
	fmt.Printf("\n%-10s %7s %9s %8s %8s %8s %8s %8s\n",
		"phase", "rounds", "requests", "p50(ms)", "p90(ms)", "p99(ms)", "p999(ms)", "max(ms)")
	for _, ps := range rep.Phases {
		fmt.Printf("%-10s %7d %9d %8.2f %8.2f %8.2f %8.2f %8.2f\n",
			ps.Phase, ps.Rounds, ps.Requests, ps.P50Ms, ps.P90Ms, ps.P99Ms, ps.P999Ms, ps.MaxMs)
	}
	for _, s := range rep.SLOs {
		line := fmt.Sprintf("slo %-12s target %.3f compliance %.5f — max burn fast %.1f / slow %.1f, %d breaches",
			s.Name, s.Target, s.Compliance, s.MaxFastBurn, s.MaxSlowBurn, s.Breaches)
		if s.ThresholdMs > 0 {
			line += fmt.Sprintf(" (<=%.0fms; est p50 %.1f / p99 %.1f / p999 %.1f ms)",
				s.ThresholdMs, s.EstP50Ms, s.EstP99Ms, s.EstP999Ms)
		}
		fmt.Println(line)
	}
	if rep.FlightSampled > 0 || rep.FlightDumps > 0 {
		fmt.Printf("flight: %d exemplars sampled, %d evicted, %d triggered dumps\n",
			rep.FlightSampled, rep.FlightEvicted, rep.FlightDumps)
	}
	fmt.Printf("\noutcome hash %s (seed-stable with hedging off)\n", rep.OutcomeHash)
}

func fatal(err error) int {
	fmt.Fprintf(os.Stderr, "iddeserve: %v\n", err)
	return 1
}
