package chaos

import (
	"context"
	"fmt"

	"idde/internal/des"
	"idde/internal/model"
	"idde/internal/obs"
	"idde/internal/repair"
	"idde/internal/rng"
	"idde/internal/stats"
	"idde/internal/units"
)

// Config controls one campaign replay.
type Config struct {
	// Seed drives the DES arrival order and every fault draw.
	Seed uint64
	// Spread is the request-arrival window per epoch (0 = synchronized
	// burst, the worst case for contention).
	Spread units.Seconds
	// Waves bounds the repair re-equilibration (default 2, as in
	// repair.Options).
	Waves int
	// Obs receives the campaign's telemetry: a span per epoch, an
	// instant event per EpochReport, counters cross-wired from the
	// campaign totals, and — threaded into the DES — the transfer
	// counters and per-request latency histogram. nil disables all of
	// it; reports are identical either way.
	Obs *obs.Scope
}

// EpochReport is the measured state of the system during one span of
// constant fault state.
type EpochReport struct {
	// Start is the epoch's opening time; End is its close, or -1 for
	// the final epoch (open-ended).
	Start units.Seconds `json:"start"`
	End   units.Seconds `json:"end"`
	// DownServers and CutLinks size the active degradation;
	// CloudFactor is 1 when the cloud is healthy.
	DownServers int     `json:"downServers"`
	CutLinks    int     `json:"cutLinks"`
	CloudFactor float64 `json:"cloudFactor"`

	// StrandedFrac is the fraction of the baseline strategy's served
	// users that are unallocated (all-cloud service) this epoch.
	StrandedFrac float64 `json:"strandedFrac"`
	// RateMBps is the analytic R_avg of the repaired strategy on the
	// degraded instance; RateDrop is 1 − RateMBps/healthy.
	RateMBps float64 `json:"rateMBps"`
	RateDrop float64 `json:"rateDrop"`
	// LatencyMs is the DES-measured average delivery latency under the
	// campaign's fault model; LatencyInflation is its ratio to the
	// healthy DES baseline.
	LatencyMs        float64 `json:"latencyMs"`
	LatencyInflation float64 `json:"latencyInflation"`

	// Transfer-level degradation counters from the DES.
	Retries        int `json:"retries"`
	Failovers      int `json:"failovers"`
	CloudFallbacks int `json:"cloudFallbacks"`
	Stalls         int `json:"stalls"`

	// Repair accounting entering this epoch.
	Moves            int `json:"moves"`
	LostReplicas     int `json:"lostReplicas"`
	ReplacedReplicas int `json:"replacedReplicas"`
}

// CampaignReport is one campaign's full accounting.
type CampaignReport struct {
	Name string `json:"name"`
	Seed uint64 `json:"seed"`
	// Healthy baseline: analytic rate and DES-measured latency of the
	// unrepaired strategy on the healthy instance, reliable transfers.
	HealthyRateMBps  float64 `json:"healthyRateMBps"`
	HealthyLatencyMs float64 `json:"healthyLatencyMs"`

	Epochs []EpochReport `json:"epochs"`

	// Worst-epoch and whole-campaign aggregates.
	WorstStrandedFrac     float64 `json:"worstStrandedFrac"`
	WorstLatencyInflation float64 `json:"worstLatencyInflation"`
	WorstRateDrop         float64 `json:"worstRateDrop"`
	TotalRetries          int     `json:"totalRetries"`
	TotalFailovers        int     `json:"totalFailovers"`
	TotalCloudFallbacks   int     `json:"totalCloudFallbacks"`
	TotalMoves            int     `json:"totalMoves"`
	TotalLostReplicas     int     `json:"totalLostReplicas"`
	TotalReplaced         int     `json:"totalReplaced"`
}

// safeRatio reports a/b, with the conventions a ratio needs to stay
// finite and JSON-encodable: 1 when both are ~0, capped when only the
// denominator is.
func safeRatio(a, b float64) float64 {
	const eps = 1e-12
	if b > eps {
		return a / b
	}
	if a <= eps {
		return 1
	}
	return 1e6
}

// Run replays one campaign against the strategy. The instance and
// strategy are the healthy baseline; each epoch degrades the pristine
// instance to that epoch's cumulative fault state, repairs the previous
// epoch's strategy onto it (so failures compound and recoveries
// re-admit), and measures the workload on the DES under the campaign's
// fault model. Cancellation is honored at epoch boundaries: the report
// returned alongside ctx.Err() covers every epoch that completed (its
// totals and worst-epoch aggregates are consistent with the epochs it
// holds), and the campaign spawns no goroutines, so nothing is left
// running.
func Run(ctx context.Context, in *model.Instance, st model.Strategy, c Campaign, cfg Config) (*CampaignReport, error) {
	if err := c.Validate(in); err != nil {
		return nil, err
	}
	if err := in.Check(st); err != nil {
		return nil, fmt.Errorf("chaos: baseline strategy invalid: %w", err)
	}
	root := rng.New(cfg.Seed)
	rep := &CampaignReport{Name: c.Name, Seed: cfg.Seed}

	sc := cfg.Obs
	healthyRate, _ := in.Evaluate(st)
	rep.HealthyRateMBps = float64(healthyRate)
	healthySim := des.Simulate(in, st, des.SimOptions{Spread: cfg.Spread, Obs: sc}, root.Split("healthy"))
	rep.HealthyLatencyMs = healthySim.Avg.Millis()
	baseServed := st.Alloc.AllocatedCount()

	prevIn, prevSt := in, st
	for ei, t := range c.epochs() {
		if err := ctx.Err(); err != nil {
			publishCampaign(sc, rep)
			return rep, err
		}
		if sc.Tracing() {
			sc.Begin("chaos", "epoch", map[string]any{"index": ei, "start_s": float64(t)})
		}
		d := c.degradationAt(t)
		deg, err := repair.Degrade(in, d)
		if err != nil {
			return nil, fmt.Errorf("chaos: epoch at %v: %w", t, err)
		}
		repaired, rrep, err := repair.RepairDegraded(prevIn, deg, prevSt, repair.Options{Waves: cfg.Waves})
		if err != nil {
			return nil, fmt.Errorf("chaos: repair at %v: %w", t, err)
		}

		// Link faults strike only while something is degraded; epochs
		// with nothing down, cut or browned out transfer reliably.
		simOpt := des.SimOptions{Spread: cfg.Spread, Obs: sc}
		if len(d.FailedServers) > 0 || len(d.CutLinks) > 0 || d.CloudFactor > 0 {
			simOpt.Faults = c.Faults
		}
		sim := des.Simulate(deg, repaired, simOpt, root.SplitN("epoch", ei))

		rate, _ := deg.Evaluate(repaired)
		stranded := 0.0
		if baseServed > 0 {
			stranded = 1 - float64(repaired.Alloc.AllocatedCount())/float64(baseServed)
			if stranded < 0 {
				stranded = 0
			}
		}
		cloudFactor := d.CloudFactor
		if cloudFactor == 0 {
			cloudFactor = 1
		}
		er := EpochReport{
			Start:            t,
			End:              -1,
			DownServers:      len(d.FailedServers),
			CutLinks:         len(d.CutLinks),
			CloudFactor:      cloudFactor,
			StrandedFrac:     stranded,
			RateMBps:         float64(rate),
			RateDrop:         1 - safeRatio(float64(rate), rep.HealthyRateMBps),
			LatencyMs:        sim.Avg.Millis(),
			LatencyInflation: safeRatio(sim.Avg.Millis(), rep.HealthyLatencyMs),
			Retries:          sim.Retries,
			Failovers:        sim.Failovers,
			CloudFallbacks:   sim.CloudFallbacks,
			Stalls:           sim.Stalls,
			Moves:            rrep.Moves,
			LostReplicas:     rrep.LostReplicas,
			ReplacedReplicas: rrep.ReplacedReplicas,
		}
		if len(rep.Epochs) > 0 {
			rep.Epochs[len(rep.Epochs)-1].End = t
		}
		rep.Epochs = append(rep.Epochs, er)

		if er.StrandedFrac > rep.WorstStrandedFrac {
			rep.WorstStrandedFrac = er.StrandedFrac
		}
		if er.LatencyInflation > rep.WorstLatencyInflation {
			rep.WorstLatencyInflation = er.LatencyInflation
		}
		if er.RateDrop > rep.WorstRateDrop {
			rep.WorstRateDrop = er.RateDrop
		}
		rep.TotalRetries += er.Retries
		rep.TotalFailovers += er.Failovers
		rep.TotalCloudFallbacks += er.CloudFallbacks
		rep.TotalMoves += er.Moves
		rep.TotalLostReplicas += er.LostReplicas
		rep.TotalReplaced += er.ReplacedReplicas

		if sc.Tracing() {
			sc.Instant("chaos", "epoch.report", map[string]any{
				"index":             ei,
				"start_s":           float64(er.Start),
				"down_servers":      er.DownServers,
				"cut_links":         er.CutLinks,
				"cloud_factor":      er.CloudFactor,
				"stranded_frac":     er.StrandedFrac,
				"rate_mbps":         er.RateMBps,
				"rate_drop":         er.RateDrop,
				"latency_ms":        er.LatencyMs,
				"latency_inflation": er.LatencyInflation,
				"moves":             er.Moves,
				"lost_replicas":     er.LostReplicas,
				"replaced_replicas": er.ReplacedReplicas,
			})
			sc.End("chaos", "epoch")
		}

		prevIn, prevSt = deg, repaired
	}
	publishCampaign(sc, rep)
	return rep, nil
}

// publishCampaign cross-wires the campaign totals into the scope's
// registry; the report fields and the counters are written from the
// same values, so they can never drift.
func publishCampaign(sc *obs.Scope, rep *CampaignReport) {
	if !sc.Enabled() {
		return
	}
	sc.Count("chaos_campaigns_total", 1)
	sc.Count("chaos_epochs_total", int64(len(rep.Epochs)))
	sc.Count("chaos_retries_total", int64(rep.TotalRetries))
	sc.Count("chaos_failovers_total", int64(rep.TotalFailovers))
	sc.Count("chaos_cloud_fallbacks_total", int64(rep.TotalCloudFallbacks))
	sc.Count("chaos_moves_total", int64(rep.TotalMoves))
	sc.Count("chaos_lost_replicas_total", int64(rep.TotalLostReplicas))
	sc.Count("chaos_replaced_replicas_total", int64(rep.TotalReplaced))
	sc.SetGauge("chaos_last_worst_stranded_frac", rep.WorstStrandedFrac)
	sc.SetGauge("chaos_last_worst_latency_inflation", rep.WorstLatencyInflation)
	sc.SetGauge("chaos_last_worst_rate_drop", rep.WorstRateDrop)
}

// Generator draws the i-th campaign of a sweep from its dedicated
// stream.
type Generator func(i int, s *rng.Stream) Campaign

// SweepConfig controls a Monte-Carlo sweep.
type SweepConfig struct {
	Config
	// Campaigns is the number of seeded campaigns to draw and replay
	// (default 20).
	Campaigns int
}

// SweepReport aggregates a Monte-Carlo sweep of campaigns.
type SweepReport struct {
	Campaigns int `json:"campaigns"`
	// Per-campaign worst-epoch metrics, aggregated.
	Stranded         stats.Summary `json:"stranded"`
	LatencyInflation stats.Summary `json:"latencyInflation"`
	RateDrop         stats.Summary `json:"rateDrop"`
	Retries          stats.Summary `json:"retries"`
	Failovers        stats.Summary `json:"failovers"`
	Moves            stats.Summary `json:"moves"`
	ReplicasLost     stats.Summary `json:"replicasLost"`
	ReplicasReplaced stats.Summary `json:"replicasReplaced"`
	// Reports holds every campaign, in sweep order.
	Reports []*CampaignReport `json:"reports"`
}

// MonteCarlo draws cfg.Campaigns campaigns from the generator and
// replays each against the strategy, aggregating worst-epoch
// degradation metrics. Campaign i draws from an independent labeled
// split of the sweep seed, so the whole sweep is reproducible and any
// single campaign can be re-run in isolation with its reported seed.
// Cancellation is honored between campaigns (a campaign mid-replay
// finishes its current epoch and stops): the sweep returned alongside
// ctx.Err() aggregates only fully replayed campaigns, with Campaigns set
// to that count — a truncated but statistically clean sweep.
func MonteCarlo(ctx context.Context, in *model.Instance, st model.Strategy, gen Generator, cfg SweepConfig) (*SweepReport, error) {
	if cfg.Campaigns <= 0 {
		cfg.Campaigns = 20
	}
	root := rng.New(cfg.Seed)
	sw := &SweepReport{Campaigns: cfg.Campaigns}
	var stranded, infl, drop, retries, failovers, moves, lost, replaced stats.Acc
	cancelled := false
	for i := 0; i < cfg.Campaigns; i++ {
		if ctx.Err() != nil {
			cancelled = true
			break
		}
		cs := root.SplitN("campaign", i)
		c := gen(i, cs)
		runCfg := cfg.Config
		runCfg.Seed = cs.Split("run").Seed()
		cr, err := Run(ctx, in, st, c, runCfg)
		if err != nil {
			if ctx.Err() != nil {
				// The partial campaign is dropped: a sweep aggregates
				// whole campaigns or nothing.
				cancelled = true
				break
			}
			return nil, fmt.Errorf("chaos: campaign %d (%s): %w", i, c.Name, err)
		}
		sw.Reports = append(sw.Reports, cr)
		stranded.Add(cr.WorstStrandedFrac)
		infl.Add(cr.WorstLatencyInflation)
		drop.Add(cr.WorstRateDrop)
		retries.Add(float64(cr.TotalRetries))
		failovers.Add(float64(cr.TotalFailovers))
		moves.Add(float64(cr.TotalMoves))
		lost.Add(float64(cr.TotalLostReplicas))
		replaced.Add(float64(cr.TotalReplaced))
	}
	sw.Stranded = stranded.Summary()
	sw.LatencyInflation = infl.Summary()
	sw.RateDrop = drop.Summary()
	sw.Retries = retries.Summary()
	sw.Failovers = failovers.Summary()
	sw.Moves = moves.Summary()
	sw.ReplicasLost = lost.Summary()
	sw.ReplicasReplaced = replaced.Summary()
	if cancelled {
		sw.Campaigns = len(sw.Reports)
		return sw, ctx.Err()
	}
	return sw, nil
}
