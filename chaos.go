package idde

import (
	"context"
	"fmt"

	"idde/internal/chaos"
	"idde/internal/rng"
	"idde/internal/stats"
	"idde/internal/units"
)

// ChaosConfig parameterizes a Monte-Carlo chaos sweep: every campaign
// draws a spatially-correlated cluster of server outages (plus optional
// link cuts and a cloud-ingress brownout) around a random epicenter,
// replays it through incremental repair, and measures the degraded
// system on the discrete-event simulator under the fault profile.
type ChaosConfig struct {
	// Campaigns is the number of seeded campaigns to draw (default 20).
	Campaigns int
	// ClusterSize is the number of geographically-clustered servers
	// taken down per campaign (default 2).
	ClusterSize int
	// OutageSeconds is how long the outage lasts before the servers
	// recover; 0 makes the failure permanent.
	OutageSeconds float64
	// LinkCuts severs that many surviving wired links per campaign.
	LinkCuts int
	// BrownoutFactor in (0,1) scales the cloud ingress rate for
	// BrownoutSeconds (0 disables the brownout; 0 duration with a
	// factor set makes it permanent).
	BrownoutFactor  float64
	BrownoutSeconds float64
	// Faults is the transfer-level fault model active while any
	// degradation is.
	Faults FaultProfile
	// SpreadSeconds is the per-epoch request arrival window.
	SpreadSeconds float64
	// Seed makes the whole sweep reproducible.
	Seed uint64
}

// MetricSummary aggregates one degradation metric over the sweep's
// campaigns (worst-epoch values, except the Total* counters).
type MetricSummary struct {
	Mean, CI95, Min, Max float64
}

func metric(s stats.Summary) MetricSummary {
	return MetricSummary{Mean: s.Mean, CI95: s.CI95, Min: s.Min, Max: s.Max}
}

// ChaosSummary is the aggregate outcome of a chaos sweep.
type ChaosSummary struct {
	Campaigns int
	// StrandedFrac is the fraction of baseline-served users left with
	// no edge service; LatencyInflation the DES latency ratio to the
	// healthy baseline; RateDrop the analytic rate loss fraction.
	StrandedFrac     MetricSummary
	LatencyInflation MetricSummary
	RateDrop         MetricSummary
	// Retries/Failovers count transfer-level recoveries per campaign;
	// Moves/ReplicasLost/ReplicasReplaced account the repair work.
	Retries          MetricSummary
	Failovers        MetricSummary
	Moves            MetricSummary
	ReplicasLost     MetricSummary
	ReplicasReplaced MetricSummary

	// Markdown is a rendered summary table; JSON the full per-campaign
	// report (epoch by epoch) for machine consumption.
	Markdown string
	JSON     string
}

// ChaosSweep draws and replays cfg.Campaigns correlated-failure
// campaigns against the strategy. Identical configurations (including
// Seed) produce identical summaries.
func (sc *Scenario) ChaosSweep(st *Strategy, cfg ChaosConfig) (*ChaosSummary, error) {
	if st == nil || st.sc != sc {
		return nil, fmt.Errorf("idde: strategy does not belong to this scenario")
	}
	cluster := cfg.ClusterSize
	if cluster <= 0 {
		cluster = 2
	}
	gc := chaos.GenConfig{
		ClusterSize:      cluster,
		OutageDuration:   units.Seconds(cfg.OutageSeconds),
		LinkCuts:         cfg.LinkCuts,
		BrownoutFactor:   cfg.BrownoutFactor,
		BrownoutDuration: units.Seconds(cfg.BrownoutSeconds),
		Faults:           cfg.Faults.raw(),
	}
	gen := func(i int, s *rng.Stream) chaos.Campaign {
		return chaos.Correlated(sc.in, gc, s)
	}
	sw, err := chaos.MonteCarlo(context.Background(), sc.in, st.raw, gen, chaos.SweepConfig{
		Config: chaos.Config{
			Seed:   cfg.Seed,
			Spread: units.Seconds(cfg.SpreadSeconds),
		},
		Campaigns: cfg.Campaigns,
	})
	if err != nil {
		return nil, err
	}
	js, err := sw.JSON()
	if err != nil {
		return nil, err
	}
	return &ChaosSummary{
		Campaigns:        sw.Campaigns,
		StrandedFrac:     metric(sw.Stranded),
		LatencyInflation: metric(sw.LatencyInflation),
		RateDrop:         metric(sw.RateDrop),
		Retries:          metric(sw.Retries),
		Failovers:        metric(sw.Failovers),
		Moves:            metric(sw.Moves),
		ReplicasLost:     metric(sw.ReplicasLost),
		ReplicasReplaced: metric(sw.ReplicasReplaced),
		Markdown:         sw.MarkdownSummary(),
		JSON:             js,
	}, nil
}
