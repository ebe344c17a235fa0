package idde

import (
	"fmt"
	"time"

	"idde/internal/baseline"
	"idde/internal/core"
	"idde/internal/des"
	"idde/internal/inspect"
	"idde/internal/model"
	"idde/internal/radio"
	"idde/internal/rng"
	"idde/internal/topology"
	"idde/internal/units"
	"idde/internal/workload"
)

// ApproachName identifies a strategy-formulation approach.
type ApproachName string

// The five approaches of the paper's evaluation (§4.1).
const (
	IDDEG  ApproachName = "IDDE-G"
	IDDEIP ApproachName = "IDDE-IP"
	SAA    ApproachName = "SAA"
	CDP    ApproachName = "CDP"
	DUPG   ApproachName = "DUP-G"
)

// Approaches lists every available approach in the paper's legend order.
func Approaches() []ApproachName {
	return []ApproachName{IDDEIP, IDDEG, SAA, CDP, DUPG}
}

// ScenarioConfig describes a synthetic edge storage scenario. The zero
// value of every optional field selects the paper's §4.2 setting.
type ScenarioConfig struct {
	// Servers (N), Users (M) and DataItems (K) are required.
	Servers, Users, DataItems int
	// Density is links-per-server in the inter-server network
	// (default 1.0).
	Density float64
	// Seed makes the scenario reproducible.
	Seed uint64

	// ChannelsPerServer defaults to 3.
	ChannelsPerServer int
	// ChannelBandwidthMBps defaults to 200.
	ChannelBandwidthMBps float64
	// CoverageRadiusM is the [min,max] server radio radius in meters
	// (default [400,800]).
	CoverageRadiusM [2]float64
	// ItemSizesMB are the allowed item sizes (default {30,60,90}).
	ItemSizesMB []float64
	// StorageRangeMB is the [min,max] per-server reservation
	// (default [30,300]).
	StorageRangeMB [2]float64
	// ZipfSkew shapes request popularity (default 0.8; 0 keeps the
	// default — use a tiny positive value for uniform).
	ZipfSkew float64
	// LinkSpeedMBps is the [min,max] wired link speed (default
	// [2000,6000]).
	LinkSpeedMBps [2]float64
	// CloudRateMBps is the cloud delivery speed (default 600).
	CloudRateMBps float64
}

// Scenario is a concrete IDDE problem instance: a topology, a workload
// and the radio environment.
type Scenario struct {
	in *model.Instance
}

// NewScenario generates a scenario from the configuration.
func NewScenario(cfg ScenarioConfig) (*Scenario, error) {
	if cfg.Servers <= 0 || cfg.Users <= 0 || cfg.DataItems <= 0 {
		return nil, fmt.Errorf("idde: Servers, Users and DataItems must be positive")
	}
	if cfg.Density == 0 {
		cfg.Density = 1.0
	}
	tc := topology.DefaultGen(cfg.Servers, cfg.Users, cfg.Density)
	if cfg.ChannelsPerServer > 0 {
		tc.Channels = cfg.ChannelsPerServer
	}
	if cfg.ChannelBandwidthMBps > 0 {
		tc.Bandwidth = units.Rate(cfg.ChannelBandwidthMBps)
	}
	if cfg.CoverageRadiusM[1] > 0 {
		tc.CoverageRadius = [2]units.Meters{units.Meters(cfg.CoverageRadiusM[0]), units.Meters(cfg.CoverageRadiusM[1])}
	}
	if cfg.LinkSpeedMBps[1] > 0 {
		tc.LinkSpeed = [2]units.Rate{units.Rate(cfg.LinkSpeedMBps[0]), units.Rate(cfg.LinkSpeedMBps[1])}
	}
	if cfg.CloudRateMBps > 0 {
		tc.CloudRate = units.Rate(cfg.CloudRateMBps)
	}
	wc := workload.DefaultGen(cfg.DataItems)
	if len(cfg.ItemSizesMB) > 0 {
		wc.SizeChoices = nil
		for _, s := range cfg.ItemSizesMB {
			wc.SizeChoices = append(wc.SizeChoices, units.MegaBytes(s))
		}
	}
	if cfg.StorageRangeMB[1] > 0 {
		wc.Capacity = [2]units.MegaBytes{units.MegaBytes(cfg.StorageRangeMB[0]), units.MegaBytes(cfg.StorageRangeMB[1])}
	}
	if cfg.ZipfSkew > 0 {
		wc.ZipfSkew = cfg.ZipfSkew
	}

	s := rng.New(cfg.Seed)
	top, err := topology.Generate(tc, s.Split("topology"))
	if err != nil {
		return nil, err
	}
	wl, err := workload.Generate(wc, cfg.Servers, cfg.Users, s.Split("workload"))
	if err != nil {
		return nil, err
	}
	in, err := model.New(top, wl, radio.Default())
	if err != nil {
		return nil, err
	}
	return &Scenario{in: in}, nil
}

// Servers, Users and DataItems report the scenario dimensions.
func (sc *Scenario) Servers() int   { return sc.in.N() }
func (sc *Scenario) Users() int     { return sc.in.M() }
func (sc *Scenario) DataItems() int { return sc.in.K() }

// TotalStorageMB reports the system-wide reserved storage.
func (sc *Scenario) TotalStorageMB() float64 {
	return float64(sc.in.Wl.TotalCapacity())
}

// Replica identifies one delivery decision σ_{i,k}=1.
type Replica struct {
	Server, Item int
}

// Strategy is a formulated IDDE strategy together with its measured
// objectives.
type Strategy struct {
	// Approach that produced the strategy.
	Approach ApproachName
	// AvgRateMBps is objective #1 (Eq. 5).
	AvgRateMBps float64
	// AvgLatencyMs is objective #2 (Eq. 9).
	AvgLatencyMs float64
	// Elapsed is the formulation time.
	Elapsed time.Duration

	raw model.Strategy
	sc  *Scenario
}

// Assignment reports the server and channel serving a user.
func (st *Strategy) Assignment(user int) (server, channel int, allocated bool) {
	a := st.raw.Alloc[user]
	return a.Server, a.Channel, a.Allocated()
}

// Replicas lists the delivery decisions, by server then item.
func (st *Strategy) Replicas() []Replica {
	var out []Replica
	for i := 0; i < st.sc.in.N(); i++ {
		for k := 0; k < st.sc.in.K(); k++ {
			if st.raw.Delivery.Placed(i, k) {
				out = append(out, Replica{Server: i, Item: k})
			}
		}
	}
	return out
}

// UserRateMBps reports one user's achieved data rate (Eqs. 2–4).
func (st *Strategy) UserRateMBps(user int) float64 {
	return float64(st.sc.in.UserRate(st.raw.Alloc, user))
}

// approach resolves an ApproachName to its implementation.
func (sc *Scenario) approach(name ApproachName) (baseline.Approach, error) {
	switch name {
	case IDDEG:
		return baseline.NewIDDEG(), nil
	case IDDEIP:
		return baseline.NewIDDEIP(), nil
	case SAA:
		return baseline.NewSAA(), nil
	case CDP:
		return baseline.NewCDP(), nil
	case DUPG:
		return baseline.NewDUPG(), nil
	default:
		return nil, fmt.Errorf("idde: unknown approach %q", name)
	}
}

// Solve formulates a strategy with the named approach. The seed drives
// the stochastic approaches (SAA, IDDE-IP); deterministic approaches
// ignore it.
func (sc *Scenario) Solve(name ApproachName, seed uint64) (*Strategy, error) {
	ap, err := sc.approach(name)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	raw := ap.Solve(sc.in, seed)
	elapsed := time.Since(t0)
	if err := sc.in.Check(raw); err != nil {
		return nil, fmt.Errorf("idde: %s produced an invalid strategy: %w", name, err)
	}
	rate, lat := sc.in.Evaluate(raw)
	return &Strategy{
		Approach:     name,
		AvgRateMBps:  float64(rate),
		AvgLatencyMs: lat.Millis(),
		Elapsed:      elapsed,
		raw:          raw,
		sc:           sc,
	}, nil
}

// Diagnostics carries IDDE-G's internal instrumentation (the quantities
// Theorems 4–7 reason about).
type Diagnostics struct {
	// GameUpdates is the Phase 1 iteration count (Theorem 4).
	GameUpdates int
	// GameConverged reports whether Phase 1 reached a fixed point.
	GameConverged bool
	// FrozenUsers counts users stopped by the update budget.
	FrozenUsers int
	// Replicas is the number of Phase 2 delivery decisions.
	Replicas int
	// LatencyReductionSec is ΔL(σ) versus all-cloud delivery (Eq. 25).
	LatencyReductionSec float64
}

// SolveIDDEG runs the paper's algorithm and returns its diagnostics
// alongside the strategy.
func (sc *Scenario) SolveIDDEG() (*Strategy, *Diagnostics, error) {
	t0 := time.Now()
	res := core.Solve(sc.in, core.DefaultOptions())
	elapsed := time.Since(t0)
	if err := sc.in.Check(res.Strategy); err != nil {
		return nil, nil, fmt.Errorf("idde: IDDE-G produced an invalid strategy: %w", err)
	}
	st := &Strategy{
		Approach:     IDDEG,
		AvgRateMBps:  float64(res.AvgRate),
		AvgLatencyMs: res.AvgLatency.Millis(),
		Elapsed:      elapsed,
		raw:          res.Strategy,
		sc:           sc,
	}
	diag := &Diagnostics{
		GameUpdates:         res.Phase1.Updates,
		GameConverged:       res.Phase1.Converged,
		FrozenUsers:         res.Phase1.Frozen,
		Replicas:            res.Replicas,
		LatencyReductionSec: float64(res.LatencyReduction),
	}
	return st, diag, nil
}

// SimReport summarizes a discrete-event execution of a strategy.
type SimReport struct {
	// AvgLatencyMs is the measured average over all requests.
	AvgLatencyMs float64
	// AnalyticAvgMs is Eq. 9's prediction for comparison.
	AnalyticAvgMs float64
	// CloudRequests counts requests served from the cloud.
	CloudRequests int
	// MaxInflation is the worst measured/analytic latency ratio
	// (1 = no queueing delay anywhere).
	MaxInflation float64
	// Events is the number of simulation events processed.
	Events int
}

// Simulate executes the strategy's transfers on the discrete-event
// simulator with request arrivals spread uniformly over spreadSeconds
// (0 = synchronized burst).
func (sc *Scenario) Simulate(st *Strategy, spreadSeconds float64, seed uint64) *SimReport {
	rep := des.Simulate(sc.in, st.raw, des.SimOptions{Spread: units.Seconds(spreadSeconds)}, rng.New(seed))
	return &SimReport{
		AvgLatencyMs:  rep.Avg.Millis(),
		AnalyticAvgMs: rep.AnalyticAvg.Millis(),
		CloudRequests: rep.CloudRequests,
		MaxInflation:  rep.MaxQueueingInflation(sc.in, st.raw),
		Events:        rep.Events,
	}
}

// Inspect renders a human-readable summary of the scenario's layout
// and, when st is non-nil, the strategy's spectrum occupancy and rate
// fairness.
func Inspect(sc *Scenario, st *Strategy) string {
	if st == nil {
		return inspect.Report(sc.in, nil)
	}
	return inspect.Report(sc.in, &st.raw)
}

// DOT renders the scenario's edge network (with an optional strategy
// overlay) as a Graphviz graph.
func DOT(sc *Scenario, st *Strategy) string {
	if st == nil {
		return inspect.DOT(sc.in, nil)
	}
	return inspect.DOT(sc.in, &st.raw)
}

// Compare runs every approach on the scenario, in legend order.
func (sc *Scenario) Compare(seed uint64) ([]*Strategy, error) {
	var out []*Strategy
	for _, name := range Approaches() {
		st, err := sc.Solve(name, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}
