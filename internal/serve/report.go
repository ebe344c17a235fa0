package serve

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"idde/internal/units"
)

// Phase names for the soak accounting. Phases follow the fault
// timeline: a round is "faulted" while the campaign injects faults,
// "recovered" once the faults lift, and "healthy" before the first
// fault. Degradation from background loss (or from half-open breakers
// throttling a re-admitted server) is accounted inside whatever phase
// it lands in — the recovered phase's tail latency is exactly where the
// cost of cautious re-admission shows up.
const (
	PhaseHealthy   = "healthy"
	PhaseFaulted   = "faulted"
	PhaseRecovered = "recovered"
)

// PhaseStats aggregates the rounds classified into one phase.
type PhaseStats struct {
	Phase    string `json:"phase"`
	Rounds   int    `json:"rounds"`
	Requests int64  `json:"requests"`
	Degraded int64  `json:"degraded"`

	Retries          int64 `json:"retries"`
	Failovers        int64 `json:"failovers"`
	CloudFallbacks   int64 `json:"cloud_fallbacks"`
	DeadlineExceeded int64 `json:"deadline_exceeded"`
	Hedged           int64 `json:"hedged"`
	CloudServed      int64 `json:"cloud_served"`

	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	MaxMs  float64 `json:"max_ms"`

	// LatencyDeltaS and BackhaulMB price the phase's degradations:
	// measured-minus-intended latency (Eq. 17's term under downgrade)
	// and unplanned cloud backhaul traffic.
	LatencyDeltaS float64 `json:"latency_delta_s"`
	BackhaulMB    float64 `json:"backhaul_mb"`

	latencies []float64
}

// RoundStat is one row of the compact per-round timeline.
type RoundStat struct {
	Round    int     `json:"round"`
	Phase    string  `json:"phase"`
	Epoch    int     `json:"epoch"`
	Degraded int     `json:"degraded"`
	Open     int     `json:"open"`
	MeanMs   float64 `json:"mean_ms"`
}

// SoakReport is the full accounting of one serving soak.
type SoakReport struct {
	Seed      uint64  `json:"seed"`
	RPS       int     `json:"rps"`
	TickS     float64 `json:"tick_s"`
	DurationS float64 `json:"duration_s"`
	Rounds    int     `json:"rounds"`
	PerRound  int     `json:"per_round"`
	HedgeOn   bool    `json:"hedge_on"`

	// Issued == Served always (every request terminates, at worst at the
	// cloud); Dropped is kept explicit so the no-dropped-forever claim is
	// checkable, not implicit.
	Issued  int64 `json:"issued"`
	Served  int64 `json:"served"`
	Dropped int64 `json:"dropped"`

	Retries          int64 `json:"retries"`
	Failovers        int64 `json:"failovers"`
	CloudFallbacks   int64 `json:"cloud_fallbacks"`
	DeadlineExceeded int64 `json:"deadline_exceeded"`
	Hedged           int64 `json:"hedged"`
	CloudServed      int64 `json:"cloud_served"`
	Degraded         int64 `json:"degraded"`

	LatencyDeltaS float64 `json:"latency_delta_s"`
	BackhaulMB    float64 `json:"backhaul_mb"`

	Replans      int64 `json:"replans"`
	ReplanPanics int64 `json:"replan_panics"`
	ReplanErrors int64 `json:"replan_errors"`
	FinalEpoch   int   `json:"final_epoch"`

	BreakerOpens       int64 `json:"breaker_opens"`
	BreakerTransitions int64 `json:"breaker_transitions"`

	// MaxDegradedStreak is the longest run of consecutive rounds with at
	// least one degraded request — the measured heal bound, in rounds.
	MaxDegradedStreak int  `json:"max_degraded_streak"`
	HealedAtEnd       bool `json:"healed_at_end"`

	// SLOs is the burn-rate engine's final accounting (availability,
	// latency), per chaos epoch; empty when Options.SLO is disabled.
	SLOs []SLOReport `json:"slos,omitempty"`
	// FlightSampled/FlightEvicted/FlightDumps account the flight
	// recorder: exemplars merged into the ring, exemplars the capacity
	// bound dropped again, and triggered dumps written to the sink.
	FlightSampled int64 `json:"flight_sampled,omitempty"`
	FlightEvicted int64 `json:"flight_evicted,omitempty"`
	FlightDumps   int64 `json:"flight_dumps,omitempty"`

	// OutcomeHash fingerprints every request outcome in fold order;
	// equal seeds (with hedging off) must produce equal hashes, with
	// flight sampling on or off.
	OutcomeHash string `json:"outcome_hash"`

	WallSeconds float64 `json:"wall_seconds"`
	// VirtualRPS is the sustained rate in virtual time (== RPS by
	// construction); WallRPS is the evaluator's real throughput.
	VirtualRPS float64 `json:"virtual_rps"`
	WallRPS    float64 `json:"wall_rps"`

	Phases   []*PhaseStats `json:"phases"`
	Timeline []RoundStat   `json:"timeline,omitempty"`

	phaseIdx     map[string]*PhaseStats
	everFaulted  bool
	streak       int
	roundLatMs   []float64
	roundLatSum  float64
	lastDegraded int
}

func newSoakReport(opt *Options, rounds, perRound int) *SoakReport {
	return &SoakReport{
		Seed:       opt.Seed,
		RPS:        opt.RPS,
		TickS:      float64(opt.Tick),
		DurationS:  float64(opt.Duration),
		Rounds:     rounds,
		PerRound:   perRound,
		HedgeOn:    opt.Hedge > 0,
		phaseIdx:   map[string]*PhaseStats{},
		roundLatMs: make([]float64, 0, perRound),
	}
}

// observeOutcome accumulates one outcome into the round scratch buffer
// (called from the fold, in request order).
func (sr *SoakReport) observeOutcome(o *RequestOutcome) {
	ms := o.Latency.Millis()
	sr.roundLatMs = append(sr.roundLatMs, ms)
	sr.roundLatSum += ms
}

// observeRound classifies the finished round into a phase and merges
// the round's aggregate in.
func (sr *SoakReport) observeRound(r int, now units.Seconds, agg roundAgg, fvEmpty bool, epoch int) {
	phase := PhaseHealthy
	switch {
	case !fvEmpty:
		phase = PhaseFaulted
		sr.everFaulted = true
	case sr.everFaulted:
		phase = PhaseRecovered
	}

	ps := sr.phaseIdx[phase]
	if ps == nil {
		ps = &PhaseStats{Phase: phase}
		sr.phaseIdx[phase] = ps
		sr.Phases = append(sr.Phases, ps)
	}
	ps.Rounds++
	ps.Requests += int64(agg.requests)
	ps.Degraded += int64(agg.degraded)
	ps.Retries += int64(agg.retries)
	ps.Failovers += int64(agg.failovers)
	ps.CloudFallbacks += int64(agg.cloudFallbacks)
	ps.DeadlineExceeded += int64(agg.deadlineExceeded)
	ps.Hedged += int64(agg.hedged)
	ps.CloudServed += int64(agg.cloudServed)
	ps.LatencyDeltaS += agg.latencyDeltaS
	ps.BackhaulMB += agg.backhaulMB
	ps.latencies = append(ps.latencies, sr.roundLatMs...)

	sr.Issued += int64(agg.requests)
	sr.Served += int64(agg.requests)
	sr.Retries += int64(agg.retries)
	sr.Failovers += int64(agg.failovers)
	sr.CloudFallbacks += int64(agg.cloudFallbacks)
	sr.DeadlineExceeded += int64(agg.deadlineExceeded)
	sr.Hedged += int64(agg.hedged)
	sr.CloudServed += int64(agg.cloudServed)
	sr.Degraded += int64(agg.degraded)
	sr.LatencyDeltaS += agg.latencyDeltaS
	sr.BackhaulMB += agg.backhaulMB

	if agg.degraded > 0 {
		sr.streak++
		if sr.streak > sr.MaxDegradedStreak {
			sr.MaxDegradedStreak = sr.streak
		}
	} else {
		sr.streak = 0
	}
	sr.lastDegraded = agg.degraded

	mean := 0.0
	if agg.requests > 0 {
		mean = sr.roundLatSum / float64(agg.requests)
	}
	sr.Timeline = append(sr.Timeline, RoundStat{
		Round: r, Phase: phase, Epoch: epoch,
		Degraded: agg.degraded, Open: agg.open, MeanMs: mean,
	})

	sr.roundLatMs = sr.roundLatMs[:0]
	sr.roundLatSum = 0
}

// finish seals the report: percentiles per phase, breaker and
// re-planner totals, throughput, determinism fingerprint.
func (sr *SoakReport) finish(e *Engine, wall time.Duration, hash uint64) {
	for _, ps := range sr.Phases {
		sort.Float64s(ps.latencies)
		n := len(ps.latencies)
		if n > 0 {
			sum := 0.0
			for _, v := range ps.latencies {
				sum += v
			}
			ps.MeanMs = sum / float64(n)
			ps.P50Ms = quantile(ps.latencies, 0.50)
			ps.P90Ms = quantile(ps.latencies, 0.90)
			ps.P99Ms = quantile(ps.latencies, 0.99)
			ps.P999Ms = quantile(ps.latencies, 0.999)
			ps.MaxMs = ps.latencies[n-1]
		}
		ps.latencies = nil
	}
	for _, b := range e.breaker {
		sr.BreakerOpens += b.Opens()
		sr.BreakerTransitions += b.Transitions()
	}
	e.mu.Lock()
	sr.Replans = e.stats.replans
	sr.ReplanPanics = e.stats.replanPanics
	sr.ReplanErrors = e.stats.replanErrors
	e.mu.Unlock()
	sr.FinalEpoch = e.plan.load().Epoch
	sr.SLOs = e.sloReports()
	sr.FlightSampled = e.flight.Sampled()
	sr.FlightEvicted = e.flight.Evicted()
	sr.FlightDumps = e.flightDumps
	sr.HealedAtEnd = sr.lastDegraded == 0
	sr.Dropped = sr.Issued - sr.Served
	sr.OutcomeHash = fmt.Sprintf("%016x", hash)
	sr.WallSeconds = wall.Seconds()
	if virt := float64(sr.Rounds) * sr.TickS; virt > 0 {
		sr.VirtualRPS = float64(sr.Issued) / virt
	}
	if sr.WallSeconds > 0 {
		sr.WallRPS = float64(sr.Issued) / sr.WallSeconds
	}
}

// Phase returns the named phase's stats, or nil.
func (sr *SoakReport) Phase(name string) *PhaseStats {
	for _, ps := range sr.Phases {
		if ps.Phase == name {
			return ps
		}
	}
	return nil
}

// JSON renders the report.
func (sr *SoakReport) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(sr, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// quantile returns the q-quantile of sorted (ascending) samples using
// the nearest-rank method.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	idx := int(q*float64(n)+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx]
}
