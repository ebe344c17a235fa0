package serve

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"slices"
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

	// spans are the ranges of the soak's latency buffer that the phase's
	// rounds filled, in round order; adjacent rounds share one span.
	spans []span
}

// span is a [start, end) range of SoakReport.latMs.
type span struct{ start, end int }

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

	everFaulted  bool
	streak       int
	latMs        []float64 // every request's latency in ms, in fold order
	roundStart   int       // index in latMs of the current round's first request
	lastDegraded int
}

// newSoakReport sizes the latency buffer and the timeline for the whole
// soak up front, so the round barrier never grows them.
func newSoakReport(opt *Options, rounds, perRound int) *SoakReport {
	return &SoakReport{
		Seed:      opt.Seed,
		RPS:       opt.RPS,
		TickS:     float64(opt.Tick),
		DurationS: float64(opt.Duration),
		Rounds:    rounds,
		PerRound:  perRound,
		HedgeOn:   opt.Hedge > 0,
		Timeline:  make([]RoundStat, 0, rounds),
		latMs:     make([]float64, 0, rounds*perRound),
	}
}

// observeOutcome appends one outcome's latency to the soak's latency
// buffer. foldRound calls it for every request, in request order.
func (sr *SoakReport) observeOutcome(o *RequestOutcome) {
	sr.latMs = append(sr.latMs, o.Latency.Millis())
}

// roundLatencies returns the current round's latencies in request
// order, as far as foldRound has appended them.
func (sr *SoakReport) roundLatencies() []float64 { return sr.latMs[sr.roundStart:] }

// observeRound classifies the finished round into a phase and merges
// the round's aggregate in. RunSoak calls it after foldRound, so the
// round's latencies are all in the buffer.
func (sr *SoakReport) observeRound(r int, now units.Seconds, agg roundAgg, fvEmpty bool, epoch int) {
	phase := PhaseHealthy
	switch {
	case !fvEmpty:
		phase = PhaseFaulted
		sr.everFaulted = true
	case sr.everFaulted:
		phase = PhaseRecovered
	}

	ps := sr.Phase(phase)
	if ps == nil {
		ps = &PhaseStats{Phase: phase}
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
	end := len(sr.latMs)
	if last := len(ps.spans) - 1; last >= 0 && ps.spans[last].end == sr.roundStart {
		ps.spans[last].end = end
	} else {
		ps.spans = append(ps.spans, span{sr.roundStart, end})
	}

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
		sum := 0.0
		for _, v := range sr.latMs[sr.roundStart:end] {
			sum += v
		}
		mean = sum / float64(agg.requests)
	}
	sr.Timeline = append(sr.Timeline, RoundStat{
		Round: r, Phase: phase, Epoch: epoch,
		Degraded: agg.degraded, Open: agg.open, MeanMs: mean,
	})

	sr.roundStart = end
}

// finish seals the report: percentiles per phase, breaker and
// re-planner totals, throughput, determinism fingerprint.
func (sr *SoakReport) finish(e *Engine, wall time.Duration, hash uint64) {
	var gathered []float64
	for _, ps := range sr.Phases {
		// A phase whose rounds ran back to back is one span, summarised
		// in place; only a phase that recurs is gathered into one slice.
		lat := sr.latMs[ps.spans[0].start:ps.spans[0].end]
		if len(ps.spans) > 1 {
			gathered = gathered[:0]
			for _, sp := range ps.spans {
				gathered = append(gathered, sr.latMs[sp.start:sp.end]...)
			}
			lat = gathered
		}
		ps.summarizeLatencies(lat)
		ps.spans = nil
	}
	sr.latMs = nil
	e.mu.Lock()
	for _, b := range e.breaker {
		sr.BreakerOpens += b.Opens()
		sr.BreakerTransitions += b.Transitions()
	}
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

// summarizeLatencies fills the phase's latency fields from its
// requests' latencies, given in fold order; it reorders lat. MeanMs is
// the fold-order sum over n. The percentiles are nearest-rank order
// statistics, each placed by selection; ranks only grow, so each
// selection runs right of the previous rank, over about
// n + n/2 + n/10 + n/100 values in all. Values order as in
// sort.Float64s (NaN lowest), so every percentile and MaxMs is the
// value a sorted copy holds at that rank.
func (ps *PhaseStats) summarizeLatencies(lat []float64) {
	n := len(lat)
	if n == 0 {
		return
	}
	// One pass in fold order: the sum, the max, and any NaN moved to
	// the front, where sort.Float64s puts it, so selection compares
	// with < alone.
	sum, maxMs, nans := 0.0, lat[0], 0
	for i, v := range lat {
		sum += v
		switch {
		case v != v:
			lat[i], lat[nans] = lat[nans], v
			nans++
		case !(v <= maxMs): // also replaces a NaN lat[0]
			maxMs = v
		}
	}
	ps.MeanMs = sum / float64(n)
	ps.MaxMs = maxMs
	from := nans
	for _, p := range [...]struct {
		q   float64
		dst *float64
	}{{0.50, &ps.P50Ms}, {0.90, &ps.P90Ms}, {0.99, &ps.P99Ms}, {0.999, &ps.P999Ms}} {
		k := rankIndex(p.q, n)
		if k >= from { // else k is a NaN or the previous rank, already in place
			selectKth(lat[from:], k-from)
			from = k + 1
		}
		*p.dst = lat[k]
	}
}

// rankIndex is the nearest-rank index of the q-quantile among n
// ascending samples, clamped to [0, n-1].
func rankIndex(q float64, n int) int {
	return min(max(int(q*float64(n)+0.5)-1, 0), n-1)
}

// selectKth reorders a, which holds no NaN, so that a[k] holds the
// value an ascending sort would put there, with nothing greater before
// it and nothing less after it. It is a quickselect with a
// median-of-three pivot and a branchless Lomuto partition: a
// comparison's outcome feeds an add, not a jump, so unpredictable data
// costs no mispredicted branches. When a pivot is the least value of
// its range, a second pass gathers the values equal to it, which ends
// the search if k falls among them and otherwise removes them all: a
// run of ties cannot stall it. A range that is still large after
// 2·log2(len(a)) partitions, or is small, is sorted instead.
func selectKth(a []float64, k int) {
	lo, hi := 0, len(a)
	for budget := 2 * bits.Len(uint(len(a))); hi-lo > 12 && budget > 0; budget-- {
		p := median3(a[lo], a[lo+(hi-lo)/2], a[hi-1])
		lt := lo // a[lo:lt] < p <= a[lt:i]
		for i := lo; i < hi; i++ {
			v := a[i]
			a[i], a[lt] = a[lt], v
			d := 0
			if v < p {
				d = 1
			}
			lt += d
		}
		switch {
		case k < lt:
			hi = lt
			continue
		case lt > lo:
			lo = lt
			continue
		}
		eq := lo // p is the least value: a[lo:eq] == p < a[eq:i]
		for i := lo; i < hi; i++ {
			v := a[i]
			a[i], a[eq] = a[eq], v
			d := 1
			if p < v {
				d = 0
			}
			eq += d
		}
		if k < eq {
			return
		}
		lo = eq
	}
	slices.Sort(a[lo:hi])
}

// median3 returns the median of three values.
func median3(x, y, z float64) float64 {
	if y < x {
		x, y = y, x
	}
	if z < y {
		y = z
		if y < x {
			y = x
		}
	}
	return y
}
