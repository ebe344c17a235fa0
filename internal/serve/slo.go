package serve

import (
	"io"

	"idde/internal/obs"
	"idde/internal/units"
)

// SLOOptions configures the serving data plane's burn-rate engine: two
// objectives — availability (a request is good when it was served as
// planned, i.e. not Degraded) and latency (good when its virtual latency
// is at or under LatencyThreshold) — evaluated at every round barrier
// with the multi-window fast/slow burn-rate rule, and accounted per
// chaos epoch so a campaign's fault windows can be compared against its
// healthy ones. The windows and breach thresholds are obs's constants
// (5 and 30 rounds, burn rates 14.4 and 6). Everything runs on the
// virtual clock, so burn-rate trajectories (and dump triggers) are
// deterministic for a fixed seed.
type SLOOptions struct {
	// Enabled turns the engine on; all other fields default when zero.
	Enabled bool
	// AvailabilityTarget is the availability objective (default 0.999).
	AvailabilityTarget float64
	// LatencyTarget is the latency objective (default 0.99).
	LatencyTarget float64
	// LatencyThreshold is the "good request" latency bound
	// (default Deadline/8 — generous against a healthy edge hit, tight
	// against retry storms and cloud fallbacks).
	LatencyThreshold units.Seconds
}

// withDefaults resolves the zero fields against the request deadline.
func (s SLOOptions) withDefaults(deadline units.Seconds) SLOOptions {
	if !s.Enabled {
		return s
	}
	if s.AvailabilityTarget <= 0 || s.AvailabilityTarget >= 1 {
		s.AvailabilityTarget = 0.999
	}
	if s.LatencyTarget <= 0 || s.LatencyTarget >= 1 {
		s.LatencyTarget = 0.99
	}
	if s.LatencyThreshold <= 0 {
		s.LatencyThreshold = deadline / 8
	}
	return s
}

// epochCell accumulates one SLO's good/total counts inside one chaos
// epoch.
type epochCell struct {
	good, total int64
}

// EpochSLO is one chaos epoch's slice of an SLO's accounting.
type EpochSLO struct {
	Epoch      int     `json:"epoch"`
	StartS     float64 `json:"start_s"`
	Good       int64   `json:"good"`
	Total      int64   `json:"total"`
	Compliance float64 `json:"compliance"`
}

// SLOReport is one SLO's final accounting in the soak report: the
// cumulative snapshot, the per-chaos-epoch breakdown, and — for the
// latency SLO — the threshold plus streaming quantile estimates from the
// engine's log2-bucket histogram (factor-of-2 error bound; the exact
// per-phase percentiles live in Phases).
type SLOReport struct {
	obs.SLOSnapshot
	ThresholdMs float64    `json:"threshold_ms,omitempty"`
	EstP50Ms    float64    `json:"est_p50_ms,omitempty"`
	EstP99Ms    float64    `json:"est_p99_ms,omitempty"`
	EstP999Ms   float64    `json:"est_p999_ms,omitempty"`
	Epochs      []EpochSLO `json:"epochs,omitempty"`
}

// observeSLOs folds one round into the SLO engine at the barrier:
// the round's latencies (lat, in ms) into the latency histogram, both
// objectives' burn rates, and the per-epoch cells. It returns the
// dump-trigger reasons the round raised (burn-rate breaches). No-op
// (nil) when SLOs are disabled.
func (e *Engine) observeSLOs(now units.Seconds, agg roundAgg, lat []float64) []string {
	if len(e.slos) == 0 {
		return nil
	}
	e.latHist.ObserveAll(lat)
	e.mu.Lock()
	c := e.campaign
	e.mu.Unlock()
	ep := c.EpochAt(now)

	e.sloMu.Lock()
	defer e.sloMu.Unlock()
	total := int64(agg.requests)
	goods := [2]int64{total - int64(agg.degraded), int64(agg.latencyOK)}
	var reasons []string
	for i, s := range e.slos {
		if st := s.Observe(goods[i], total); st.Breach {
			reasons = append(reasons, "slo-burn:"+s.Config().Name)
		}
		for len(e.epochCells[i]) <= ep {
			e.epochCells[i] = append(e.epochCells[i], epochCell{})
		}
		e.epochCells[i][ep].good += goods[i]
		e.epochCells[i][ep].total += total
	}
	return reasons
}

// SLOSnapshots reports the current state of every configured SLO — the
// GET /slo payload. Empty when SLOs are disabled.
func (e *Engine) SLOSnapshots() []obs.SLOSnapshot {
	e.sloMu.Lock()
	defer e.sloMu.Unlock()
	out := make([]obs.SLOSnapshot, 0, len(e.slos))
	for _, s := range e.slos {
		out = append(out, s.Snapshot())
	}
	return out
}

// sloReports seals the per-SLO accounting for the soak report.
func (e *Engine) sloReports() []SLOReport {
	e.sloMu.Lock()
	defer e.sloMu.Unlock()
	out := make([]SLOReport, 0, len(e.slos))
	for i, s := range e.slos {
		r := SLOReport{SLOSnapshot: s.Snapshot()}
		if s.Config().Name == "latency" {
			r.ThresholdMs = e.opt.SLO.LatencyThreshold.Millis()
			r.EstP50Ms = e.latHist.Quantile(0.50)
			r.EstP99Ms = e.latHist.Quantile(0.99)
			r.EstP999Ms = e.latHist.Quantile(0.999)
		}
		for ep, cell := range e.epochCells[i] {
			es := EpochSLO{Epoch: ep, Good: cell.good, Total: cell.total}
			if ep < len(e.epochStarts) {
				es.StartS = float64(e.epochStarts[ep])
			}
			if cell.total > 0 {
				es.Compliance = float64(cell.good) / float64(cell.total)
			}
			r.Epochs = append(r.Epochs, es)
		}
		out = append(out, r)
	}
	return out
}

// DumpFlight writes a triggered flight dump (header + the retained
// exemplar ring as JSONL) to w, stamped with the engine's current round
// and virtual time. Used by the recovery gate and the live front-end;
// a disabled recorder writes nothing.
func (e *Engine) DumpFlight(w io.Writer, reason string) error {
	if e.flight == nil {
		return nil
	}
	e.mu.Lock()
	now := e.now
	e.mu.Unlock()
	round := int(float64(now) / float64(e.opt.Tick))
	return e.flight.WriteDump(w, reason, round, float64(now))
}
