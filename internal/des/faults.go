package des

import (
	"math"

	"idde/internal/units"
)

// Faults is the simulator's wired-hop fault model; the zero value is
// the reliable mode. Each wired hop attempt can be lost (detected at the end of the attempt, as a
// checksum failure would be) or stalled, lost attempts are retried with
// exponential backoff, and a transfer that exhausts its retry budget at
// any hop abandons its source and fails over to the next-best replica
// per Eq. 8 — or to the cloud when no edge source remains.
//
// Over-the-air delivery (coverage-local and server-local modes) and the
// cloud ingress are not subject to loss: wired backhaul is where
// correlated outages bite, and cloud degradation is modelled separately
// as an ingress-rate brownout. This keeps every simulation terminating
// by construction — each request tries each distinct edge source at
// most once, each hop at most 1+MaxRetries times, and the cloud always
// completes.
type Faults struct {
	// LossProb is the per-hop attempt loss probability on wired links,
	// in [0,1).
	LossProb float64
	// StallProb is the per-hop attempt stall probability; a stalled
	// attempt completes StallTime late but is not lost.
	StallProb float64
	// StallTime is the extra latency of a stalled attempt.
	StallTime units.Seconds
	// MaxRetries bounds retries per hop after the first attempt
	// (default 3).
	MaxRetries int
	// Backoff is the base delay before the first retry, doubling on
	// every subsequent one (default 2ms).
	Backoff units.Seconds
}

// normalized returns the config with defaults applied and probabilities
// clamped to sane ranges.
func (f Faults) normalized() Faults {
	if f.MaxRetries <= 0 {
		f.MaxRetries = 3
	}
	if f.Backoff <= 0 {
		f.Backoff = units.Seconds(0.002)
	}
	f.LossProb = clamp01(f.LossProb)
	f.StallProb = clamp01(f.StallProb)
	if f.StallTime < 0 {
		f.StallTime = 0
	}
	return f
}

// Enabled reports whether the config injects any faults at all.
func (f Faults) Enabled() bool {
	return f.LossProb > 0 || f.StallProb > 0
}

// retryDelay is the backoff before retry number attempt+1 (0-based).
func (f Faults) retryDelay(attempt int) units.Seconds {
	return units.Seconds(float64(f.Backoff) * math.Pow(2, float64(attempt)))
}

func clamp01(p float64) float64 {
	switch {
	case math.IsNaN(p), p < 0:
		return 0
	case p >= 1:
		// A loss probability of exactly 1 would make every retry
		// pointless but still terminates; cap just below to keep
		// expected retry math finite.
		return 0.999999
	default:
		return p
	}
}
