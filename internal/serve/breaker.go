package serve

import (
	"fmt"

	"idde/internal/units"
)

// BreakerState is one of the three circuit-breaker states.
type BreakerState int

const (
	// Closed admits every request (the healthy state).
	Closed BreakerState = iota
	// Open rejects every request until the open timeout elapses.
	Open
	// HalfOpen admits a seeded fraction of requests as probes; enough
	// consecutive probe successes close the breaker, one probe failure
	// re-opens it.
	HalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

const (
	// probeFraction is the fraction of requests admitted as probes
	// while half-open, decided by a seeded per-request draw so admission
	// is deterministic and order-free.
	probeFraction = 0.2
	// probeSuccesses is the number of consecutive successful probes
	// that closes a half-open breaker.
	probeSuccesses = 3
)

// admits is the breaker admission rule every routed request runs: closed
// admits everyone, open admits no one, and half-open admits the request
// as a probe when its seeded uniform draw in [0,1) is below
// probeFraction.
func (s BreakerState) admits(probeDraw float64) bool {
	switch s {
	case Closed:
		return true
	case HalfOpen:
		return probeDraw < probeFraction
	default:
		return false
	}
}

// BreakerConfig tunes the per-server circuit breakers.
type BreakerConfig struct {
	// FailureThreshold is the number of consecutive failed attempts that
	// trips a closed breaker open (default 5).
	FailureThreshold int
	// OpenTimeout is how long an open breaker rejects before moving to
	// half-open, in virtual seconds (default 2s).
	OpenTimeout units.Seconds
}

// withDefaults fills the zero fields.
func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 5
	}
	if c.OpenTimeout <= 0 {
		c.OpenTimeout = 2
	}
	return c
}

// Breaker is one server's circuit breaker. It runs on the engine's
// virtual clock: state transitions depend only on the sequence of
// recorded outcomes and the times they are recorded at, which is what
// keeps the whole data plane deterministic for a fixed seed. A Breaker
// is not safe for concurrent use: the engine guards its breakers with
// its own lock, which the round barrier already holds while it records.
type Breaker struct {
	cfg BreakerConfig

	state       BreakerState
	consecFail  int
	probeOK     int
	openedAt    units.Seconds
	transitions int64
	opens       int64
}

// NewBreaker returns a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// State reports the breaker's state at virtual time now, applying the
// open→half-open timeout transition if it is due.
func (b *Breaker) State(now units.Seconds) BreakerState {
	b.tick(now)
	return b.state
}

// tick applies time-driven transitions.
func (b *Breaker) tick(now units.Seconds) {
	if b.state == Open && now >= b.openedAt+b.cfg.OpenTimeout {
		b.state = HalfOpen
		b.probeOK = 0
		b.transitions++
	}
}

// Record folds one attempt outcome into the breaker at virtual time now.
// The soak loop replays outcomes in deterministic request order at each
// round barrier.
func (b *Breaker) Record(now units.Seconds, success bool) {
	b.tick(now)
	if success {
		b.consecFail = 0
		if b.state == HalfOpen {
			b.probeOK++
			if b.probeOK >= probeSuccesses {
				b.state = Closed
				b.transitions++
			}
		}
		return
	}
	b.consecFail++
	switch b.state {
	case Closed:
		if b.consecFail >= b.cfg.FailureThreshold {
			b.open(now)
		}
	case HalfOpen:
		b.open(now)
	case Open:
		// Late failure from an in-flight attempt; stay open, refresh the
		// timeout so a failing server is not probed immediately.
		b.openedAt = now
	}
}

// open trips the breaker.
func (b *Breaker) open(now units.Seconds) {
	b.state = Open
	b.openedAt = now
	b.probeOK = 0
	b.transitions++
	b.opens++
}

// Transitions reports the number of state changes so far.
func (b *Breaker) Transitions() int64 {
	return b.transitions
}

// Opens reports how many times the breaker tripped open.
func (b *Breaker) Opens() int64 {
	return b.opens
}
