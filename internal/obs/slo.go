package obs

// SLO objects implement the multi-window burn-rate method: an objective
// ("at least Target of requests are good") defines an error budget of
// 1-Target, and the burn rate over a trailing window is the window's
// error rate divided by that budget — burn 1 means the budget is being
// consumed exactly at the sustainable pace, burn 14 means it would be
// gone in 1/14th of the period. An alert ("breach") requires BOTH a fast
// window and a slow window to exceed their thresholds at once: the fast
// window gives low detection latency, the slow window suppresses
// one-round blips, which is exactly the classic fast/slow burn-rate
// pairing. Evaluation periods are whatever the caller feeds Observe —
// the serving data plane feeds one observation per virtual round, so the
// whole engine runs on the virtual clock and stays deterministic.

// The two trailing windows, in evaluation periods, and their breach
// burn-rate thresholds: the conventional page-level pair.
const (
	fastWindow = 5
	slowWindow = 30
	fastBurn   = 14.4
	slowBurn   = 6.0
)

// SLOConfig declares one objective.
type SLOConfig struct {
	// Name identifies the objective ("availability", "latency").
	Name string
	// Target is the good-fraction objective in (0,1), e.g. 0.999
	// (the default).
	Target float64
}

// SLOStatus is the result of one Observe: the two window burn rates and
// whether both crossed their thresholds.
type SLOStatus struct {
	FastBurn float64 `json:"fast_burn"`
	SlowBurn float64 `json:"slow_burn"`
	Breach   bool    `json:"breach"`
}

// SLOSnapshot is the externally visible state of one SLO — the /slo
// endpoint's and the soak report's shape.
type SLOSnapshot struct {
	Name       string  `json:"name"`
	Target     float64 `json:"target"`
	Good       int64   `json:"good"`
	Total      int64   `json:"total"`
	Compliance float64 `json:"compliance"`
	FastBurn   float64 `json:"fast_burn"`
	SlowBurn   float64 `json:"slow_burn"`
	// MaxFastBurn / MaxSlowBurn are the worst burn rates seen so far;
	// Breaches counts the periods in which both windows burned at once.
	MaxFastBurn float64 `json:"max_fast_burn"`
	MaxSlowBurn float64 `json:"max_slow_burn"`
	Breaches    int64   `json:"breaches"`
}

// SLO tracks one objective over a sliding window of evaluation periods.
// Not safe for concurrent use: the engines call Observe from their
// serialized round barriers, which is also what makes the burn-rate
// trajectory deterministic.
type SLO struct {
	cfg      SLOConfig
	good     []int64 // circular, slowWindow periods
	total    []int64
	pos      int
	filled   int
	cumGood  int64
	cumTotal int64

	last     SLOStatus
	maxFast  float64
	maxSlow  float64
	breaches int64
}

// NewSLO builds an SLO from cfg; a Target outside (0,1) takes the
// default.
func NewSLO(cfg SLOConfig) *SLO {
	if cfg.Target <= 0 || cfg.Target >= 1 {
		cfg.Target = 0.999
	}
	return &SLO{
		cfg:   cfg,
		good:  make([]int64, slowWindow),
		total: make([]int64, slowWindow),
	}
}

// Config reports the resolved configuration.
func (s *SLO) Config() SLOConfig { return s.cfg }

// windowBurn computes the burn rate over the trailing n periods.
func (s *SLO) windowBurn(n int) float64 {
	if n > s.filled {
		n = s.filled
	}
	var good, total int64
	for i := 0; i < n; i++ {
		idx := (s.pos - 1 - i + len(s.good)) % len(s.good)
		good += s.good[idx]
		total += s.total[idx]
	}
	if total == 0 {
		return 0
	}
	errRate := 1 - float64(good)/float64(total)
	return errRate / (1 - s.cfg.Target)
}

// Observe folds one evaluation period (good out of total requests met
// the objective) and returns the updated burn-rate status.
func (s *SLO) Observe(good, total int64) SLOStatus {
	if s == nil {
		return SLOStatus{}
	}
	s.good[s.pos] = good
	s.total[s.pos] = total
	s.pos = (s.pos + 1) % len(s.good)
	if s.filled < len(s.good) {
		s.filled++
	}
	s.cumGood += good
	s.cumTotal += total

	st := SLOStatus{
		FastBurn: s.windowBurn(fastWindow),
		SlowBurn: s.windowBurn(slowWindow),
	}
	st.Breach = st.FastBurn >= fastBurn && st.SlowBurn >= slowBurn
	if st.FastBurn > s.maxFast {
		s.maxFast = st.FastBurn
	}
	if st.SlowBurn > s.maxSlow {
		s.maxSlow = st.SlowBurn
	}
	if st.Breach {
		s.breaches++
	}
	s.last = st
	return st
}

// Snapshot reports the SLO's cumulative and windowed state.
func (s *SLO) Snapshot() SLOSnapshot {
	if s == nil {
		return SLOSnapshot{}
	}
	snap := SLOSnapshot{
		Name:        s.cfg.Name,
		Target:      s.cfg.Target,
		Good:        s.cumGood,
		Total:       s.cumTotal,
		FastBurn:    s.last.FastBurn,
		SlowBurn:    s.last.SlowBurn,
		MaxFastBurn: s.maxFast,
		MaxSlowBurn: s.maxSlow,
		Breaches:    s.breaches,
	}
	if s.cumTotal > 0 {
		snap.Compliance = float64(s.cumGood) / float64(s.cumTotal)
	}
	return snap
}
