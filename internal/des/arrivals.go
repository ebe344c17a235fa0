package des

import (
	"idde/internal/rng"
	"idde/internal/units"
)

// uniform spreads request arrivals evenly over a window — the temporal
// dimension the analytic Eq. 9 abstracts away; Window 0 degenerates to
// a synchronized burst.
type uniform struct {
	Window units.Seconds
}

// Times draws n arrival offsets (seconds ≥ 0), unsorted.
func (u uniform) Times(n int, s *rng.Stream) []units.Seconds {
	out := make([]units.Seconds, n)
	if u.Window <= 0 {
		return out
	}
	for i := range out {
		out[i] = units.Seconds(s.Uniform(0, float64(u.Window)))
	}
	return out
}
