// Package radio implements the user–server wireless communication model
// of the paper (§2.2): distance-based channel gain, the
// Signal-to-Interference-plus-Noise Ratio of Eq. (2), the Shannon data
// rate of Eq. (3), and the Lemma 2 interference bound that parametrizes
// the IDDE-U potential function.
//
// The package is pure physics — stateless functions over scalar
// quantities. Bookkeeping of which user sits on which channel (and the
// resulting interference sums) lives in internal/model, which feeds the
// aggregated power terms into these formulas.
package radio

import (
	"math"

	"idde/internal/units"
)

// Model captures the propagation constants of §4.2: the frequency
// dependent factor η, the path-loss exponent, and the additive white
// Gaussian noise floor ω.
type Model struct {
	// Eta is the frequency-dependent factor η in g = η·H^−loss.
	Eta float64
	// Loss is the path-loss exponent (3 in the paper's experiments).
	Loss float64
	// Noise is the AWGN power ω (−174 dBm in the paper's experiments).
	Noise units.Watts
	// RefDist clamps the user–server distance from below so the
	// power-law gain stays finite when a user stands at a server. One
	// meter is the conventional far-field reference distance.
	RefDist units.Meters
}

// Default returns the experimental configuration of §4.2:
// η = 1, loss = 3, ω = −174 dBm, with a 1 m reference distance.
func Default() Model {
	return Model{Eta: 1, Loss: 3, Noise: units.DBm(-174).Watts(), RefDist: 1}
}

// Gain computes the channel gain g_{i,x,j} = η·H^−loss for a user at
// distance d from the server. Distances below RefDist are clamped.
func (m Model) Gain(d units.Meters) float64 {
	h := float64(d)
	if h < float64(m.RefDist) {
		h = float64(m.RefDist)
	}
	return m.Eta * math.Pow(h, -m.Loss)
}

// SINR evaluates Eq. (2) for a user with signal gain g and transmit
// power p, given the total power of the *other* users sharing the
// channel on the same server (intraOther, Σ_{u_t∈U_{i,x}\u_j} p_t) and
// the inter-cell interference power F_{i,x,j} already aggregated over
// neighbouring servers:
//
//	r = g·p / (g·intraOther + F + ω)
func (m Model) SINR(g float64, p units.Watts, intraOther units.Watts, f units.Watts) float64 {
	den := g*float64(intraOther) + float64(f) + float64(m.Noise)
	if den <= 0 {
		return math.Inf(1)
	}
	return g * float64(p) / den
}

// ShannonRate evaluates Eq. (3): R = B·log2(1+r) for channel bandwidth
// B and SINR r. Negative SINRs (which cannot arise from SINR above) are
// treated as zero.
func ShannonRate(b units.Rate, sinr float64) units.Rate {
	if sinr <= 0 {
		return 0
	}
	if math.IsInf(sinr, 1) {
		return units.Rate(math.Inf(1))
	}
	return units.Rate(float64(b) * math.Log2(1+sinr))
}

// CapRate applies the Shannon-capacity ceiling of Eq. (4): a user's
// achievable rate is bounded by its device/network maximum R_{j,max}.
func CapRate(r, max units.Rate) units.Rate {
	if r > max {
		return max
	}
	return r
}

// Lemma2Bound computes T_j of Lemma 2, the largest interference a user
// can tolerate while still achieving its minimum channel rate R_{j,min}
// on a channel of bandwidth B:
//
//	T_j = g·p / (2^{R_min/B} − 1) − ω
//
// The bound weights the "stay unallocated" branch of the potential
// function (Eq. 13).
func (m Model) Lemma2Bound(g float64, p units.Watts, rmin, b units.Rate) units.Watts {
	if b <= 0 {
		return 0
	}
	den := math.Pow(2, float64(rmin)/float64(b)) - 1
	if den <= 0 {
		return units.Watts(math.Inf(1))
	}
	t := g*float64(p)/den - float64(m.Noise)
	if t < 0 {
		return 0
	}
	return units.Watts(t)
}
