package core

import (
	"idde/internal/model"
	"idde/internal/shard"
)

// potentialGame is the global Phase 1 game with the Eq. 13 ordinal
// potential added to every traced round (Options.TracePotential): its
// monotone climb is Theorem 3's termination argument. RoundMetrics is
// only invoked on traced runs, so the cost never reaches production
// paths.
type potentialGame struct {
	*shard.Game
	in *model.Instance
	l  *model.Ledger
}

func (g *potentialGame) RoundMetrics(put func(key string, v float64)) {
	g.Game.RoundMetrics(put)
	put("potential", Potential(g.in, g.l.Alloc()))
}

// Potential evaluates the IDDE-U potential function of Eq. (13) for an
// allocation profile. Following the printed formula (with the benefit
// shorthand b_j = β_{α_{-j}}(α_j) and T_j from Lemma 2):
//
//	π(α) = ½·Σ_j Σ_{q≠j} 1{α_j≠0}·1{α_q≠0}·b_j·b_q
//	       − Σ_j 1{α_j=0}·T_j·Σ_{q≠j} 1{α_q≠0}·b_q
//
// The Theorem 3 proof assumes uniform channel gains, and the function is
// an *ordinal* potential: committed best responses increase it. It is
// exposed for instrumentation and for the Theorem 3/4 empirical tests;
// the algorithm itself never needs to evaluate it.
func Potential(in *model.Instance, alloc model.Allocation) float64 {
	l := model.NewLedger(in, alloc)
	m := in.M()
	b := make([]float64, m)
	allocated := make([]bool, m)
	var sumB float64
	for j := 0; j < m; j++ {
		a := l.Current(j)
		if a.Allocated() {
			allocated[j] = true
			b[j] = l.Benefit(j, a)
			sumB += b[j]
		}
	}
	var pairs float64
	for j := 0; j < m; j++ {
		if allocated[j] {
			pairs += b[j] * (sumB - b[j])
		}
	}
	pi := pairs / 2
	for j := 0; j < m; j++ {
		if !allocated[j] {
			pi -= lemma2T(in, l, j) * sumB
		}
	}
	return pi
}

// lemma2T computes T_j of Lemma 2 for user j: the interference budget
// that still sustains R_{j,min}, the lowest channel rate available to j
// across its decision set under the current profile.
func lemma2T(in *model.Instance, l *model.Ledger, j int) float64 {
	rmin := in.Top.Users[j].MaxRate
	var bestG float64
	var bw = in.Top.Servers[0].Bandwidth
	found := false
	for _, i := range in.Top.Coverage[j] {
		if g := in.GainAt(i, j); g > bestG {
			bestG = g
			bw = in.Top.Servers[i].Bandwidth
		}
		for x := 0; x < in.Top.Servers[i].Channels; x++ {
			if r := l.Rate(j, model.Alloc{Server: i, Channel: x}); r < rmin {
				rmin = r
			}
			found = true
		}
	}
	if !found {
		return 0
	}
	return float64(in.Radio.Lemma2Bound(bestG, in.Top.Users[j].Power, rmin, bw))
}
