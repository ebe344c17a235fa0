// Package experiment is the evaluation harness: it reproduces the
// paper's §4 experiments — the four parameter sets of Table 2 driving
// Figures 3–6, the computation-time comparison of Figure 7, and the
// latency probe of Figure 1 — over the five approaches, with repeated
// randomized runs averaged exactly as §4.3 prescribes.
package experiment

import (
	"fmt"
	"math"
)

// Params fixes one simulated edge storage system size.
type Params struct {
	N       int     // edge servers
	M       int     // users
	K       int     // data items
	Density float64 // links per server
	// RegionScale linearly scales the deployment region's width and
	// height (0 or 1 = the fixed §4.2 CBD extent). The Table 2 sets keep
	// it at the default; the M≥10⁵ scaling rungs grow the region with
	// sqrt(N/125) so server spacing — and with it coverage overlap and
	// the sparse layout's row density — stays at the EUA-like level
	// instead of collapsing into an all-pairs dense instance.
	RegionScale float64
}

func (p Params) String() string {
	if p.RegionScale > 0 && p.RegionScale != 1 {
		return fmt.Sprintf("N=%d M=%d K=%d density=%.1f region=%.2fx", p.N, p.M, p.K, p.Density, p.RegionScale)
	}
	return fmt.Sprintf("N=%d M=%d K=%d density=%.1f", p.N, p.M, p.K, p.Density)
}

// Set is one row of Table 2: one parameter varies, the others are fixed.
type Set struct {
	ID   int
	Vary string // "N", "M", "K" or "density"
	// Values the varying parameter takes (the figure's x axis).
	Values []float64
	// Base supplies the fixed parameters.
	Base Params
}

// ParamsAt materializes the parameters for one x value.
func (s Set) ParamsAt(x float64) Params {
	p := s.Base
	switch s.Vary {
	case "N":
		p.N = int(math.Round(x))
	case "M":
		p.M = int(math.Round(x))
	case "K":
		p.K = int(math.Round(x))
	case "density":
		p.Density = x
	default:
		panic(fmt.Sprintf("experiment: unknown varying parameter %q", s.Vary))
	}
	return p
}

// Sets returns Table 2 verbatim:
//
//	Set #1: N = 20..50 step 5,          M=200, K=5, density=1.0
//	Set #2: M = 50..350 step 50,  N=30,        K=5, density=1.0
//	Set #3: K = 2..8 step 1,      N=30, M=200,      density=1.0
//	Set #4: density = 1.0..3.0 step 0.4, N=30, M=200, K=5
func Sets() []Set {
	return []Set{
		{
			ID: 1, Vary: "N",
			Values: []float64{20, 25, 30, 35, 40, 45, 50},
			Base:   Params{M: 200, K: 5, Density: 1.0},
		},
		{
			ID: 2, Vary: "M",
			Values: []float64{50, 100, 150, 200, 250, 300, 350},
			Base:   Params{N: 30, K: 5, Density: 1.0},
		},
		{
			ID: 3, Vary: "K",
			Values: []float64{2, 3, 4, 5, 6, 7, 8},
			Base:   Params{N: 30, M: 200, Density: 1.0},
		},
		{
			ID: 4, Vary: "density",
			Values: []float64{1.0, 1.4, 1.8, 2.2, 2.6, 3.0},
			Base:   Params{N: 30, M: 200, K: 5},
		},
	}
}

// SetByID returns the Table 2 set with the given id.
func SetByID(id int) (Set, error) {
	for _, s := range Sets() {
		if s.ID == id {
			return s, nil
		}
	}
	return Set{}, fmt.Errorf("experiment: no set #%d", id)
}
