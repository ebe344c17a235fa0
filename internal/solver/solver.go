// Package solver provides an evaluation-capped anytime search over
// arbitrary combinatorial states: multi-start simulated annealing. It
// is the stand-in for the IBM CPLEX CP Optimizer used by the paper's
// IDDE-IP baseline (§4.1): like the CP optimizer with its 100-second
// search cap, it spends a fixed budget and returns the best feasible
// incumbent found, without any optimality guarantee. The budget is a
// count of candidate evaluations rather than a wall-clock time, so the
// result depends on the seed alone, not on the host's speed or load.
// See DESIGN.md §4 for the substitution rationale.
package solver

import (
	"math"

	"idde/internal/rng"
)

// Problem describes a maximization problem over states of type S.
// Implementations must keep Score pure and make Mutate produce only
// feasible states.
type Problem[S any] interface {
	// Initial builds a feasible starting state.
	Initial(r *rng.Stream) S
	// Clone deep-copies a state.
	Clone(s S) S
	// Mutate perturbs s in place into a random feasible neighbor.
	Mutate(s S, r *rng.Stream)
	// Score evaluates s; higher is better.
	Score(s S) float64
}

// Options bounds the search.
type Options struct {
	// MaxIters is the number of candidate evaluations the search
	// spends (default 10000).
	MaxIters int
	// Seed drives all randomness.
	Seed uint64
}

// Result reports the incumbent and search statistics.
type Result[S any] struct {
	Best      S
	BestScore float64
	// Iterations counts evaluated candidates; Restarts counts fresh
	// starts beyond the first.
	Iterations int
	Restarts   int
}

const (
	// restartAfter is the number of non-improving iterations after
	// which the search restarts from a fresh Initial.
	restartAfter = 2000
	// initTemp is the initial annealing temperature relative to the
	// start state's score magnitude; it cools by 0.05% per downhill
	// proposal.
	initTemp = 0.1
)

// Maximize runs the anytime search: uphill proposals are always
// accepted, downhill ones with the Metropolis probability at a
// geometrically cooling temperature, and the search restarts from a
// fresh Initial after restartAfter non-improving iterations.
func Maximize[S any](p Problem[S], opt Options) Result[S] {
	if opt.MaxIters <= 0 {
		opt.MaxIters = 10000
	}
	r := rng.New(opt.Seed)

	cur := p.Initial(r.Split("init"))
	curScore := p.Score(cur)
	res := Result[S]{Best: p.Clone(cur), BestScore: curScore}

	temp := initTemp * (math.Abs(curScore) + 1)
	mut := r.Split("mutate")
	acc := r.Split("accept")
	sinceImprove := 0

	for res.Iterations < opt.MaxIters {
		cand := p.Clone(cur)
		p.Mutate(cand, mut)
		score := p.Score(cand)
		res.Iterations++

		accept := score > curScore
		if !accept && temp > 1e-12 {
			if delta := score - curScore; delta > -20*temp {
				accept = acc.Float64() < math.Exp(delta/temp)
			}
			temp *= 0.9995
		}
		if accept {
			cur, curScore = cand, score
			if score > res.BestScore {
				res.Best = p.Clone(cand)
				res.BestScore = score
				sinceImprove = 0
				continue
			}
		}
		sinceImprove++
		if sinceImprove >= restartAfter {
			res.Restarts++
			cur = p.Initial(r.SplitN("restart", res.Restarts))
			curScore = p.Score(cur)
			if curScore > res.BestScore {
				res.Best = p.Clone(cur)
				res.BestScore = curScore
			}
			temp = initTemp * (math.Abs(curScore) + 1)
			sinceImprove = 0
		}
	}
	return res
}
