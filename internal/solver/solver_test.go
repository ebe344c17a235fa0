package solver

import (
	"math"
	"testing"

	"idde/internal/rng"
)

// onesProblem: state is a bit vector; score is the number of ones.
// Optimum = all ones; the search solves it trivially.
type onesProblem struct{ n int }

func (p onesProblem) Initial(r *rng.Stream) []bool {
	s := make([]bool, p.n)
	for i := range s {
		s[i] = r.Bool(0.2)
	}
	return s
}
func (p onesProblem) Clone(s []bool) []bool { return append([]bool(nil), s...) }
func (p onesProblem) Mutate(s []bool, r *rng.Stream) {
	i := r.IntN(len(s))
	s[i] = !s[i]
}
func (p onesProblem) Score(s []bool) float64 {
	n := 0.0
	for _, b := range s {
		if b {
			n++
		}
	}
	return n
}

// trapProblem has a deceptive local optimum at all-zeros (score n/2)
// and a global optimum at all-ones (score n); single flips from near
// zero lose score, so escaping needs annealing or restarts.
type trapProblem struct{ n int }

func (p trapProblem) Initial(r *rng.Stream) []bool { return make([]bool, p.n) }
func (p trapProblem) Clone(s []bool) []bool        { return append([]bool(nil), s...) }
func (p trapProblem) Mutate(s []bool, r *rng.Stream) {
	i := r.IntN(len(s))
	s[i] = !s[i]
}
func (p trapProblem) Score(s []bool) float64 {
	ones := 0
	for _, b := range s {
		if b {
			ones++
		}
	}
	if ones == 0 {
		return float64(p.n) / 2
	}
	return float64(ones)
}

// TestHillClimbSolvesOnes: on a problem with no local optima the
// uphill moves alone reach the optimum, annealing notwithstanding.
func TestHillClimbSolvesOnes(t *testing.T) {
	p := onesProblem{n: 40}
	res := Maximize[[]bool](p, Options{MaxIters: 20000, Seed: 1})
	if res.BestScore != 40 {
		t.Errorf("BestScore = %v, want 40", res.BestScore)
	}
	if res.Iterations == 0 || res.Iterations > 20000 {
		t.Errorf("Iterations = %d", res.Iterations)
	}
}

func TestDeterministicWithMaxIters(t *testing.T) {
	p := onesProblem{n: 30}
	a := Maximize[[]bool](p, Options{MaxIters: 5000, Seed: 7})
	b := Maximize[[]bool](p, Options{MaxIters: 5000, Seed: 7})
	if a.BestScore != b.BestScore || a.Restarts != b.Restarts {
		t.Error("same seed produced different results")
	}
	c := Maximize[[]bool](p, Options{MaxIters: 5000, Seed: 8})
	_ = c // different seed may coincide in score; just ensure it runs
}

// TestAnnealingEscapesTrap: trapProblem always starts at the deceptive
// all-zero optimum, so restarts land in the same basin and only
// downhill acceptance at the default temperature can escape it.
func TestAnnealingEscapesTrap(t *testing.T) {
	p := trapProblem{n: 12}
	res := Maximize[[]bool](p, Options{MaxIters: 40000, Seed: 3})
	if res.BestScore != 12 {
		t.Errorf("annealing stuck at %v, want 12", res.BestScore)
	}
}

// randomTrap is the trap with random initial states: most starts land
// in the all-zero basin, so escaping requires fresh restarts.
type randomTrap struct{ trapProblem }

func (p randomTrap) Initial(r *rng.Stream) []bool {
	s := make([]bool, p.n)
	for i := range s {
		s[i] = r.Bool(0.1)
	}
	return s
}

func TestRestartsEscapeTrapToo(t *testing.T) {
	p := randomTrap{trapProblem{n: 12}}
	res := Maximize[[]bool](p, Options{MaxIters: 60000, Seed: 5})
	if res.BestScore != 12 {
		t.Errorf("restarts stuck at %v, want 12", res.BestScore)
	}
}

func TestIncumbentNeverRegresses(t *testing.T) {
	p := trapProblem{n: 10}
	res := Maximize[[]bool](p, Options{MaxIters: 5000, Seed: 11})
	// The incumbent must be at least the deceptive optimum available at
	// the start state.
	if res.BestScore < 5 {
		t.Errorf("BestScore %v below initial score 5", res.BestScore)
	}
	if got := p.Score(res.Best); math.Abs(got-res.BestScore) > 1e-12 {
		t.Errorf("returned state scores %v but BestScore = %v", got, res.BestScore)
	}
}

// TestDefaultsWhenNoLimits: the evaluation count is the one stop rule,
// so a search with no count set spends exactly the default, restarts
// included (the optimum of 10 ones is found long before).
func TestDefaultsWhenNoLimits(t *testing.T) {
	p := onesProblem{n: 10}
	res := Maximize[[]bool](p, Options{Seed: 4})
	if res.Iterations != 10000 || res.Restarts == 0 {
		t.Errorf("defaulted options ran %d evaluations and %d restarts, want 10000 and some", res.Iterations, res.Restarts)
	}
}
