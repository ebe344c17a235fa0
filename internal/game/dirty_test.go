package game

import (
	"reflect"
	"testing"

	"idde/internal/rng"
)

// localCongestion is a Rosenthal singleton congestion game with
// player-specific allowed resource sets: player j picks one resource
// from allowed[j]; the payoff of resource r is weight[r]/(1+others(r)).
// Resource-dependent (not player-specific) payoffs make it an exact
// potential game, so best-response dynamics terminate. It implements
// Localized via the inverted resource→interested-players index, mirroring
// how the IDDE-U adapter uses Top.Covered.
type localCongestion struct {
	allowed    [][]int // player -> candidate resources
	interested [][]int // resource -> players that can use it
	weight     []float64
	choice     []int // player -> current resource (-1 = none)
	load       []int // resource -> occupancy
	aff        []int
}

func newLocalCongestion(players, resources, perPlayer int, s *rng.Stream) *localCongestion {
	g := &localCongestion{
		allowed:    make([][]int, players),
		interested: make([][]int, resources),
		weight:     make([]float64, resources),
		choice:     make([]int, players),
		load:       make([]int, resources),
	}
	for r := range g.weight {
		g.weight[r] = s.Uniform(0.5, 2.0)
	}
	for j := range g.allowed {
		g.choice[j] = -1
		perm := s.Perm(resources)
		k := 1 + s.IntN(perPlayer)
		for _, r := range perm[:min(k, resources)] {
			g.allowed[j] = append(g.allowed[j], r)
			g.interested[r] = append(g.interested[r], j)
		}
	}
	return g
}

func (g *localCongestion) clone() *localCongestion {
	c := *g
	c.choice = append([]int(nil), g.choice...)
	c.load = append([]int(nil), g.load...)
	c.aff = nil
	return &c
}

func (g *localCongestion) NumPlayers() int { return len(g.allowed) }

func (g *localCongestion) payoff(j, r int) float64 {
	others := g.load[r]
	if g.choice[j] == r {
		others--
	}
	return g.weight[r] / float64(1+others)
}

func (g *localCongestion) Best(j int) (int, float64, float64) {
	cur := g.choice[j]
	curB := 0.0
	if cur >= 0 {
		curB = g.payoff(j, cur)
	}
	best, bestB := cur, curB
	for _, r := range g.allowed[j] {
		if r == cur {
			continue
		}
		if b := g.payoff(j, r); b > bestB {
			best, bestB = r, b
		}
	}
	return best, bestB, curB
}

func (g *localCongestion) Apply(j, r int) {
	if g.choice[j] >= 0 {
		g.load[g.choice[j]]--
	}
	g.choice[j] = r
	g.load[r]++
}

// Affected returns the players that can use j's current or destination
// resource — the superset of everyone whose payoff landscape moves.
func (g *localCongestion) Affected(j, r int) []int {
	aff := g.aff[:0]
	if cur := g.choice[j]; cur >= 0 {
		aff = append(aff, g.interested[cur]...)
	}
	if r != g.choice[j] {
		aff = append(aff, g.interested[r]...)
	}
	g.aff = aff
	return aff
}

// recorder wraps a Localized adapter and logs the committed (player,
// decision) sequence. It forwards Affected, so the engine still sees a
// Localized adapter (FullScan mode ignores it anyway).
type recorder struct {
	inner *localCongestion
	log   [][2]int
}

func (a *recorder) NumPlayers() int                    { return a.inner.NumPlayers() }
func (a *recorder) Best(j int) (int, float64, float64) { return a.inner.Best(j) }
func (a *recorder) Affected(j, r int) []int            { return a.inner.Affected(j, r) }
func (a *recorder) Apply(j, r int) {
	a.log = append(a.log, [2]int{j, r})
	a.inner.Apply(j, r)
}

// runBoth plays the same game under the dirty-set scheduler and the
// full-scan reference and asserts bit-identical dynamics.
func runBoth(t *testing.T, g *localCongestion, opt Options) (Stats, Stats) {
	t.Helper()
	dirtyGame := &recorder{inner: g.clone()}
	fullGame := &recorder{inner: g.clone()}

	optDirty := opt
	optDirty.FullScan = false
	optFull := opt
	optFull.FullScan = true

	stDirty := Run[int](dirtyGame, optDirty)
	stFull := Run[int](fullGame, optFull)

	if !reflect.DeepEqual(dirtyGame.log, fullGame.log) {
		t.Fatalf("%v: committed move sequences diverge:\ndirty %v\nfull  %v",
			opt.Policy, dirtyGame.log, fullGame.log)
	}
	if !reflect.DeepEqual(dirtyGame.inner.choice, fullGame.inner.choice) {
		t.Fatalf("%v: final profiles diverge", opt.Policy)
	}
	if stDirty.Rounds != stFull.Rounds || stDirty.Updates != stFull.Updates ||
		stDirty.Converged != stFull.Converged || stDirty.Frozen != stFull.Frozen {
		t.Fatalf("%v: stats diverge: dirty %+v full %+v", opt.Policy, stDirty, stFull)
	}
	if stDirty.Evaluations > stFull.Evaluations {
		t.Fatalf("%v: dirty-set did more evaluations (%d) than the full scan (%d)",
			opt.Policy, stDirty.Evaluations, stFull.Evaluations)
	}
	return stDirty, stFull
}

// TestDirtySetMatchesFullScan is the scheduling differential test: on
// randomized localized potential games both policies must produce the
// identical committed update sequence, equilibrium and Theorem 4
// accounting whether or not the dirty-set scheduler is engaged.
func TestDirtySetMatchesFullScan(t *testing.T) {
	for _, policy := range []Policy{WinnerTakesAll, RoundRobin} {
		for seed := uint64(1); seed <= 8; seed++ {
			s := rng.New(seed * 977)
			g := newLocalCongestion(60+s.IntN(60), 10+s.IntN(10), 4, s)
			runBoth(t, g, Options{Policy: policy, Epsilon: 1e-12})
		}
	}
}

// TestDirtySetSavesEvaluations pins the point of the scheduler: on a
// sparse localized game the dirty-set engine must evaluate strictly less
// than Rounds×players.
func TestDirtySetSavesEvaluations(t *testing.T) {
	s := rng.New(42)
	g := newLocalCongestion(200, 40, 3, s)
	stDirty, stFull := runBoth(t, g, Options{Policy: WinnerTakesAll, Epsilon: 1e-12})
	if stDirty.Evaluations >= stFull.Evaluations {
		t.Fatalf("expected strict evaluation savings, got dirty %d vs full %d",
			stDirty.Evaluations, stFull.Evaluations)
	}
}

// TestDirtySetMatchesUnderKnobs sweeps the option surface: caps, budget
// exhaustion and epsilon thresholds must all preserve the dirty/full
// equivalence.
func TestDirtySetMatchesUnderKnobs(t *testing.T) {
	cases := []Options{
		{Policy: WinnerTakesAll, Epsilon: 1e-12, PerPlayerCap: 2},
		{Policy: WinnerTakesAll, Epsilon: 1e-12, MaxUpdates: 7},
		{Policy: WinnerTakesAll, Epsilon: 0.05},
		{Policy: RoundRobin, Epsilon: 1e-12, PerPlayerCap: 2},
		{Policy: RoundRobin, Epsilon: 1e-12, MaxUpdates: 7},
		{Policy: RoundRobin, Epsilon: 0.05},
	}
	for ci, opt := range cases {
		for seed := uint64(1); seed <= 4; seed++ {
			s := rng.New(seed*131 + uint64(ci))
			g := newLocalCongestion(80, 12, 4, s)
			runBoth(t, g, opt)
		}
	}
}
