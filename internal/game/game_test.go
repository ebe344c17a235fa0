package game

import (
	"sync/atomic"
	"testing"
)

// congestion is a minimal singleton congestion game: players pick one of
// R resources; a player's benefit is 1/load(resource). It is an exact
// potential game, so dynamics must converge, and at equilibrium loads
// are balanced within one.
type congestion struct {
	players int
	res     int
	choice  []int
	load    []int
	scans   atomic.Int64
}

func newCongestion(players, res int) *congestion {
	g := &congestion{players: players, res: res, choice: make([]int, players), load: make([]int, res)}
	// Everyone starts on resource 0: maximally congested.
	g.load[0] = players
	return g
}

func (g *congestion) NumPlayers() int { return g.players }

func (g *congestion) benefit(j, r int) float64 {
	load := g.load[r]
	if g.choice[j] != r {
		load++ // hypothetical move adds j's own weight
	}
	return 1 / float64(load)
}

func (g *congestion) Best(j int) (int, float64, float64) {
	g.scans.Add(1)
	best, bestB := g.choice[j], g.benefit(j, g.choice[j])
	for r := 0; r < g.res; r++ {
		if b := g.benefit(j, r); b > bestB {
			best, bestB = r, b
		}
	}
	return best, bestB, g.benefit(j, g.choice[j])
}

func (g *congestion) Apply(j, r int) {
	g.load[g.choice[j]]--
	g.load[r]++
	g.choice[j] = r
}

func (g *congestion) balanced() bool {
	min, max := g.players, 0
	for _, l := range g.load {
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	return max-min <= 1
}

func TestWinnerTakesAllConverges(t *testing.T) {
	g := newCongestion(30, 5)
	st := Run[int](g, Options{Policy: WinnerTakesAll, Epsilon: 1e-12})
	if !st.Converged {
		t.Fatal("did not converge")
	}
	if !g.balanced() {
		t.Errorf("equilibrium not balanced: %v", g.load)
	}
	// One commit per round (plus the final all-quiet round).
	if st.Rounds != st.Updates+1 {
		t.Errorf("rounds=%d updates=%d, want rounds=updates+1", st.Rounds, st.Updates)
	}
}

func TestRoundRobinConvergesFaster(t *testing.T) {
	gw := newCongestion(40, 4)
	gr := newCongestion(40, 4)
	sw := Run[int](gw, Options{Policy: WinnerTakesAll, Epsilon: 1e-12})
	sr := Run[int](gr, Options{Policy: RoundRobin, Epsilon: 1e-12})
	if !sw.Converged || !sr.Converged {
		t.Fatal("dynamics did not converge")
	}
	if !gr.balanced() {
		t.Errorf("round-robin equilibrium not balanced: %v", gr.load)
	}
	if sr.Rounds >= sw.Rounds {
		t.Errorf("round-robin rounds %d not fewer than winner rounds %d", sr.Rounds, sw.Rounds)
	}
}

func TestMaxUpdatesCap(t *testing.T) {
	g := newCongestion(50, 5)
	st := Run[int](g, Options{Policy: WinnerTakesAll, Epsilon: 1e-12, MaxUpdates: 3})
	if st.Converged {
		t.Error("reported convergence despite cap")
	}
	if st.Updates != 3 {
		t.Errorf("updates = %d, want 3", st.Updates)
	}
}

func TestEmptyGame(t *testing.T) {
	g := newCongestion(0, 3)
	st := Run[int](g, DefaultOptions())
	if !st.Converged || st.Updates != 0 {
		t.Errorf("empty game stats: %+v", st)
	}
}

func TestAlreadyAtEquilibrium(t *testing.T) {
	g := newCongestion(4, 4)
	// Spread players manually: one per resource.
	for j := 0; j < 4; j++ {
		g.Apply(j, j)
	}
	st := Run[int](g, Options{Policy: WinnerTakesAll, Epsilon: 1e-12})
	if !st.Converged || st.Updates != 0 || st.Rounds != 1 {
		t.Errorf("equilibrium start stats: %+v", st)
	}
}

func TestEpsilonSuppressesMicroMoves(t *testing.T) {
	g := newCongestion(10, 2)
	// With a huge epsilon nothing ever improves "enough".
	st := Run[int](g, Options{Policy: WinnerTakesAll, Epsilon: 10})
	if !st.Converged || st.Updates != 0 {
		t.Errorf("epsilon gate failed: %+v", st)
	}
}

func TestPerPlayerCapFreezesPlayers(t *testing.T) {
	g := newCongestion(20, 4)
	st := Run[int](g, Options{Policy: WinnerTakesAll, Epsilon: 1e-12, PerPlayerCap: 1})
	if !st.Converged {
		t.Fatal("capped dynamics did not converge")
	}
	// Every player moves at most once.
	if st.Updates > 20 {
		t.Errorf("updates = %d with cap 1 over 20 players", st.Updates)
	}
	if st.Frozen > 20 {
		t.Errorf("frozen = %d", st.Frozen)
	}
}

func TestPerPlayerCapZeroMeansUnlimited(t *testing.T) {
	g := newCongestion(20, 4)
	st := Run[int](g, Options{Policy: WinnerTakesAll, Epsilon: 1e-12, PerPlayerCap: 0})
	if !st.Converged || st.Frozen != 0 {
		t.Errorf("uncapped run stats: %+v", st)
	}
}

func TestRoundRobinHonorsCap(t *testing.T) {
	g := newCongestion(30, 3)
	st := Run[int](g, Options{Policy: RoundRobin, Epsilon: 1e-12, PerPlayerCap: 2})
	if !st.Converged {
		t.Fatal("capped round-robin did not converge")
	}
	if st.Updates > 60 {
		t.Errorf("updates = %d exceeds 2×players", st.Updates)
	}
}

func TestPolicyString(t *testing.T) {
	if WinnerTakesAll.String() != "winner-takes-all" || RoundRobin.String() != "round-robin" {
		t.Error("Policy String wrong")
	}
	if Policy(9).String() == "" {
		t.Error("unknown policy String empty")
	}
}

func TestUnknownPolicyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown policy did not panic")
		}
	}()
	Run[int](newCongestion(2, 2), Options{Policy: Policy(42)})
}

// TestImprovementPathProperty: every commit strictly increases the
// mover's benefit — the defining property the Theorem 3 potential
// argument rests on.
func TestImprovementPathProperty(t *testing.T) {
	g := &auditedGame{inner: newCongestion(25, 5), t: t}
	st := Run[int](g, Options{Policy: WinnerTakesAll, Epsilon: 1e-12})
	if !st.Converged {
		t.Fatal("did not converge")
	}
}

type auditedGame struct {
	inner *congestion
	t     *testing.T
}

func (a *auditedGame) NumPlayers() int { return a.inner.NumPlayers() }
func (a *auditedGame) Best(j int) (int, float64, float64) {
	return a.inner.Best(j)
}
func (a *auditedGame) Apply(j, r int) {
	before := a.inner.benefit(j, a.inner.choice[j])
	after := a.inner.benefit(j, r)
	if after <= before {
		a.t.Fatalf("commit for player %d did not improve benefit: %v -> %v", j, before, after)
	}
	a.inner.Apply(j, r)
}
