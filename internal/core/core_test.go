package core

import (
	"math"
	"testing"

	"idde/internal/game"
	"idde/internal/model"
	"idde/internal/radio"
	"idde/internal/rng"
	"idde/internal/shard"
	"idde/internal/topology"
	"idde/internal/workload"
)

func genInstance(t *testing.T, n, m, k int, density float64, seed uint64) *model.Instance {
	t.Helper()
	s := rng.New(seed)
	top, err := topology.Generate(topology.DefaultGen(n, m, density), s.Split("top"))
	if err != nil {
		t.Fatalf("topology: %v", err)
	}
	wl, err := workload.Generate(workload.DefaultGen(k), n, m, s.Split("wl"))
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	in, err := model.New(top, wl, radio.Default())
	if err != nil {
		t.Fatalf("model: %v", err)
	}
	return in
}

func TestSolveProducesValidStrategy(t *testing.T) {
	for _, tc := range []struct{ n, m, k int }{
		{10, 50, 3},
		{20, 120, 5},
		{30, 200, 5},
	} {
		in := genInstance(t, tc.n, tc.m, tc.k, 1.0, uint64(tc.n))
		res := Solve(in, DefaultOptions())
		if err := in.Check(res.Strategy); err != nil {
			t.Fatalf("N=%d M=%d: invalid strategy: %v", tc.n, tc.m, err)
		}
		if !res.Phase1.Converged {
			t.Errorf("N=%d M=%d: Phase 1 did not converge", tc.n, tc.m)
		}
		if res.AvgRate <= 0 {
			t.Errorf("N=%d M=%d: zero average rate", tc.n, tc.m)
		}
		if res.AvgLatency < 0 {
			t.Errorf("negative latency")
		}
	}
}

func TestSolveAllocatesEveryUser(t *testing.T) {
	// β(unallocated)=0 and every user has a covering server, so the
	// equilibrium allocates everyone ("all the users can be allocated
	// in IDDE scenarios", Theorem 5 proof).
	in := genInstance(t, 20, 150, 4, 1.0, 7)
	res := Solve(in, DefaultOptions())
	if got := res.Strategy.Alloc.AllocatedCount(); got != in.M() {
		t.Errorf("allocated %d of %d users", got, in.M())
	}
}

func TestPhase1IterationBound(t *testing.T) {
	// Theorem 4 bounds updates by M(Q²max−Q²min)/(2Qmin) with
	// instance-specific constants; the practical reading is "linear-ish
	// in M". Assert a generous linear envelope.
	for _, m := range []int{50, 150, 300} {
		in := genInstance(t, 25, m, 5, 1.0, uint64(m))
		res := Solve(in, DefaultOptions())
		if !res.Phase1.Converged {
			t.Fatalf("M=%d: did not converge", m)
		}
		if res.Phase1.Updates > 20*m {
			t.Errorf("M=%d: %d updates exceeds 20·M envelope", m, res.Phase1.Updates)
		}
	}
}

func TestNashEquilibriumNoImprovingDeviation(t *testing.T) {
	// With heterogeneous gains the IDDE-U game can cycle (see
	// TestBestResponseCanCycleWithoutCap), so IDDE-G freezes serial
	// cyclers after a bounded update budget. The fixed point is a Nash
	// equilibrium of the non-frozen players: only frozen users may
	// retain improving deviations, and they must be few.
	in := genInstance(t, 15, 100, 4, 1.0, 11)
	res := Solve(in, DefaultOptions())
	l := model.NewLedger(in, res.Strategy.Alloc)
	deviators := 0
	for j := 0; j < in.M(); j++ {
		cur := l.Benefit(j, l.Current(j))
		for _, i := range in.Top.Coverage[j] {
			for x := 0; x < in.Top.Servers[i].Channels; x++ {
				if b := l.Benefit(j, model.Alloc{Server: i, Channel: x}); b > cur+1e-9 {
					deviators++
					x = in.Top.Servers[i].Channels // next user
					break
				}
			}
		}
	}
	if deviators > res.Phase1.Frozen {
		t.Errorf("%d users hold improving deviations but only %d were frozen",
			deviators, res.Phase1.Frozen)
	}
	if res.Phase1.Frozen > in.M()/10 {
		t.Errorf("too many frozen users: %d of %d", res.Phase1.Frozen, in.M())
	}
}

// TestBestResponseCanCycleWithoutCap documents the counterexample to the
// paper's Theorem 3 in the heterogeneous-gain setting: on this instance,
// uncapped winner-takes-all best-response dynamics enter a two-user
// pursuit cycle and never converge, while the capped dynamics terminate.
// (The theorem's proof assumes uniform channel gains.)
func TestBestResponseCanCycleWithoutCap(t *testing.T) {
	in := genInstance(t, 10, 50, 3, 1.0, 10)
	uncapped := DefaultOptions()
	uncapped.Game.PerPlayerCap = 0
	uncapped.Game.MaxUpdates = 5000
	if res := Solve(in, uncapped); res.Phase1.Converged {
		t.Skip("instance no longer cycles; counterexample lost")
	}
	capped := Solve(in, DefaultOptions())
	if !capped.Phase1.Converged {
		t.Error("capped dynamics did not terminate")
	}
	if capped.Phase1.Frozen == 0 {
		t.Error("expected at least one frozen cycler")
	}
}

func TestLazyAndNaiveGreedyIdentical(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		in := genInstance(t, 15, 80, 5, 1.2, seed)
		optLazy := DefaultOptions()
		optNaive := DefaultOptions()
		optNaive.NaiveGreedy = true
		a := Solve(in, optLazy)
		b := Solve(in, optNaive)
		if a.Replicas != b.Replicas {
			t.Fatalf("seed %d: replica counts differ: %d vs %d", seed, a.Replicas, b.Replicas)
		}
		for i := 0; i < in.N(); i++ {
			for k := 0; k < in.K(); k++ {
				if a.Strategy.Delivery.Placed(i, k) != b.Strategy.Delivery.Placed(i, k) {
					t.Fatalf("seed %d: deliveries differ at (%d,%d)", seed, i, k)
				}
			}
		}
		if a.GainEvaluations > b.GainEvaluations {
			t.Errorf("seed %d: lazy used more evaluations (%d) than naive (%d)",
				seed, a.GainEvaluations, b.GainEvaluations)
		}
	}
}

func TestInterferenceAwareBeatsNearestAllocation(t *testing.T) {
	// The point of Phase 1: against a gain-greedy (nearest server,
	// first channel) allocation, the equilibrium achieves a higher
	// average data rate.
	in := genInstance(t, 20, 250, 5, 1.0, 13)
	res := Solve(in, DefaultOptions())
	naive := model.NewAllocation(in.M())
	for j := 0; j < in.M(); j++ {
		best, bestG := -1, -1.0
		for _, i := range in.Top.Coverage[j] {
			if g := in.GainAt(i, j); g > bestG {
				best, bestG = i, g
			}
		}
		naive[j] = model.Alloc{Server: best, Channel: 0}
	}
	naiveRate := in.AvgRate(naive)
	if res.AvgRate <= naiveRate {
		t.Errorf("IDDE-G rate %v not above naive nearest-server rate %v", res.AvgRate, naiveRate)
	}
}

func TestDeliveryImprovesOnAllCloud(t *testing.T) {
	in := genInstance(t, 20, 150, 5, 1.0, 17)
	res := Solve(in, DefaultOptions())
	cloudOnly := in.AvgLatency(res.Strategy.Alloc, model.NewDelivery(in.N(), in.K()))
	if res.AvgLatency >= cloudOnly {
		t.Errorf("delivery latency %v not below all-cloud %v", res.AvgLatency, cloudOnly)
	}
	if res.LatencyReduction <= 0 {
		t.Errorf("no latency reduction recorded")
	}
	// ΔL consistency: reduction ≈ (cloudOnly − final)·requests.
	reqs := float64(in.Wl.TotalRequests())
	gotΔ := float64(res.LatencyReduction)
	wantΔ := (float64(cloudOnly) - float64(res.AvgLatency)) * reqs
	if math.Abs(gotΔ-wantΔ) > 1e-9*math.Max(1, wantΔ) {
		t.Errorf("ΔL = %v, want %v", gotΔ, wantΔ)
	}
}

func TestSolveDeterministic(t *testing.T) {
	in := genInstance(t, 15, 100, 4, 1.0, 19)
	a := Solve(in, DefaultOptions())
	b := Solve(in, DefaultOptions())
	if a.AvgRate != b.AvgRate || a.AvgLatency != b.AvgLatency ||
		a.Phase1.Updates != b.Phase1.Updates || a.Replicas != b.Replicas {
		t.Error("Solve is not deterministic on a fixed instance")
	}
}

func TestRoundRobinReachesEquivalentQuality(t *testing.T) {
	in := genInstance(t, 20, 150, 5, 1.0, 23)
	wta := Solve(in, DefaultOptions())
	rr := DefaultOptions()
	rr.Game.Policy = game.RoundRobin
	fast := Solve(in, rr)
	if !fast.Phase1.Converged {
		t.Fatal("round-robin did not converge")
	}
	// Both are Nash equilibria; allow a modest gap between them.
	lo, hi := float64(wta.AvgRate)*0.85, float64(wta.AvgRate)*1.15
	if got := float64(fast.AvgRate); got < lo || got > hi {
		t.Errorf("round-robin rate %v far from winner-takes-all %v", got, wta.AvgRate)
	}
	if fast.Phase1.Rounds >= wta.Phase1.Rounds {
		t.Errorf("round-robin rounds %d not fewer than winner rounds %d",
			fast.Phase1.Rounds, wta.Phase1.Rounds)
	}
}

func TestPotentialRisesFromEmptyProfile(t *testing.T) {
	in := genInstance(t, 12, 60, 3, 1.0, 29)
	empty := model.NewAllocation(in.M())
	if p := Potential(in, empty); p != 0 {
		t.Errorf("potential of all-unallocated profile = %v, want 0", p)
	}
	res := Solve(in, DefaultOptions())
	if p := Potential(in, res.Strategy.Alloc); p <= 0 {
		t.Errorf("equilibrium potential = %v, want > 0", p)
	}
}

// TestMoverBenefitStrictlyImproves verifies the improvement-path
// property every committed move must satisfy (the premise of the
// Theorem 3 potential argument): the winner's own benefit strictly
// increases at each commit.
func TestMoverBenefitStrictlyImproves(t *testing.T) {
	s := rng.New(31)
	top, err := topology.Generate(topology.DefaultGen(8, 40, 1.0), s.Split("top"))
	if err != nil {
		t.Fatal(err)
	}
	wl, err := workload.Generate(workload.DefaultGen(3), 8, 40, s.Split("wl"))
	if err != nil {
		t.Fatal(err)
	}
	in, err := model.New(top, wl, radio.Default())
	if err != nil {
		t.Fatal(err)
	}
	ledger := model.NewLedger(in, model.NewAllocation(in.M()))
	adapter := &auditedAlloc{inner: shard.NewGlobalGame(in, ledger), l: ledger, t: t}
	st := game.Run[model.Alloc](adapter, game.DefaultOptions())
	if !st.Converged {
		t.Fatal("game did not converge")
	}
	if adapter.commits == 0 {
		t.Fatal("no moves committed")
	}
}

type auditedAlloc struct {
	inner   *shard.Game
	l       *model.Ledger
	t       *testing.T
	commits int
}

func (a *auditedAlloc) NumPlayers() int { return a.inner.NumPlayers() }
func (a *auditedAlloc) Best(j int) (model.Alloc, float64, float64) {
	return a.inner.Best(j)
}
func (a *auditedAlloc) Apply(j int, d model.Alloc) {
	before := a.l.Benefit(j, a.l.Current(j))
	a.inner.Apply(j, d)
	after := a.l.Benefit(j, a.l.Current(j))
	if after <= before {
		a.t.Fatalf("move for user %d did not improve benefit: %v -> %v", j, before, after)
	}
	a.commits++
}

func TestSolveDeliveryStandalone(t *testing.T) {
	in := genInstance(t, 12, 60, 4, 1.0, 37)
	alloc := model.NewAllocation(in.M())
	for j := 0; j < in.M(); j++ {
		i := in.Top.Coverage[j][0]
		alloc[j] = model.Alloc{Server: i, Channel: j % in.Top.Servers[i].Channels}
	}
	d, pres := SolveDeliveryOpt(in, alloc, Options{})
	if err := in.CheckDelivery(d); err != nil {
		t.Fatalf("delivery invalid: %v", err)
	}
	if pres.TotalGain <= 0 {
		t.Error("no gain from standalone delivery")
	}
}

func TestPhase2NeverPlacesUselessReplicas(t *testing.T) {
	in := genInstance(t, 15, 80, 5, 1.5, 41)
	res := Solve(in, DefaultOptions())
	// Removing any single replica must increase (or keep) latency:
	// every placed replica was committed with positive gain, and greedy
	// gains are realized.
	base := float64(res.AvgLatency)
	for i := 0; i < in.N(); i++ {
		for k := 0; k < in.K(); k++ {
			if !res.Strategy.Delivery.Placed(i, k) {
				continue
			}
			d := model.NewDelivery(in.N(), in.K())
			for i2 := 0; i2 < in.N(); i2++ {
				for k2 := 0; k2 < in.K(); k2++ {
					if res.Strategy.Delivery.Placed(i2, k2) && !(i2 == i && k2 == k) {
						d.Place(i2, k2, in.Wl.Items[k2].Size)
					}
				}
			}
			if got := float64(in.AvgLatency(res.Strategy.Alloc, d)); got < base-1e-12 {
				t.Fatalf("removing replica (%d,%d) improved latency: %v < %v", i, k, got, base)
			}
		}
	}
}
