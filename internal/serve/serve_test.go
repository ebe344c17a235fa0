package serve

import (
	"context"
	"errors"
	"testing"

	"idde/internal/chaos"
	"idde/internal/core"
	"idde/internal/des"
	"idde/internal/model"
	"idde/internal/radio"
	"idde/internal/repair"
	"idde/internal/rng"
	"idde/internal/topology"
	"idde/internal/units"
	"idde/internal/workload"
)

func genInstance(t testing.TB, n, m, k int, seed uint64) *model.Instance {
	t.Helper()
	s := rng.New(seed)
	top, err := topology.Generate(topology.DefaultGen(n, m, 1.0), s.Split("top"))
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

func solved(t testing.TB, in *model.Instance) model.Strategy {
	t.Helper()
	return core.Solve(in, core.DefaultOptions()).Strategy
}

func testOptions(seed uint64) Options {
	return Options{
		Seed:     seed,
		RPS:      100,
		Tick:     1,
		Duration: 20,
		Faults:   des.Faults{LossProb: 0.02},
	}
}

func TestSoakHealthyBaseline(t *testing.T) {
	in := genInstance(t, 10, 60, 4, 11)
	st := solved(t, in)
	rep, err := Run(context.Background(), in, st, testOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dropped != 0 {
		t.Errorf("dropped = %d, want 0", rep.Dropped)
	}
	if rep.Issued != int64(rep.Rounds*rep.PerRound) {
		t.Errorf("issued = %d, want %d", rep.Issued, rep.Rounds*rep.PerRound)
	}
	if rep.Degraded != 0 {
		t.Errorf("healthy soak degraded %d requests", rep.Degraded)
	}
	if rep.BreakerOpens != 0 {
		t.Errorf("healthy soak opened %d breakers", rep.BreakerOpens)
	}
	if len(rep.Phases) != 1 || rep.Phases[0].Phase != PhaseHealthy {
		t.Errorf("phases = %+v, want single healthy phase", rep.Phases)
	}
	hp := rep.Phase(PhaseHealthy)
	// p50 can legitimately be 0 (a replica at the attachment server has
	// no wired hop), but the tail must be ordered and non-degenerate.
	if hp.P999Ms < hp.P99Ms || hp.P99Ms < hp.P50Ms || hp.MaxMs <= 0 {
		t.Errorf("implausible percentiles: p50=%g p99=%g p999=%g max=%g",
			hp.P50Ms, hp.P99Ms, hp.P999Ms, hp.MaxMs)
	}
	if rep.VirtualRPS != float64(rep.RPS) {
		t.Errorf("virtual RPS = %g, want %d", rep.VirtualRPS, rep.RPS)
	}
}

// outageCampaign scripts the acceptance scenario: the most-fetched-from
// server dies mid-run and comes back later.
func outageCampaign(in *model.Instance, st model.Strategy) *chaos.Campaign {
	target := PopularSource(in, st)
	return &chaos.Campaign{
		Name: "test-outage",
		Events: []chaos.Event{
			{At: 5, Duration: 8, Kind: chaos.ServerOutage, Servers: []int{target}},
		},
		Faults: des.Faults{LossProb: 0.02},
	}
}

// TestSoakRecoversFromOutage is the chaos-in-the-loop acceptance test:
// a mid-run correlated outage must keep every request terminating, trip
// the dead server's breaker, heal the placement through the re-planner
// within a bounded number of rounds, and classify all three phases.
func TestSoakRecoversFromOutage(t *testing.T) {
	in := genInstance(t, 10, 60, 4, 11)
	st := solved(t, in)
	opt := testOptions(3)
	opt.Campaign = outageCampaign(in, st)
	rep, err := Run(context.Background(), in, st, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dropped != 0 {
		t.Errorf("dropped = %d, want 0 (no request may be dropped forever)", rep.Dropped)
	}
	if rep.BreakerOpens == 0 {
		t.Error("outage never tripped a breaker")
	}
	if rep.Replans == 0 {
		t.Error("re-planner never ran")
	}
	if rep.Degraded == 0 {
		t.Error("outage produced no degraded requests — fault view not in force?")
	}
	// The heal bound: onset round + threshold re-plans + half-open
	// probe windows. Observed 5 rounds for this seed; 6 is the budget.
	if rep.MaxDegradedStreak > 6 {
		t.Errorf("degraded streak %d rounds exceeds heal budget", rep.MaxDegradedStreak)
	}
	if !rep.HealedAtEnd {
		t.Error("soak ended unhealed")
	}
	if rep.FinalEpoch == 0 {
		t.Error("plan epoch never advanced")
	}
	for _, want := range []string{PhaseHealthy, PhaseFaulted, PhaseRecovered} {
		if rep.Phase(want) == nil {
			t.Errorf("missing phase %q in %+v", want, rep.Phases)
		}
	}
	if f := rep.Phase(PhaseFaulted); f != nil && f.BackhaulMB == 0 && f.LatencyDeltaS == 0 {
		t.Error("faulted phase recorded no degradation cost")
	}
}

// TestSoakReplanPanicIsolated proves the supervisor contract: a
// panicking re-planner must not take the data plane down, and the old
// plan must stay in force.
func TestSoakReplanPanicIsolated(t *testing.T) {
	in := genInstance(t, 10, 60, 4, 11)
	st := solved(t, in)
	opt := testOptions(3)
	opt.Campaign = outageCampaign(in, st)
	opt.repairFn = func(ref, degraded *model.Instance, s model.Strategy, o repair.Options) (model.Strategy, *repair.Report, error) {
		panic("injected repair bug")
	}
	rep, err := Run(context.Background(), in, st, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReplanPanics == 0 {
		t.Error("panic was not recorded")
	}
	if rep.FinalEpoch != 0 {
		t.Errorf("plan swapped despite panicking repair (epoch %d)", rep.FinalEpoch)
	}
	if rep.Dropped != 0 {
		t.Errorf("dropped = %d, want 0 even with a broken re-planner", rep.Dropped)
	}
}

func TestSoakContextCancel(t *testing.T) {
	in := genInstance(t, 10, 60, 4, 11)
	st := solved(t, in)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Run(ctx, in, st, testOptions(1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil {
		t.Fatal("cancelled soak must still return a partial report")
	}
	if rep.Issued != 0 {
		t.Errorf("pre-cancelled soak issued %d requests", rep.Issued)
	}
}

// TestSoakHedgingReducesTail checks that hedging is wired through: with
// stall faults on, hedged requests appear and the hedged run's p999 is
// no worse than the unhedged run's.
func TestSoakHedgingReducesTail(t *testing.T) {
	in := genInstance(t, 10, 60, 4, 11)
	st := solved(t, in)
	base := testOptions(5)
	base.Faults = des.Faults{LossProb: 0.05, StallProb: 0.10, StallTime: units.Seconds(0.25)}

	plain, err := Run(context.Background(), in, st, base)
	if err != nil {
		t.Fatal(err)
	}
	hedged := base
	hedged.Hedge = units.Seconds(0.05)
	h, err := Run(context.Background(), in, st, hedged)
	if err != nil {
		t.Fatal(err)
	}
	if h.Hedged == 0 {
		t.Error("hedging enabled but no request hedged")
	}
	pp, hp := plain.Phase(PhaseHealthy), h.Phase(PhaseHealthy)
	if pp == nil || hp == nil {
		t.Fatal("missing healthy phase")
	}
	if hp.P999Ms > pp.P999Ms*1.05 {
		t.Errorf("hedged p999 %.3fms worse than unhedged %.3fms", hp.P999Ms, pp.P999Ms)
	}
}

// TestInjectLiveFault drives the engine's chaos hook (the path the HTTP
// /inject endpoint uses) instead of a pre-scripted campaign.
func TestInjectLiveFault(t *testing.T) {
	in := genInstance(t, 10, 60, 4, 11)
	st := solved(t, in)
	e, err := NewEngine(in, st, testOptions(9))
	if err != nil {
		t.Fatal(err)
	}
	target := PopularSource(in, st)
	if err := e.Inject(chaos.Event{At: 5, Duration: 8, Kind: chaos.ServerOutage, Servers: []int{target}}); err != nil {
		t.Fatal(err)
	}
	rep, err := e.RunSoak(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.BreakerOpens == 0 || rep.Replans == 0 || !rep.HealedAtEnd {
		t.Errorf("injected fault not survived: opens=%d replans=%d healed=%v",
			rep.BreakerOpens, rep.Replans, rep.HealedAtEnd)
	}
}

// TestJitterDefaults pins withDefaults' jitter rule: zero is kept (no
// jitter) and only an out-of-range fraction is replaced by 0.5.
func TestJitterDefaults(t *testing.T) {
	for _, tc := range []struct{ in, want float64 }{
		{0, 0},
		{0.3, 0.3},
		{1, 1},
		{2, 0.5},
		{-1, 0.5},
	} {
		if got := (Options{Jitter: tc.in}).withDefaults().Jitter; got != tc.want {
			t.Errorf("Jitter %v resolved to %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestRetryDefaults pins where the retry budget comes from: the fault
// model in force (Options.Faults, or the campaign's when Options.Faults
// injects nothing), with serve's 2 retries and 2 ms backoff filling
// whatever that model leaves zero.
func TestRetryDefaults(t *testing.T) {
	camp := func(f des.Faults) *chaos.Campaign { return &chaos.Campaign{Faults: f} }
	for _, tc := range []struct {
		name        string
		opt         Options
		wantRetries int
		wantBackoff units.Seconds
	}{
		{"zero", Options{}, 2, 0.002},
		{"own", Options{Faults: des.Faults{LossProb: 0.1, MaxRetries: 4, Backoff: 0.01}}, 4, 0.01},
		{"campaign", Options{Campaign: camp(des.Faults{LossProb: 0.1, MaxRetries: 5, Backoff: 0.003})}, 5, 0.003},
		{"campaign-zero", Options{Campaign: camp(des.Faults{LossProb: 0.1})}, 2, 0.002},
		{"own-wins", Options{Faults: des.Faults{LossProb: 0.1}, Campaign: camp(des.Faults{MaxRetries: 5})}, 2, 0.002},
	} {
		f := tc.opt.withDefaults().Faults
		if f.MaxRetries != tc.wantRetries || f.Backoff != tc.wantBackoff {
			t.Errorf("%s: %d retries, %v backoff; want %d, %v", tc.name, f.MaxRetries, f.Backoff, tc.wantRetries, tc.wantBackoff)
		}
	}
}
