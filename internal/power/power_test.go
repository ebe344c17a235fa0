package power

import (
	"math"
	"testing"

	"idde/internal/core"
	"idde/internal/model"
	"idde/internal/radio"
	"idde/internal/rng"
	"idde/internal/topology"
	"idde/internal/workload"
)

func genInstance(t *testing.T, n, m, k int, seed uint64) *model.Instance {
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

func solveAlloc(in *model.Instance) model.Allocation {
	return core.Solve(in, core.DefaultOptions()).Strategy.Alloc
}

func TestTuneIsParetoOnRates(t *testing.T) {
	in := genInstance(t, 15, 120, 4, 1)
	alloc := solveAlloc(in)
	res, err := Tune(in, alloc)
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgRateAfter < res.AvgRateBefore-1e-9 {
		t.Errorf("average rate fell: %v -> %v", res.AvgRateBefore, res.AvgRateAfter)
	}
	// Per-user Pareto check via the full model on the tuned instance.
	tuned, err := Apply(in, res.Powers)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < in.M(); j++ {
		before := in.UserRate(alloc, j)
		after := tuned.UserRate(alloc, j)
		if float64(after) < float64(before)-1e-6*math.Max(1, float64(before)) {
			t.Fatalf("user %d rate fell: %v -> %v", j, before, after)
		}
	}
}

func TestTuneSavesPower(t *testing.T) {
	// At M=60 over 15 servers most users are uncongested and
	// cap-limited, so nearly everyone can shed power.
	in := genInstance(t, 15, 60, 3, 2)
	alloc := solveAlloc(in)
	res, err := Tune(in, alloc)
	if err != nil {
		t.Fatal(err)
	}
	if res.SavedWatts <= 0 || res.TunedUsers == 0 {
		t.Errorf("no power saved: %+v", res)
	}
	if res.TunedUsers < in.M()/2 {
		t.Errorf("only %d of %d users tuned in an uncongested system", res.TunedUsers, in.M())
	}
	for j, p := range res.Powers {
		if p < minPower-1e-12 {
			t.Errorf("user %d below MinPower: %v", j, p)
		}
		if p > in.Top.Users[j].Power+1e-12 {
			t.Errorf("user %d power increased: %v > %v", j, p, in.Top.Users[j].Power)
		}
	}
}

func TestTuneImprovesMixedLoadRates(t *testing.T) {
	// The rate gain needs *mixed* load: cap-limited users shed power,
	// their congested co-channel neighbours breathe easier. A fully
	// congested system has no headroom anywhere (nobody sheds), a fully
	// idle one has nobody to help — so test a moderate load and accept
	// the first seed that shows any shedding.
	improved := false
	for seed := uint64(3); seed < 8; seed++ {
		in := genInstance(t, 15, 150, 4, seed)
		alloc := solveAlloc(in)
		res, err := Tune(in, alloc)
		if err != nil {
			t.Fatal(err)
		}
		if res.AvgRateAfter < res.AvgRateBefore-1e-9 {
			t.Fatalf("seed %d: rate fell: %v -> %v", seed, res.AvgRateBefore, res.AvgRateAfter)
		}
		if res.AvgRateAfter > res.AvgRateBefore+1e-9 {
			improved = true
			break
		}
	}
	if !improved {
		t.Error("no mixed-load instance showed a rate improvement")
	}
}

func TestTuneAgreesWithFullModel(t *testing.T) {
	in := genInstance(t, 12, 100, 3, 4)
	alloc := solveAlloc(in)
	res, err := Tune(in, alloc)
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := Apply(in, res.Powers)
	if err != nil {
		t.Fatal(err)
	}
	got := float64(tuned.AvgRate(alloc))
	want := float64(res.AvgRateAfter)
	if math.Abs(got-want) > 1e-6*math.Max(1, want) {
		t.Errorf("internal evaluator %v != full model %v", want, got)
	}
}

func TestTuneDeterministic(t *testing.T) {
	in := genInstance(t, 12, 80, 3, 5)
	alloc := solveAlloc(in)
	a, err := Tune(in, alloc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Tune(in, alloc)
	if err != nil {
		t.Fatal(err)
	}
	for j := range a.Powers {
		if a.Powers[j] != b.Powers[j] {
			t.Fatalf("powers differ at user %d", j)
		}
	}
}

func TestTuneValidation(t *testing.T) {
	in := genInstance(t, 10, 40, 3, 6)
	if _, err := Tune(in, model.NewAllocation(3)); err == nil {
		t.Error("wrong-length allocation accepted")
	}
}

func TestApplyValidation(t *testing.T) {
	in := genInstance(t, 10, 40, 3, 7)
	if _, err := Apply(in, nil); err == nil {
		t.Error("wrong-length powers accepted")
	}
	alloc := solveAlloc(in)
	res, err := Tune(in, alloc)
	if err != nil {
		t.Fatal(err)
	}
	res.Powers[0] = 0
	if _, err := Apply(in, res.Powers); err == nil {
		t.Error("zero power accepted")
	}
}

func TestApplyDoesNotMutateOriginal(t *testing.T) {
	in := genInstance(t, 10, 40, 3, 8)
	alloc := solveAlloc(in)
	res, err := Tune(in, alloc)
	if err != nil {
		t.Fatal(err)
	}
	orig := in.Top.Users[0].Power
	if _, err := Apply(in, res.Powers); err != nil {
		t.Fatal(err)
	}
	if in.Top.Users[0].Power != orig {
		t.Error("Apply mutated the source instance")
	}
}
